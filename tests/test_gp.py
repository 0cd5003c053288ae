import json
import math

import numpy as np
import pytest
from scipy import stats

from deepgp_lab import funcspace, gp, prior, rates
from deepgp_lab.errors import ConditioningError, ValidationError


def wspec(**kw):
    base = dict(family=rates.WAVELET, beta=1.0, r=1, n=1024)
    base.update(kw)
    return gp.GpSpec(**base)


def test_default_grid_fits_r2():
    # the default grid is within the r = 2 cap, so a 2-D spec need not name one
    spec = gp.GpSpec(family=rates.STATIONARY, beta=1.0, r=2, n=100)
    assert spec.grid == gp.DEFAULT_GRID == 33
    assert gp.sample_path(spec, gp.rng_for(0)).values.shape == (33, 33)


def test_unknown_family_rejected():
    # without the check, state_size and path_from_state fall through to stationary
    with pytest.raises(ValidationError, match="family 'foo'"):
        wspec(family="foo")


class TestRng:
    def test_deterministic(self):
        a = gp.rng_for(7, (1, 2)).standard_normal(5)
        b = gp.rng_for(7, (1, 2)).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_key_splits(self):
        a = gp.rng_for(7, (1, 2)).standard_normal(5)
        b = gp.rng_for(7, (1, 3)).standard_normal(5)
        assert not np.array_equal(a, b)


class TestWaveletFamily:
    def test_determinism(self):
        p = gp.sample_path(wspec(), gp.rng_for(5))
        q = gp.sample_path(wspec(), gp.rng_for(5))
        pts = np.linspace(-1, 1, 64)[:, None]
        np.testing.assert_array_equal(p(pts), q(pts))

    def test_truncation_level(self):
        p = gp.sample_path(wspec(n=1024, beta=1.0), gp.rng_for(0))
        assert len(p.levels) == 3
        p = gp.sample_path(wspec(n=1024, beta=0.5), gp.rng_for(0))
        assert len(p.levels) == 5

    def test_coefficient_variance(self):
        # lambda_{j,k} ~ N(0, 2^{-2j(b+r/2)}/(jr)); check level-2 empirically
        beta, j = 1.0, 2
        draws = np.array([
            gp.sample_path(wspec(beta=beta), gp.rng_for(s)).levels[j - 1]
            for s in range(2500)
        ]).ravel()
        target = 2.0 ** (-2 * j * (beta + 0.5)) / j
        assert abs(draws.var() / target - 1.0) < 0.05


class TestFbmFamily:
    def test_origin_released(self):
        spec = gp.GpSpec(rates.FBM, 0.5, 1, n=100, grid=33)
        z = gp.rng_for(3).standard_normal(gp.state_size(spec))
        p = gp.path_from_state(spec, z)
        # pinned at 0 before the release, the origin holds exactly the released z[0]
        assert p.values[len(p.axes[0]) // 2] == z[0]

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_factor_law(self, beta, r):
        # values L z, z standard normal, have the fBM covariance plus 1, the
        # variance of the released constant; the origin holds z[0] alone
        m = gp.value_grid(gp.GpSpec(rates.FBM, beta, r, n=100))
        L, _ = gp._grid_factor(rates.FBM, beta, r, m)
        pts = funcspace.grid_points(r, m)
        np.testing.assert_allclose(L @ L.T, gp.fbm_covariance(pts, pts, beta) + 1.0,
                                   rtol=0, atol=1e-12)
        assert (L[m ** r // 2] == np.eye(m ** r)[0]).all()  # the middle node is the origin

    def test_covariance_formula(self):
        u = np.array([[0.5], [-0.25]])
        c = gp.fbm_covariance(u, u, 0.5)
        np.testing.assert_allclose(c[0, 0], 0.5)
        np.testing.assert_allclose(c[0, 1], 0.5 * (0.5 + 0.25 - 0.75))

    def test_brownian_increment_variance(self):
        # beta = 1/2 on r=1 is Brownian motion: Var(X(u)-X(u')) = |u-u'|
        vals = np.array([
            gp.sample_path(gp.GpSpec(rates.FBM, 0.5, 1, n=100, grid=33), gp.rng_for(s)).values
            for s in range(4000)
        ])
        xs = np.linspace(-1, 1, 33)
        i, j = 16, 28  # origin and 0.75
        var = np.var(vals[:, j] - vals[:, i])
        np.testing.assert_allclose(var, abs(xs[j] - xs[i]), rtol=0.08)

    def test_beta_range_enforced(self):
        with pytest.raises(ValidationError):
            gp.GpSpec(rates.FBM, 1.0, 1, n=100)


class TestStationaryFamily:
    def test_scaling_a_reference(self):
        assert abs(gp.scaling_a(10**6, 1.0, 1) - 17.368) < 0.01

    def test_stationarity(self):
        # marginal variance constant over the grid
        vals = np.array([
            gp.sample_path(gp.GpSpec(rates.STATIONARY, 1.0, 1, n=50, grid=33),
                           gp.rng_for(s)).values
            for s in range(3000)
        ])
        v = vals.var(axis=0)
        assert np.all(np.abs(v - 1.0) < 0.12)

    def test_roughness_increases_with_n(self):
        # larger n -> larger a -> shorter correlation length -> rougher paths
        def mean_sq_incr(n):
            tot = 0.0
            for s in range(200):
                vals = gp.sample_path(
                    gp.GpSpec(rates.STATIONARY, 1.0, 1, n=n, grid=33), gp.rng_for(s)).values
                tot += np.mean(np.diff(vals) ** 2)
            return tot / 200

        assert mean_sq_incr(10**5) > mean_sq_incr(10**2)

    def test_grid_cap(self):
        with pytest.raises(ValidationError):
            gp.GpSpec(rates.STATIONARY, 1.0, 2, n=100, grid=65)


class TestStateMap:
    def test_round_trip_sizes(self):
        for spec in (wspec(), gp.GpSpec(rates.FBM, 0.5, 1, n=100, grid=33),
                     gp.GpSpec(rates.STATIONARY, 1.0, 1, n=100, grid=33)):
            z = gp.rng_for(0, (4,)).standard_normal(gp.state_size(spec))
            assert len(z) == gp.state_size(spec)
            p = gp.path_from_state(spec, z)
            q = gp.path_from_state(spec, z)
            pts = np.linspace(-1, 1, 17)[:, None]
            np.testing.assert_array_equal(p(pts), q(pts))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValidationError):
            gp.path_from_state(wspec(), np.zeros(3))


class TestConditioned:
    def test_trivial_set_first_attempt(self):
        spec = wspec()
        z, path, attempts = gp.sample_conditioned(spec, 1e6, gp.rng_for(2, (0, 1)))
        assert attempts == 1
        np.testing.assert_array_equal(
            z, gp.rng_for(2, (0, 1)).standard_normal(gp.state_size(spec)))
        pts = np.linspace(-1, 1, 17)[:, None]
        np.testing.assert_array_equal(path(pts), gp.path_from_state(spec, z)(pts))

    def test_infeasible_raises(self):
        spec, rng = wspec(), Recorder(gp.rng_for(2))
        with pytest.raises(ConditioningError):
            gp.sample_conditioned(spec, 1e-9, rng, max_attempts=20)
        assert rng.shapes == [(count, gp.state_size(spec)) for count in (1, 2, 4, 8, 5)]

    def test_restriction_law(self):
        # accepted draws follow the prior restricted to the set: compare the
        # besov-norm law of conditioned draws against direct draws filtered by
        # the same set, sup <= 1 included
        K = 3.0 * math.sqrt(2 * math.log(2))
        accepted = [
            funcspace.besov_norm(
                gp.sample_conditioned(wspec(), K, gp.rng_for(s, (1,)))[1], 1.0)
            for s in range(400)
        ]
        filtered = []
        s = 10_000
        while len(filtered) < 400:
            path = gp.sample_path(wspec(), gp.rng_for(s))
            if funcspace.in_conditioning_set(path, 1.0, K)[0]:
                filtered.append(funcspace.besov_norm(path, 1.0))
            s += 1
        assert stats.ks_2samp(accepted, filtered).pvalue > 0.01

    def test_limit_above_the_ceiling_needs_no_norm(self, monkeypatch):
        # stationary beta 1 at n 3,200: K 977.7 is above the ceiling 130 of the
        # 33-node grid, so a draw is decided on its sup alone
        def no_norm(*args):
            raise AssertionError("Holder norm computed")
        monkeypatch.setattr(funcspace, "holder_norm_empirical", no_norm)
        spec = gp.GpSpec(family=rates.STATIONARY, beta=1.0, r=1, n=3200)
        K = prior.conditioning_limit(spec, rates.RateProfile(family=rates.STATIONARY))
        for s in range(5):
            _, path, _ = gp.sample_conditioned(spec, K, gp.rng_for(s, (1,)))
            assert np.max(np.abs(path.values)) <= 1.0

    def test_limit_below_the_ceiling_reads_the_norm(self, monkeypatch):
        # fbm beta 0.8 at n 3,200: K 5.36 is below the ceiling 32, so the norm decides
        norm, calls = funcspace.holder_norm_empirical, []

        def counting(path, beta):
            calls.append(norm(path, beta))
            return calls[-1]
        monkeypatch.setattr(funcspace, "holder_norm_empirical", counting)
        spec = gp.GpSpec(family=rates.FBM, beta=0.8, r=1, n=3200)
        K = prior.conditioning_limit(spec, rates.RateProfile(family=rates.FBM))
        assert K < funcspace._holder_ceiling((gp.value_grid(spec),), 0.8)
        _, path, _ = gp.sample_conditioned(spec, K, gp.rng_for(0, (1,)))
        assert calls and calls[-1] == norm(path, 0.8) <= K

    @pytest.mark.parametrize("family, beta", [(rates.STATIONARY, 1.0), (rates.FBM, 0.5)])
    def test_restriction_law_screened(self, family, beta):
        # the same for grid families, whose blocks of attempts are screened on
        # the sup first: the accepted draws' sup against filtered direct draws
        spec = gp.GpSpec(family=family, beta=beta, r=1, n=500)
        K = prior.conditioning_limit(spec, rates.RateProfile(family=family))
        accepted = [
            np.max(np.abs(gp.sample_conditioned(spec, K, gp.rng_for(s, (1,)))[1].values))
            for s in range(400)
        ]
        filtered = []
        s = 10_000
        while len(filtered) < 400:
            path = gp.sample_path(spec, gp.rng_for(s))
            if funcspace.in_conditioning_set(path, beta, K)[0]:
                filtered.append(np.max(np.abs(path.values)))
            s += 1
        assert stats.ks_2samp(accepted, filtered).pvalue > 0.01


def per_attempt(spec, K, state, max_attempts=1000):
    """The reference: one attempt at a time, each state's path built and checked."""
    for attempt in range(1, max_attempts + 1):
        z = state(attempt)
        path = gp.path_from_state(spec, z)
        if funcspace.in_conditioning_set(path, spec.beta, K)[0]:
            return z, path, attempt
    return None


class Recorder:
    """A generator that records the shape of each block of normals read from it."""

    def __init__(self, rng):
        self.rng, self.shapes = rng, []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        return self.rng.standard_normal(shape)


class Rows:
    """A stand-in generator whose normals are the given rows, read in order."""

    def __init__(self, rows):
        self.rows, self.read = rows, 0

    def standard_normal(self, shape):
        count = shape[0]
        self.read += count
        return self.rows[self.read - count:self.read]


def stream(rng):
    """A generator's bit_generator.state, in a form == compares."""
    return json.dumps(rng.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


def block_end(attempt):
    """The last attempt of the block of sample_conditioned's that holds attempt."""
    end, block = 0, 1
    while end < attempt:
        end, block = end + block, min(2 * block, gp._BLOCK_CAP)
    return end


NODE_LAWS = [(rates.STATIONARY, 1.0, 1, 500), (rates.STATIONARY, 1.0, 2, 200),
             (rates.FBM, 0.5, 1, 500), (rates.FBM, 0.8, 1, 500), (rates.WAVELET, 1.0, 1, 1024)]


class TestBlockedAttempts:
    """sample_conditioned draws and screens blocks of attempts, and decides as the
    per-attempt loop does: same state bits, same path values, same attempt."""

    @staticmethod
    def law(family, beta, r, n):
        spec = gp.GpSpec(family=family, beta=beta, r=r, n=n)
        return spec, prior.conditioning_limit(spec, rates.RateProfile(family=family))

    @staticmethod
    def assert_same(got, want):
        z, path, attempts = got
        assert attempts == want[2]
        assert z.tobytes() == want[0].tobytes()
        assert path.values.tobytes() == want[1].values.tobytes()

    def assert_reads_blocks(self, spec, K, seed, key):
        # the stream is read in whole blocks: up to the end of the accepting one
        size = gp.state_size(spec)
        ref = gp.rng_for(seed, key)
        want = per_attempt(spec, K, lambda a: ref.standard_normal(size))
        rng = gp.rng_for(seed, key)
        self.assert_same(gp.sample_conditioned(spec, K, rng), want)
        ref.standard_normal((block_end(want[2]) - want[2], size))
        assert stream(rng) == stream(ref)

    @pytest.mark.parametrize("family, beta, r, n", NODE_LAWS)
    def test_keyed_draws(self, family, beta, r, n):
        # a node's own keyed stream, as the sample command keys node k
        spec, K = self.law(family, beta, r, n)
        for k in range(6):
            self.assert_reads_blocks(spec, K, 0, (k, 1))

    @pytest.mark.parametrize("family, beta, r, n", NODE_LAWS)
    def test_sequential_draws(self, family, beta, r, n):
        # a chain's stream, one seed after another
        spec, K = self.law(family, beta, r, n)
        for seed in range(6):
            self.assert_reads_blocks(spec, K, seed, (12,))

    @pytest.mark.parametrize("max_attempts", [1, 100, 1000])
    def test_exhaustion_reads_exactly_the_budget(self, max_attempts):
        spec = gp.GpSpec(rates.STATIONARY, 1.0, 1, n=500)
        size, rng, ref = gp.state_size(spec), gp.rng_for(3), gp.rng_for(3)
        with pytest.raises(ConditioningError) as info:
            gp.sample_conditioned(spec, 1e-9, rng, max_attempts=max_attempts)
        assert str(info.value) == (
            f"conditioning too tight: no acceptance in {max_attempts} attempts into sup <= 1 "
            "and Hoelder norm <= K = 1e-09 on the 33^1 grid its values live on")
        ref.standard_normal((max_attempts, size))
        assert stream(rng) == stream(ref)

    @pytest.mark.parametrize("family, beta, r", [(rates.STATIONARY, 1.0, 1),
                                                 (rates.STATIONARY, 1.0, 2),
                                                 (rates.FBM, 0.5, 1), (rates.FBM, 0.8, 2)])
    def test_sup_within_ulps_of_one(self, monkeypatch, family, beta, r):
        # states rescaled so that their exact sup is 1 give or take a few ulp are
        # decided as in_conditioning_set decides them, each one alone and as the
        # first row of the block of attempts 64-127, where the block's product
        # rounds differently from path_from_state's
        monkeypatch.setattr(funcspace, "holder_norm_empirical", lambda path, beta: 0.0)
        spec = gp.GpSpec(family=family, beta=beta, r=r, n=500)
        eps, K = np.finfo(float).eps, 1.0  # only the sup decides
        states = []
        for k in range(8):
            z = gp.rng_for(0, (k,)).standard_normal(gp.state_size(spec))
            z = z / np.max(np.abs(gp.path_from_state(spec, z).values))
            states += [z * (1.0 + t * eps / 2) for t in range(-4, 5)]
        far = 10 * np.array(states[:63])
        decided = []
        for z in states:
            path = gp.path_from_state(spec, z)
            ok = funcspace.in_conditioning_set(path, beta, K)[0]
            decided.append(ok)
            for rows, attempt in ((z[None], 1), (np.concatenate([far, z[None], far]), 64)):
                if ok:
                    self.assert_same(gp.sample_conditioned(spec, K, Rows(rows), len(rows)),
                                     (z, path, attempt))
                else:
                    with pytest.raises(ConditioningError):
                        gp.sample_conditioned(spec, K, Rows(rows), len(rows))
        assert 0 < sum(decided) < len(decided)


class TestAcceptanceBound:
    def test_reference_values(self):
        np.testing.assert_allclose(gp.acceptance_lower_bound(2.0, 1),
                                   1 - 4 / 12)  # 2/3
        np.testing.assert_allclose(gp.acceptance_lower_bound(2.0, 2),
                                   1 - 4 / 252)

    def test_limits(self):
        assert gp.acceptance_lower_bound(6.0, 3) >= 1 - 1e-12
        with pytest.raises(ValidationError):
            gp.acceptance_lower_bound(1.7, 1)
