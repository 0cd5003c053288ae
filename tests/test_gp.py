import math

import numpy as np
import pytest
from scipy import stats

from deepgp_lab import funcspace, gp, rates
from deepgp_lab.errors import ConditioningError, ValidationError


def wspec(**kw):
    base = dict(family=rates.WAVELET, beta=1.0, r=1, n=1024, seed=0)
    base.update(kw)
    return gp.GpSpec(**base)


def test_default_grid_fits_r2():
    # the default grid is within the r = 2 cap, so a 2-D spec need not name one
    spec = gp.GpSpec(family=rates.STATIONARY, beta=1.0, r=2, n=100)
    assert spec.grid == gp.DEFAULT_GRID == 33
    assert gp.sample_path(spec).values.shape == (33, 33)


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
        p = gp.sample_path(wspec(seed=5))
        q = gp.sample_path(wspec(seed=5))
        pts = np.linspace(-1, 1, 64)[:, None]
        np.testing.assert_array_equal(p(pts), q(pts))

    def test_truncation_level(self):
        p = gp.sample_path(wspec(n=1024, beta=1.0))
        assert len(p.levels) == 3
        p = gp.sample_path(wspec(n=1024, beta=0.5))
        assert len(p.levels) == 5

    def test_coefficient_variance(self):
        # lambda_{j,k} ~ N(0, 2^{-2j(b+r/2)}/(jr)); check level-2 empirically
        beta, j = 1.0, 2
        draws = np.array([
            gp.sample_path(wspec(seed=s, beta=beta)).levels[j - 1]
            for s in range(2500)
        ]).ravel()
        target = 2.0 ** (-2 * j * (beta + 0.5)) / j
        assert abs(draws.var() / target - 1.0) < 0.05


class TestFbmFamily:
    def test_origin_released(self):
        spec = gp.GpSpec(rates.FBM, 0.5, 1, n=100, seed=3, grid=33)
        z = gp.draw_state(spec)
        p = gp.path_from_state(spec, z)
        # pinned at 0 before the release, the origin holds exactly the released z[0]
        assert p.values[len(p.axes[0]) // 2] == z[0]

    def test_covariance_formula(self):
        u = np.array([[0.5], [-0.25]])
        c = gp.fbm_covariance(u, u, 0.5)
        np.testing.assert_allclose(c[0, 0], 0.5)
        np.testing.assert_allclose(c[0, 1], 0.5 * (0.5 + 0.25 - 0.75))

    def test_brownian_increment_variance(self):
        # beta = 1/2 on r=1 is Brownian motion: Var(X(u)-X(u')) = |u-u'|
        vals = np.array([
            gp.sample_path(gp.GpSpec(rates.FBM, 0.5, 1, n=100, seed=s, grid=33)).values
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
            gp.sample_path(gp.GpSpec(rates.STATIONARY, 1.0, 1, n=50,
                                     seed=s, grid=33)).values
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
                    gp.GpSpec(rates.STATIONARY, 1.0, 1, n=n, seed=s, grid=33)).values
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
            z = gp.draw_state(spec, key=(4,))
            assert len(z) == gp.state_size(spec)
            p = gp.path_from_state(spec, z)
            q = gp.path_from_state(spec, z)
            pts = np.linspace(-1, 1, 17)[:, None]
            np.testing.assert_array_equal(p(pts), q(pts))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValidationError):
            gp.path_from_state(wspec(), np.zeros(3))


class TestConditioned:
    @staticmethod
    def keyed(spec, key):
        return lambda a: gp.draw_state(spec, key + (a,))

    def test_trivial_set_first_attempt(self):
        spec = wspec(seed=2)
        z, path, attempts = gp.sample_conditioned(spec, 1e6, self.keyed(spec, (0,)))
        assert attempts == 1
        np.testing.assert_array_equal(z, gp.draw_state(spec, (0, 1)))
        pts = np.linspace(-1, 1, 17)[:, None]
        np.testing.assert_array_equal(path(pts), gp.path_from_state(spec, z)(pts))

    def test_infeasible_raises(self):
        spec, tried = wspec(seed=2), []

        def draw(a):
            tried.append(a)
            return gp.draw_state(spec, (0, a))

        with pytest.raises(ConditioningError):
            gp.sample_conditioned(spec, 1e-9, draw, max_attempts=20)
        assert tried == list(range(1, 21))

    def test_restriction_law(self):
        # accepted draws follow the prior restricted to the set: compare the
        # besov-norm law of conditioned draws against direct draws filtered by
        # the same set, sup <= 1 included
        K = 3.0 * math.sqrt(2 * math.log(2))
        accepted = [
            funcspace.besov_norm(
                gp.sample_conditioned(wspec(seed=s), K,
                                      self.keyed(wspec(seed=s), (1,)))[1], 1.0)
            for s in range(400)
        ]
        filtered = []
        s = 10_000
        while len(filtered) < 400:
            path = gp.sample_path(wspec(seed=s))
            if funcspace.in_conditioning_set(path, 1.0, K)[0]:
                filtered.append(funcspace.besov_norm(path, 1.0))
            s += 1
        assert stats.ks_2samp(accepted, filtered).pvalue > 0.01


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
