import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from deepgp_lab import funcspace, gp, inference, prior, rates, structure
from deepgp_lab.errors import ConditioningError, ValidationError
from reference import block_end, kl_v2_hellinger, log_likelihood_ratio, stream


def q0_spec(n=200, **kw):
    base = dict(
        space=structure.StructureSpace(input_dim=1, max_q=0, max_width=1),
        profile=rates.RateProfile(family=rates.WAVELET),
        n=n,
        beta_grid=(1.0,),
    )
    base.update(kw)
    return prior.StructurePriorSpec(**base)


def uniform_quad(m=401):
    pts = np.linspace(-1, 1, m)[:, None]
    return pts, np.full(m, 1.0 / m)


def per_attempt_node(eta, spec, rng, max_attempts=1000):
    """The reference for _fresh_state: the node draws one state of the shared
    stream per attempt until its path is in the node's set, and the stream is left
    at the end of the block that holds the accepted attempt."""
    (beta,), t = eta.betas, eta.graph.eff_dims[0]
    gp_spec = gp.GpSpec(family=spec.profile.family, beta=float(beta), r=int(t), n=spec.n)
    K = prior.conditioning_limit(gp_spec, spec.profile, rates.alpha_exponents(eta.betas)[0])
    size = gp.state_size(gp_spec)
    for attempt in range(1, max_attempts + 1):
        z = rng.standard_normal(size)
        path = gp.path_from_state(gp_spec, z)
        if funcspace.in_conditioning_set(path, gp_spec.beta, K)[0]:
            rng.standard_normal((block_end(attempt) - attempt, size))
            return z, path
    return None


# one one-layer structure per family: one node on one variable
FRESH_LAWS = [(rates.STATIONARY, (1.0,)), (rates.FBM, (0.8,)), (rates.WAVELET, (1.0,))]


def fresh_case(family, betas):
    spec = prior.StructurePriorSpec(
        space=structure.StructureSpace(input_dim=1, max_q=0, max_width=1),
        profile=rates.RateProfile(family=family), n=200, beta_grid=betas)
    g = structure.CompositionGraph(1, [[(1,)]])
    return structure.CompositionStructure(graph=g, betas=betas, bounds=(0.3, 1.0)), spec


class TestFreshState:
    """_fresh_state draws blocks of attempts from the chain's one stream, and
    leaves it at the end of the node's accepting block."""

    @pytest.mark.parametrize("family, betas", FRESH_LAWS)
    def test_matches_the_per_attempt_stream(self, family, betas):
        eta, spec = fresh_case(family, betas)
        for seed in range(3):
            rng, ref = gp.rng_for(seed, (12,)), gp.rng_for(seed, (12,))
            for _ in range(2):  # consecutive fresh states read on from the same stream
                got = inference._fresh_state(eta, spec, rng)
                z, path = per_attempt_node(eta, spec, ref)
                assert got.z.tobytes() == z.tobytes()
                assert got.path.values.tobytes() == path.values.tobytes()
                assert stream(rng) == stream(ref)

    def test_refuses_a_deeper_structure(self):
        # no deeper structure has prior mass, so a chain never draws one; if one
        # ever did, unpacking its two node laws would fail, not draw one node
        spec = q0_spec(space=structure.StructureSpace(input_dim=1, max_q=1, max_width=1))
        deep = next(eta for eta, _ in prior.structure_prior_weights(spec) if eta.graph.q == 1)
        with pytest.raises(ValueError, match="too many values to unpack"):
            inference._fresh_state(deep, spec, gp.rng_for(0, (12,)))

    @pytest.mark.parametrize("max_attempts", [1, 100])
    def test_exhausted_budget_reads_exactly_the_budget(self, monkeypatch, max_attempts):
        real = inference.sample_conditioned

        def exhausting(spec, K, rng, budget=1000):
            return real(spec, -1.0, rng, max_attempts)

        monkeypatch.setattr(inference, "sample_conditioned", exhausting)
        eta, spec = fresh_case(rates.STATIONARY, (1.0,))
        rng, ref = gp.rng_for(8, (12,)), gp.rng_for(8, (12,))
        assert inference._fresh_state(eta, spec, rng) is None
        ref.standard_normal((max_attempts, 33))
        assert stream(rng) == stream(ref)

    def test_node_law_is_solved_once_per_structure(self, monkeypatch):
        eta, spec = fresh_case(rates.STATIONARY, (1.0,))
        calls = []
        real = prior.conditioning_limit

        def counting(gp_spec, profile, alpha=1.0):
            calls.append(gp_spec)
            return real(gp_spec, profile, alpha)

        monkeypatch.setattr(prior, "conditioning_limit", counting)
        prior._node_laws.cache_clear()
        try:
            rng = gp.rng_for(3, (12,))
            for _ in range(3):
                assert inference._fresh_state(eta, spec, rng) is not None
        finally:
            prior._node_laws.cache_clear()
        assert len(calls) == 1  # the one layer's law, for all three moves

    def test_grid_family_chain_draws_the_prior(self):
        # prior_only with a structure move every iteration: each iteration is a
        # fresh state read from the chain's stream and always accepted, so the
        # chain's sups are independent draws of the prior's sup on the same grid
        spec = q0_spec(n=500, profile=rates.RateProfile(family=rates.STATIONARY))
        data = inference.generate_data(lambda x: np.zeros(len(x)), n=500, seed=0, input_dim=1)
        cfg = inference.PosteriorConfig(iterations=1000, structure_move_prob=1.0,
                                        burn_in=0.0, seed=0, prior_only=True)
        trace = inference.run_mcmc(data, spec, cfg)
        assert np.all(np.diff(trace.sup) != 0)
        pts = funcspace.grid_points(1, 101)
        prior_sup = [float(np.max(np.abs(prior.sample_prior(spec, 50_000 + s)(pts))))
                     for s in range(1000)]
        assert stats.ks_2samp(trace.sup, prior_sup).pvalue > 0.01


def assert_same_trace(a, b):
    """Two PosteriorTraces are equal in every field."""
    for field in inference.PosteriorTrace._fields:
        x, y = getattr(a, field), getattr(b, field)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y


class TestHolderCeiling:
    def test_chain_is_the_same_with_the_norm_forced(self, monkeypatch):
        # the ceiling only skips norms that cannot reach K, so forcing every
        # norm (a ceiling of inf) gives the same trace, in every field
        spec = prior.StructurePriorSpec(
            space=structure.StructureSpace(input_dim=1, max_q=1, max_width=2),
            profile=rates.RateProfile(family=rates.STATIONARY), n=200, beta_grid=(1.0,))
        data = inference.generate_data(prior.sample_prior(spec, 1), n=200, seed=3,
                                       input_dim=1)
        cfg = inference.PosteriorConfig(iterations=150, pcn_step=0.9,
                                        structure_move_prob=0.3, seed=3)
        norm, calls = funcspace.holder_norm_empirical, []

        def counting(path, beta):
            calls.append(beta)
            return norm(path, beta)
        monkeypatch.setattr(funcspace, "holder_norm_empirical", counting)
        skipped = inference.run_mcmc(data, spec, cfg)
        assert not calls
        monkeypatch.setattr(funcspace, "_holder_ceiling", lambda shape, beta: math.inf)
        forced = inference.run_mcmc(data, spec, cfg)
        assert len(calls) > 100
        assert_same_trace(skipped, forced)


# a chain whose error grid is reused: structure moves at d = 2 switch between
# paths of one shape on input 1 and on input 2
CHAIN_CASES = [(rates.STATIONARY, 1), (rates.WAVELET, 1), (rates.STATIONARY, 2)]


def chain_case(family, d):
    """data, spec and config of a 150-iteration chain in a depth <= 1 space."""
    spec = prior.StructurePriorSpec(
        space=structure.StructureSpace(input_dim=d, max_q=1, max_width=2),
        profile=rates.RateProfile(family=family), n=200, beta_grid=(1.0,))
    data = inference.generate_data(prior.sample_prior(spec, 1), n=200, seed=3, input_dim=d)
    cfg = inference.PosteriorConfig(iterations=150, pcn_step=0.9,
                                    structure_move_prob=0.3, seed=3)
    return data, spec, cfg


class TestGatherPlan:
    @pytest.mark.parametrize("family, d", CHAIN_CASES)
    def test_chain_is_the_same_with_the_plan_rebuilt(self, monkeypatch, family, d):
        # a layer plans its gathers afresh on every call, and the chain reads the
        # error grid from compose's last result, so the grid is planned once per
        # kept state; dropping that result before every call, so that the grid is
        # planned and composed again every iteration, gives the same trace
        data, spec, cfg = chain_case(family, d)
        grid = 101 if d == 1 else 17**d
        plan, planned = funcspace._gather_plan, []

        def counting(pts, shape):
            planned.append(len(pts))
            return plan(pts, shape)
        monkeypatch.setattr(funcspace, "_gather_plan", counting)
        kept = inference.run_mcmc(data, spec, cfg)
        # the error grid is planned once per kept state that ends an iteration:
        # each accepted move, and the start unless iteration 0 accepts one; the
        # one-layer truth is planned on it once more
        ends = 1 + int(np.count_nonzero(np.diff(kept.log_lik)))
        assert accepted(kept) <= ends <= 1 + accepted(kept)
        assert planned.count(grid) == 1 + ends
        if d == 2:  # at d = 1 one structure holds all the prior's mass
            assert len(set(kept.structure_idx)) > 1
        compose = inference.compose

        def rebuilt(layers, points, cache=None):
            if cache is not None:
                cache.clear()
            return compose(layers, points, cache)
        monkeypatch.setattr(inference, "compose", rebuilt)
        planned.clear()
        fresh = inference.run_mcmc(data, spec, cfg)
        assert planned.count(grid) == 1 + cfg.iterations
        assert ends < cfg.iterations  # so some iterations keep a state
        assert_same_trace(kept, fresh)

    @pytest.mark.parametrize("family, d", CHAIN_CASES)
    def test_chain_is_the_same_without_a_cache(self, monkeypatch, family, d):
        # the chain records l2_error and sup once per kept state, from compose's
        # last result; composing the error grid afresh every iteration gives the
        # same trace, in every field
        data, spec, cfg = chain_case(family, d)
        kept = inference.run_mcmc(data, spec, cfg)
        compose, cached = inference.compose, []

        def uncached(layers, points, cache=None):
            cached.append(cache is not None)
            return compose(layers, points)
        monkeypatch.setattr(inference, "compose", uncached)
        fresh = inference.run_mcmc(data, spec, cfg)
        assert cached.count(True) == cfg.iterations  # the error grid, every iteration
        assert 0 < accepted(fresh) < cfg.iterations  # so some iterations keep a state
        assert_same_trace(kept, fresh)


class TestStart:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tied_weights_start_at_the_lowest_index(self, seed):
        # at d_0 = 2 and q = 0 the structures on input 1 and on input 2 both
        # weigh 0.5; the chain starts at the lower index and, with no structure
        # moves, stays there
        spec = prior.StructurePriorSpec(
            space=structure.StructureSpace(input_dim=2, max_q=0, max_width=1),
            profile=rates.RateProfile(family=rates.STATIONARY), n=200, beta_grid=(1.0,))
        logs = np.array([w.log_value for _, w in prior.structure_prior_weights(spec)])
        tied = np.flatnonzero(logs == logs.max())
        assert len(tied) == 2
        data = inference.generate_data(lambda X: np.zeros(len(X)), n=200, seed=seed,
                                       input_dim=2)
        cfg = inference.PosteriorConfig(iterations=5, structure_move_prob=0.0, seed=seed)
        trace = inference.run_mcmc(data, spec, cfg)
        assert set(trace.structure_idx) == {tied[0]}

    def test_never_starts_at_a_weight_zero_structure(self, monkeypatch):
        # the one structure of positive weight cannot be drawn: the chain refuses
        # to start rather than start where its structure moves never go
        spec = prior.StructurePriorSpec(
            space=structure.StructureSpace(input_dim=2, max_q=0, max_width=1),
            profile=rates.RateProfile(family=rates.STATIONARY), n=200, beta_grid=(1.0,))
        first, second = (eta for eta, _ in prior.structure_prior_weights(spec)[:2])
        weighted = [(first, rates.LogWeight(0.0)), (second, rates.LogWeight(-800.0))]
        monkeypatch.setattr(inference, "_structure_table",
                            lambda spec: (weighted, prior._cumulative(weighted)))
        fresh, tried = inference._fresh_state, []

        def feasible_but_the_first(eta, spec, rng):
            tried.append(eta)
            return None if eta == first else fresh(eta, spec, rng)

        monkeypatch.setattr(inference, "_fresh_state", feasible_but_the_first)
        data = inference.generate_data(lambda X: np.zeros(len(X)), n=200, seed=0,
                                       input_dim=2)
        with pytest.raises(ConditioningError, match="no structure admits"):
            inference.run_mcmc(data, spec, inference.PosteriorConfig(iterations=5))
        assert tried == [first]


class TestMedian:
    """inference.median is np.median's value, bit for bit."""

    def test_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for size in range(1, 41):  # odd and even lengths
            for _ in range(20):
                a = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 6)
                if rng.random() < 0.3:  # ties, and zeros of both signs
                    a = np.round(a)
                    a[rng.integers(0, size)] = -0.0
                want = np.float64(np.median(a))
                assert np.float64(inference.median(a)).tobytes() == want.tobytes(), a
                assert np.float64(inference.median(list(a))).tobytes() == want.tobytes()

    @pytest.mark.parametrize("values", [[math.nan], [1.0, math.nan], [2.0, math.nan, 1.0],
                                        [math.nan, 0.5, 3.0, -1.0]])
    def test_nan_entry_gives_nan(self, values):
        assert math.isnan(inference.median(values))
        assert math.isnan(np.median(values))

    def test_does_not_reorder_its_input(self):
        a = np.array([3.0, 1.0, 2.0, 0.0])
        assert inference.median(a) == 1.5
        assert a.tolist() == [3.0, 1.0, 2.0, 0.0]


class TestGenerateData:
    def test_shapes_and_design_range(self):
        data = inference.generate_data(lambda x: 0.5 * x[:, 0], n=500, seed=0, input_dim=1)
        assert data.X.shape == (500, 1)
        assert np.max(np.abs(data.X)) <= 1.0

    def test_noise_moments(self):
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=20000, seed=1, input_dim=1)
        assert abs(data.Y.mean()) < 0.03
        assert abs(data.Y.var() - 1.0) < 0.05

    def test_determinism(self):
        a = inference.generate_data(lambda x: 0.5 * x[:, 0], n=50, seed=3, input_dim=1)
        b = inference.generate_data(lambda x: 0.5 * x[:, 0], n=50, seed=3, input_dim=1)
        np.testing.assert_array_equal(a.Y, b.Y)

    def test_out_of_ball_truth_rejected(self):
        with pytest.raises(ValidationError):
            inference.generate_data(lambda x: 2.0 + 0 * x[:, 0], n=50, seed=0, input_dim=1)

    def test_nan_truth_rejected(self):
        def truth(x):
            f = 0.5 * x[:, 0]
            f[17] = math.nan
            return f

        with pytest.raises(ValidationError, match="truth exceeds"):
            inference.generate_data(truth, n=50, seed=0, input_dim=1)

    def test_truth_of_another_shape_rejected(self):
        # a column of values would broadcast against the noise into an n x n Y
        with pytest.raises(ValidationError, match=r"shape \(50,\); got shape \(50, 1\)"):
            inference.generate_data(lambda x: 0.5 * x, n=50, seed=0, input_dim=1)

    def test_nan_design_rejected(self):
        X = np.linspace(-1, 1, 20)[:, None]
        X[3, 0] = math.nan
        with pytest.raises(ValidationError, match="design points"):
            inference.RegressionSample(X=X, Y=np.zeros(20), f_star=None)

    def test_infinite_response_rejected(self):
        Y = np.zeros(20)
        Y[-1] = math.inf
        with pytest.raises(ValidationError, match="responses must be finite"):
            inference.RegressionSample(X=np.linspace(-1, 1, 20)[:, None], Y=Y, f_star=None)

    def test_input_dim_is_required(self):
        # the design's dimension is the structure's, never guessed from the truth
        draw = prior.sample_prior(q0_spec(), 1)
        with pytest.raises(TypeError):
            inference.generate_data(draw, n=50, seed=0)
        assert not hasattr(draw, "input_dim")


class TestMemory:
    """A fit holds its design X, its responses Y and one other n-vector.  Peaks
    traced by tracemalloc on a wavelet spec at n = 2e5, where an n-vector of
    float64 is 1.6 MB; the 1 MB slack covers what does not grow with n (the
    gather's _BLOCK-point temporaries, the chain's trace and error grid)."""

    N = 200_000
    SLACK = 2**20

    def setup_method(self):
        self.spec = prior.StructurePriorSpec(
            space=structure.StructureSpace(input_dim=1, max_q=1, max_width=2),
            profile=rates.RateProfile(family=rates.WAVELET), n=self.N, beta_grid=(1.0,))
        self.truth = prior.sample_prior(self.spec, 999)

    def peak(self, call):
        """The traced peak of call() above the memory held when it starts, in bytes,
        and its result."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call()
            return tracemalloc.get_traced_memory()[1] - start, result
        finally:
            tracemalloc.stop()

    def data(self):
        return inference.generate_data(self.truth, n=self.N, seed=0, input_dim=1)

    def test_generate_data_holds_three_vectors(self):
        # X, the truth's values and Y; the noise is drawn into Y
        peak, _ = self.peak(self.data)
        assert peak <= 3 * 8 * self.N + self.SLACK, f"{peak / (8 * self.N):.3f} n-vectors"

    def test_run_mcmc_holds_one_vector_beside_the_data(self):
        # the design's composed values on a structure's first proposal
        data = self.data()
        config = inference.PosteriorConfig(iterations=5, pcn_step=0.98, seed=0)
        peak, trace = self.peak(lambda: inference.run_mcmc(data, self.spec, config))
        assert peak <= 8 * self.N + self.SLACK, f"{peak / (8 * self.N):.3f} n-vectors"
        assert np.isfinite(trace.log_lik).all()


class TestLogLikelihoodRatio:
    def data(self):
        return inference.generate_data(lambda x: 0.5 * x[:, 0], n=200, seed=5, input_dim=1)

    def test_identity_zero(self):
        d = self.data()
        assert log_likelihood_ratio(d.f_star, d.f_star, d) == 0.0

    def test_chain_rule(self):
        d = self.data()
        f = lambda x: 0.3 * x[:, 0]
        g = lambda x: -0.2 * x[:, 0] ** 2
        h = lambda x: 0.1 + 0 * x[:, 0]
        lfg = log_likelihood_ratio(f, g, d)
        lgh = log_likelihood_ratio(g, h, d)
        lfh = log_likelihood_ratio(f, h, d)
        np.testing.assert_allclose(lfh, lfg + lgh, rtol=1e-10)

    def test_antisymmetry(self):
        d = self.data()
        f = lambda x: 0.3 * x[:, 0]
        g = lambda x: -0.2 * x[:, 0] ** 2
        np.testing.assert_allclose(log_likelihood_ratio(f, g, d),
                                   -log_likelihood_ratio(g, f, d),
                                   rtol=1e-10)

    def test_noiseless_reduces_to_half_l2(self):
        # with Y = f*(X) exactly, the ratio is -1/2 sum (f - f*)^2
        X = np.linspace(-1, 1, 100)[:, None]
        fstar = lambda x: 0.5 * x[:, 0]
        d = inference.RegressionSample(X=X, Y=fstar(X), f_star=fstar)
        f = lambda x: 0.2 * x[:, 0]
        expected = -0.5 * np.sum((f(X) - fstar(X)) ** 2)
        np.testing.assert_allclose(log_likelihood_ratio(f, fstar, d),
                                   expected, rtol=1e-12)


class TestInformationGeometry:
    def test_constant_shift_closed_form(self):
        # f - g = c everywhere: KL = c^2, V2 = c^2 + c^4/4, d_H = 1 - e^{-c^2/8}
        pts, w = uniform_quad()
        c = 0.37
        f = lambda x: np.full(len(x), c)
        g = lambda x: np.zeros(len(x))
        kl, v2, hell = kl_v2_hellinger(f, g, pts, w)
        np.testing.assert_allclose(kl, c**2, rtol=1e-12)
        np.testing.assert_allclose(v2, c**2 + 0.25 * c**4, rtol=1e-12)
        np.testing.assert_allclose(hell, 1 - math.exp(-(c**2) / 8), rtol=1e-12)

    def test_sandwich(self):
        # (e^{-Q^2/2}/8) KL <= d_H <= KL/8 with Q = sup|f-g|
        pts, w = uniform_quad()
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(-1, 1, size=2)
            f = lambda x: a * x[:, 0]
            g = lambda x: b * x[:, 0] ** 2
            diff = f(pts) - g(pts)
            q = float(np.max(np.abs(diff)))
            kl, _, hell = kl_v2_hellinger(f, g, pts, w)
            assert hell <= kl / 8 + 1e-15
            assert hell >= math.exp(-q * q / 2) / 8 * kl - 1e-15

    def test_zero_distance(self):
        pts, w = uniform_quad(51)
        f = lambda x: 0.3 * x[:, 0]
        kl, v2, hell = kl_v2_hellinger(f, f, pts, w)
        assert kl == v2 == hell == 0.0

    def test_bad_weights_rejected(self):
        pts, _ = uniform_quad(11)
        with pytest.raises(ValidationError):
            kl_v2_hellinger(lambda x: x[:, 0], lambda x: x[:, 0],
                                      pts, np.full(11, 0.5))


class TestMcmc:
    def test_pcn_near_one_accepts(self):
        # rho -> 1 means near-identical proposals; acceptance should be high
        spec = q0_spec(n=100)
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0, input_dim=1)
        cfg = inference.PosteriorConfig(iterations=300, pcn_step=0.995,
                                        structure_move_prob=0.0, seed=1)
        trace = inference.run_mcmc(data, spec, cfg)
        assert trace.acceptance("pcn") > 0.9

    def test_shrinkage_vs_prior(self):
        # the posterior given data from f* = 0 concentrates: post-burn-in sup
        # norm is smaller on average than under the prior alone
        spec = q0_spec(n=400)
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=400, seed=2, input_dim=1)
        cfg = inference.PosteriorConfig(iterations=600, pcn_step=0.7,
                                        structure_move_prob=0.0, seed=3)
        post = inference.run_mcmc(data, spec, cfg)
        pri = inference.run_mcmc(data, spec,
                                 inference.PosteriorConfig(
                                     iterations=600, pcn_step=0.7,
                                     structure_move_prob=0.0, seed=3,
                                     prior_only=True))
        assert np.mean(post.post_burn(post.sup)) < np.mean(pri.post_burn(pri.sup))

    def test_determinism(self):
        spec = q0_spec(n=100)
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0, input_dim=1)
        cfg = inference.PosteriorConfig(iterations=100, pcn_step=0.8, seed=4)
        a = inference.run_mcmc(data, spec, cfg)
        b = inference.run_mcmc(data, spec, cfg)
        np.testing.assert_array_equal(a.log_lik, b.log_lik)
        np.testing.assert_array_equal(a.structure_idx, b.structure_idx)

    def test_trace_lengths_and_burn(self):
        spec = q0_spec(n=100)
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0, input_dim=1)
        cfg = inference.PosteriorConfig(iterations=80, burn_in=0.25, seed=0)
        trace = inference.run_mcmc(data, spec, cfg)
        assert len(trace.log_lik) == 80
        assert trace.burn == 20
        assert len(trace.post_burn(trace.l2_error)) == 60

    def test_exhausted_structure_moves_are_counted(self, monkeypatch):
        # after the chain's first state every node draw runs out of its budget,
        # so every structure move is rejected, and counted
        real, calls = inference.sample_conditioned, []

        def exhausting(spec, K, rng, max_attempts=1000):
            calls.append(K)
            if len(calls) > 1:  # q0_spec's one node: call 1 is the first state
                K, max_attempts = -1.0, 3
            return real(spec, K, rng, max_attempts)

        monkeypatch.setattr(inference, "sample_conditioned", exhausting)
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0, input_dim=1)
        cfg = inference.PosteriorConfig(iterations=60, structure_move_prob=0.5, seed=4)
        trace = inference.run_mcmc(data, q0_spec(n=100), cfg)
        assert trace.moves["structure", "exhausted"] == len(calls) - 1 > 10
        assert trace.acceptance("structure") == 0.0

    def test_move_tally_counts_what_happened(self, monkeypatch):
        # the chain's events in order: each pCN node check, each structure
        # move's node draw, and the error-grid compose that ends an iteration
        spec = prior.StructurePriorSpec(
            space=structure.StructureSpace(input_dim=1, max_q=1, max_width=2),
            profile=rates.RateProfile(family=rates.STATIONARY), n=200, beta_grid=(1.0,))
        data = inference.generate_data(prior.sample_prior(spec, 1), n=200, seed=3,
                                       input_dim=1)
        check, fresh, compose = (inference.in_conditioning_set, inference._fresh_state,
                                 inference.compose)
        events = []

        def checking(path, beta, K):
            result = check(path, beta, K)
            events.append(("check", result[0]))
            return result

        def drawing(eta, spec, rng):
            # after the start, structure moves 1, 4, 7, ... run out
            starting = not any(e == "design" for e, _ in events)
            draws = sum(e == "draw" for e, _ in events)
            nodes = fresh(eta, spec, rng) if starting or draws % 3 else None
            events.append(("start", eta) if starting else ("draw", nodes is None))
            return nodes

        def composing(layers, points, cache=None):
            fv = compose(layers, points, cache)
            events.append(("design", layers) if points is data.X else ("end", None))
            return fv

        monkeypatch.setattr(inference, "in_conditioning_set", checking)
        monkeypatch.setattr(inference, "_fresh_state", drawing)
        monkeypatch.setattr(inference, "compose", composing)
        cfg = inference.PosteriorConfig(iterations=120, pcn_step=0.98,
                                        structure_move_prob=0.3, seed=3)
        trace = inference.run_mcmc(data, spec, cfg)

        first = next(i for i, (e, _) in enumerate(events) if e == "design")
        (layer,) = events[first][1]  # a one-layer start: its log-likelihood is the quadratic form
        design = funcspace.design_statistics(layer, data.X, data.Y)
        prev = (trace.structures.index(events[first - 1][1]),
                funcspace.quadratic_loglik(design, layer.components[0][0].values))
        want = dict.fromkeys(trace.moves, 0)
        iteration = []
        for e, note in events[first + 1:]:
            if e != "end":
                iteration.append((e, note))
                continue
            t = sum(want.values())
            draws = [exhausted for e, exhausted in iteration if e == "draw"]
            now = (trace.structure_idx[t], trace.log_lik[t])
            if draws:
                outcome = "exhausted" if draws[0] else "accepted" if now != prev else "rejected"
                want["structure", outcome] += 1
            else:
                left = any(not ok for e, ok in iteration if e == "check")
                outcome = "left_set" if left else "accepted" if now != prev else "rejected"
                want["pcn", outcome] += 1
            prev, iteration = now, []
        assert trace.moves == want
        assert sum(trace.moves.values()) == cfg.iterations
        assert all(count > 0 for count in want.values())  # every outcome happened

    def test_five_dimensional_error_grid(self, monkeypatch):
        # the L2-error grid stays within 17^3 points: 5 per axis at d = 5, not 17
        sizes = []

        def recording(r, m):
            sizes.append(m**r)
            return funcspace.grid_points(r, m)

        monkeypatch.setattr(inference, "grid_points", recording)
        spec = q0_spec(space=structure.StructureSpace(input_dim=5, max_q=0, max_width=1))
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0, input_dim=5)
        trace = inference.run_mcmc(data, spec, inference.PosteriorConfig(iterations=2))
        assert sizes == [5**5]
        assert np.all(np.isfinite(trace.l2_error))


def accepted(trace):
    return trace.moves["pcn", "accepted"] + trace.moves["structure", "accepted"]


def proposed(trace):
    """The proposals that reached the Metropolis test: neither left_set nor exhausted."""
    return sum(c for (_, outcome), c in trace.moves.items()
               if outcome in ("accepted", "rejected"))


class TestLikelihood:
    # a chain reads its log-likelihood off design statistics built on each
    # structure's first proposal.  Layers are built for those composes and for
    # each kept state.
    def record(self, monkeypatch, data):
        """The structures build_layers runs for, and the layers the design composes."""
        built, design = [], []
        build, compose = inference.build_layers, inference.compose

        def building(eta, nodes):
            built.append(eta)
            return build(eta, nodes)

        def composing(layers, points, cache=None):
            if points is data.X:
                design.append(layers)
            return compose(layers, points, cache)

        monkeypatch.setattr(inference, "build_layers", building)
        monkeypatch.setattr(inference, "compose", composing)
        return built, design

    def test_one_layer_chain_composes_the_design_once_per_structure(self, monkeypatch):
        # a 2-D q = 0 space: the prior's mass lies on the two one-coordinate structures
        spec = q0_spec(space=structure.StructureSpace(input_dim=2, max_q=0, max_width=1),
                       beta_grid=(0.5, 1.0))
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=200, seed=0, input_dim=2)
        built, design = self.record(monkeypatch, data)
        cfg = inference.PosteriorConfig(iterations=200, structure_move_prob=0.5, seed=1)
        trace = inference.run_mcmc(data, spec, cfg)
        assert len(design) == len(set(built)) == 2
        # each structure's first proposal, the start and each accepted move
        assert len(built) == len(design) + 1 + accepted(trace)
        assert proposed(trace) > 100 > accepted(trace) > 0
        assert len(set(trace.structure_idx)) == 2  # the chain moved between the two

    def test_only_the_error_grid_is_composed_with_a_cache(self, monkeypatch):
        # the design is composed once per structure, with no dict; the error
        # grid in one dict for the whole chain, which holds its last result alone
        spec = q0_spec(space=structure.StructureSpace(input_dim=2, max_q=0, max_width=1))
        data = inference.generate_data(lambda x: 0.5 * x[:, 0], n=200, seed=0, input_dim=2)
        compose, design, grid = inference.compose, [], []

        def composing(layers, points, cache=None):
            (design if points is data.X else grid).append(cache)
            return compose(layers, points, cache)

        monkeypatch.setattr(inference, "compose", composing)
        cfg = inference.PosteriorConfig(iterations=100, structure_move_prob=0.3, seed=1)
        inference.run_mcmc(data, spec, cfg)
        assert design and all(cache is None for cache in design)
        assert len(grid) == cfg.iterations and isinstance(grid[0], dict)
        assert all(cache is grid[0] for cache in grid)
        assert len(grid[0]) == 1


class TestModelMass:
    def test_single_structure_full_mass(self):
        spec = q0_spec(n=100)
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0, input_dim=1)
        cfg = inference.PosteriorConfig(iterations=50, seed=0)
        trace = inference.run_mcmc(data, spec, cfg)
        eta = trace.structures[0]
        assert inference.model_mass(trace, spec, eta, C=1.0) == 1.0

    def test_tight_constant_excludes_slower_structures(self):
        spec = q0_spec(n=100, beta_grid=(0.6, 1.0))
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0, input_dim=1)
        cfg = inference.PosteriorConfig(iterations=200, seed=0,
                                        structure_move_prob=0.3)
        trace = inference.run_mcmc(data, spec, cfg)
        best = min(trace.structures,
                   key=lambda e: rates.eps_structure(e, spec.profile, spec.n))
        mass = inference.model_mass(trace, spec, best, C=1.0)
        idx = trace.post_burn(trace.structure_idx)
        frac_best = np.mean([trace.structures[k] == best for k in idx])
        np.testing.assert_allclose(mass, frac_best)


    def test_checks_only_the_visited_structures(self, monkeypatch):
        # a 2-D q = 0 space enumerates six structures; the chain visits the two
        # one-coordinate ones at beta 1, and only those (and eta*) are checked
        spec = q0_spec(n=100, space=structure.StructureSpace(input_dim=2, max_q=0, max_width=1),
                       beta_grid=(0.6, 1.0))
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0, input_dim=2)
        cfg = inference.PosteriorConfig(iterations=200, seed=1, structure_move_prob=0.5)
        trace = inference.run_mcmc(data, spec, cfg)
        idx = trace.post_burn(trace.structure_idx)
        visited = {trace.structures[k] for k in idx}
        eta_star = trace.structures[idx[0]]
        eps, calls = rates.eps_structure, []

        def counting(eta, profile, n):
            calls.append(eta)
            return eps(eta, profile, n)

        monkeypatch.setattr(inference, "eps_structure", counting)
        mass = inference.model_mass(trace, spec, eta_star, C=1.0)
        assert calls[0] == eta_star
        assert len(calls) - 1 == len(set(calls[1:])) == len(visited) == 2
        assert set(calls[1:]) == visited
        assert len(trace.structures) == 6
        # the mass checking every structure gives
        star = eps(eta_star, spec.profile, spec.n)
        good = [eps(eta, spec.profile, spec.n) <= star * (1 + 1e-12) for eta in trace.structures]
        assert mass == float(np.mean([good[k] for k in idx]))


class TestContractionCurve:
    def test_rows_and_monotone_rate_columns(self):
        spec = q0_spec(n=100)
        eta = structure.CompositionStructure(
            graph=structure.CompositionGraph(1, [[(1,)]]),
            betas=(1.0,), bounds=spec.space.beta_bounds)
        cfg = inference.PosteriorConfig(iterations=120, pcn_step=0.9,
                                        structure_move_prob=0.0, seed=0)
        rows = [row for row, _, _ in inference.contraction_runs(
            lambda x: 0.0 * x[:, 0], eta, spec, cfg, n_list=(100, 400))]
        assert [r[0] for r in rows] == [100, 400]
        assert rows[1][3] < rows[0][3]  # minimax rate decreases in n

    def test_each_n_is_checked_by_the_spec(self):
        # each n's spec is rebuilt by its constructor, which checks it again, so
        # n = 2 is refused before its data are drawn (the rates refuse it later)
        spec = q0_spec(n=100)
        eta = structure.CompositionStructure(
            graph=structure.CompositionGraph(1, [[(1,)]]),
            betas=(1.0,), bounds=spec.space.beta_bounds)
        cfg = inference.PosteriorConfig(iterations=10, seed=0)
        evaluated = []

        def truth(x):
            evaluated.append(len(x))
            return 0.0 * x[:, 0]

        with pytest.raises(ValidationError, match="^n must be >= 3$"):
            next(inference.contraction_runs(truth, eta, spec, cfg, n_list=[2, 100]))
        assert evaluated == []

    def test_unsorted_n_rejected(self):
        spec = q0_spec(n=100)
        eta = structure.CompositionStructure(
            graph=structure.CompositionGraph(1, [[(1,)]]),
            betas=(1.0,), bounds=spec.space.beta_bounds)
        cfg = inference.PosteriorConfig(iterations=10, seed=0)
        for n_list in ((400, 100), (200, 200)):  # a repeated n reruns one chain
            with pytest.raises(ValidationError, match="strictly increasing"):
                next(inference.contraction_runs(lambda x: 0.0 * x[:, 0], eta, spec,
                                                cfg, n_list=n_list))
