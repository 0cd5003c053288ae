import math

import numpy as np
import pytest

from deepgp_lab import funcspace, inference, prior, rates, structure
from deepgp_lab.errors import ValidationError


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


class TestGenerateData:
    def test_shapes_and_design_range(self):
        data = inference.generate_data(lambda x: 0.5 * x[:, 0], n=500, seed=0)
        assert data.X.shape == (500, 1)
        assert np.max(np.abs(data.X)) <= 1.0

    def test_noise_moments(self):
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=20000, seed=1)
        assert abs(data.Y.mean()) < 0.03
        assert abs(data.Y.var() - 1.0) < 0.05

    def test_determinism(self):
        a = inference.generate_data(lambda x: 0.5 * x[:, 0], n=50, seed=3)
        b = inference.generate_data(lambda x: 0.5 * x[:, 0], n=50, seed=3)
        np.testing.assert_array_equal(a.Y, b.Y)

    def test_out_of_ball_truth_rejected(self):
        with pytest.raises(ValidationError):
            inference.generate_data(lambda x: 2.0 + 0 * x[:, 0], n=50, seed=0)


class TestLogLikelihoodRatio:
    def data(self):
        return inference.generate_data(lambda x: 0.5 * x[:, 0], n=200, seed=5)

    def test_identity_zero(self):
        d = self.data()
        assert inference.log_likelihood_ratio(d.f_star, d.f_star, d) == 0.0

    def test_chain_rule(self):
        d = self.data()
        f = lambda x: 0.3 * x[:, 0]
        g = lambda x: -0.2 * x[:, 0] ** 2
        h = lambda x: 0.1 + 0 * x[:, 0]
        lfg = inference.log_likelihood_ratio(f, g, d)
        lgh = inference.log_likelihood_ratio(g, h, d)
        lfh = inference.log_likelihood_ratio(f, h, d)
        np.testing.assert_allclose(lfh, lfg + lgh, rtol=1e-10)

    def test_antisymmetry(self):
        d = self.data()
        f = lambda x: 0.3 * x[:, 0]
        g = lambda x: -0.2 * x[:, 0] ** 2
        np.testing.assert_allclose(inference.log_likelihood_ratio(f, g, d),
                                   -inference.log_likelihood_ratio(g, f, d),
                                   rtol=1e-10)

    def test_noiseless_reduces_to_half_l2(self):
        # with Y = f*(X) exactly, the ratio is -1/2 sum (f - f*)^2
        X = np.linspace(-1, 1, 100)[:, None]
        fstar = lambda x: 0.5 * x[:, 0]
        d = inference.RegressionSample(X=X, Y=fstar(X))
        f = lambda x: 0.2 * x[:, 0]
        expected = -0.5 * np.sum((f(X) - fstar(X)) ** 2)
        np.testing.assert_allclose(inference.log_likelihood_ratio(f, fstar, d),
                                   expected, rtol=1e-12)


class TestInformationGeometry:
    def test_constant_shift_closed_form(self):
        # f - g = c everywhere: KL = c^2, V2 = c^2 + c^4/4, d_H = 1 - e^{-c^2/8}
        pts, w = uniform_quad()
        c = 0.37
        f = lambda x: np.full(len(x), c)
        g = lambda x: np.zeros(len(x))
        kl, v2, hell = inference.kl_v2_hellinger(f, g, pts, w)
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
            kl, _, hell = inference.kl_v2_hellinger(f, g, pts, w)
            assert hell <= kl / 8 + 1e-15
            assert hell >= math.exp(-q * q / 2) / 8 * kl - 1e-15

    def test_zero_distance(self):
        pts, w = uniform_quad(51)
        f = lambda x: 0.3 * x[:, 0]
        kl, v2, hell = inference.kl_v2_hellinger(f, f, pts, w)
        assert kl == v2 == hell == 0.0

    def test_bad_weights_rejected(self):
        pts, _ = uniform_quad(11)
        with pytest.raises(ValidationError):
            inference.kl_v2_hellinger(lambda x: x[:, 0], lambda x: x[:, 0],
                                      pts, np.full(11, 0.5))


class TestMcmc:
    def test_pcn_near_one_accepts(self):
        # rho -> 1 means near-identical proposals; acceptance should be high
        spec = q0_spec(n=100)
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0)
        cfg = inference.PosteriorConfig(iterations=300, pcn_step=0.995,
                                        structure_move_prob=0.0, seed=1)
        trace = inference.run_mcmc(data, spec, cfg)
        assert trace.pcn_acceptance > 0.9

    def test_shrinkage_vs_prior(self):
        # the posterior given data from f* = 0 concentrates: post-burn-in sup
        # norm is smaller on average than under the prior alone
        spec = q0_spec(n=400)
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=400, seed=2)
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
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0)
        cfg = inference.PosteriorConfig(iterations=100, pcn_step=0.8, seed=4)
        a = inference.run_mcmc(data, spec, cfg)
        b = inference.run_mcmc(data, spec, cfg)
        np.testing.assert_array_equal(a.log_lik, b.log_lik)
        np.testing.assert_array_equal(a.structure_idx, b.structure_idx)

    def test_trace_lengths_and_burn(self):
        spec = q0_spec(n=100)
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0)
        cfg = inference.PosteriorConfig(iterations=80, burn_in=0.25, seed=0)
        trace = inference.run_mcmc(data, spec, cfg)
        assert len(trace.log_lik) == 80
        assert trace.burn == 20
        assert len(trace.post_burn(trace.l2_error)) == 60

    def test_exhausted_structure_moves_are_counted(self, monkeypatch):
        # after the chain's first state every node draw runs out of its budget,
        # so every structure move is rejected, and counted
        real, calls = prior.sample_conditioned, []

        def exhausting(spec, K, draw, max_attempts=1000):
            calls.append(K)
            if len(calls) > 1:  # q0_spec's one node: call 1 is the first state
                K, max_attempts = -1.0, 3
            return real(spec, K, draw, max_attempts)

        monkeypatch.setattr(prior, "sample_conditioned", exhausting)
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0)
        cfg = inference.PosteriorConfig(iterations=60, structure_move_prob=0.5, seed=4)
        trace = inference.run_mcmc(data, q0_spec(n=100), cfg)
        assert trace.structure_exhausted == len(calls) - 1 > 10
        assert trace.structure_acceptance == 0.0

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


class TestModelMass:
    def test_single_structure_full_mass(self):
        spec = q0_spec(n=100)
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0)
        cfg = inference.PosteriorConfig(iterations=50, seed=0)
        trace = inference.run_mcmc(data, spec, cfg)
        eta = trace.structures[0]
        assert inference.model_mass(trace, spec, eta, C=1.0) == 1.0

    def test_tight_constant_excludes_slower_structures(self):
        spec = q0_spec(n=100, beta_grid=(0.6, 1.0))
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=100, seed=0)
        cfg = inference.PosteriorConfig(iterations=200, seed=0,
                                        structure_move_prob=0.3)
        trace = inference.run_mcmc(data, spec, cfg)
        best = min(trace.structures,
                   key=lambda e: rates.eps_structure(e, spec.profile, spec.n))
        mass = inference.model_mass(trace, spec, best, C=1.0)
        idx = trace.post_burn(trace.structure_idx)
        frac_best = np.mean([trace.structures[k] == best for k in idx])
        np.testing.assert_allclose(mass, frac_best)

    def test_cap_enabled_excludes_everything_at_small_n(self):
        # log(2 log 20) ~ 1.79 < 2 nodes, so the cap empties the good set
        spec = q0_spec(n=20)
        data = inference.generate_data(lambda x: 0.0 * x[:, 0], n=20, seed=0)
        cfg = inference.PosteriorConfig(iterations=50, seed=0)
        trace = inference.run_mcmc(data, spec, cfg)
        eta = trace.structures[0]
        assert inference.model_mass(trace, spec, eta, C=10.0, cap_enabled=True) == 0.0


class TestContractionCurve:
    def test_rows_and_monotone_rate_columns(self):
        spec = q0_spec(n=100)
        eta = structure.CompositionStructure(
            graph=structure.make_graph(0, (1, 1), [[(1,)]]),
            betas=(1.0,), bounds=spec.space.beta_bounds)
        cfg = inference.PosteriorConfig(iterations=120, pcn_step=0.9,
                                        structure_move_prob=0.0, seed=0)
        rows = [row for row, _, _ in inference.contraction_runs(
            lambda x: 0.0 * x[:, 0], eta, spec, cfg, n_list=(100, 400))]
        assert [r[0] for r in rows] == [100, 400]
        assert rows[1][3] < rows[0][3]  # minimax rate decreases in n

    def test_unsorted_n_rejected(self):
        spec = q0_spec(n=100)
        eta = structure.CompositionStructure(
            graph=structure.make_graph(0, (1, 1), [[(1,)]]),
            betas=(1.0,), bounds=spec.space.beta_bounds)
        cfg = inference.PosteriorConfig(iterations=10, seed=0)
        with pytest.raises(ValidationError):
            next(inference.contraction_runs(lambda x: 0.0 * x[:, 0], eta, spec,
                                            cfg, n_list=(400, 100)))
