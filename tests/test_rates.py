import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepgp_lab import rates, structure
from deepgp_lab.errors import ValidationError
from reference import smallest_solution_m


def chain_structure(betas, t=1, bounds=(0.2, 2.0)):
    q = len(betas) - 1
    dims = (t,) + (t,) * q + (1,)
    sets = []
    full = tuple(range(1, t + 1))
    for i in range(q + 1):
        sets.append([full] * dims[i + 1])
    g = structure.CompositionGraph(t, sets)
    return structure.CompositionStructure(graph=g, betas=tuple(betas), bounds=bounds)


class TestAlphaExponents:
    def test_two_layers(self):
        np.testing.assert_allclose(rates.alpha_exponents((2.0, 0.5)), (0.5, 1.0))

    def test_single_layer(self):
        np.testing.assert_allclose(rates.alpha_exponents((0.5,)), (1.0,))

    def test_three_layers(self):
        np.testing.assert_allclose(rates.alpha_exponents((0.5, 0.8, 0.5)),
                                   (0.4, 0.5, 1.0))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            rates.alpha_exponents((1.0, 0.0))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.1, 3.0), min_size=2, max_size=5))
    def test_recursion(self, betas):
        a = rates.alpha_exponents(betas)
        for i in range(len(betas) - 1):
            np.testing.assert_allclose(a[i], a[i + 1] * min(betas[i + 1], 1.0),
                                       rtol=1e-12)


class TestMinimaxRate:
    def test_cube_root(self):
        eta = chain_structure((1.0,))
        res = rates.minimax_rate(eta, 10**6)
        np.testing.assert_allclose(res.value, 1e-2, rtol=1e-12)

    def test_two_layer_argmax(self):
        eta = chain_structure((0.5, 0.5))
        res = rates.minimax_rate(eta, 10**6)
        # layer-0 exponent 0.25/1.5 = 1/6 loses to layer-1's 0.5/2
        np.testing.assert_allclose(res.value, 1e-1, rtol=1e-12)
        assert res.argmax_layers == (0,)

    def test_reduction_preserves_rate(self):
        eta = chain_structure((0.5, 0.5))
        red = structure.reduce_redundant(eta)
        np.testing.assert_allclose(rates.minimax_rate(eta, 10**6).value,
                                   rates.minimax_rate(red, 10**6).value, rtol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.2, 2.0), min_size=1, max_size=3),
           st.floats(0.0, 0.5))
    def test_monotone_in_beta(self, betas, bump):
        # the exponent map x -> x/(2x+t) is increasing, so larger betas
        # can only shrink the rate
        lo = chain_structure(betas)
        hi = chain_structure([b + bump for b in betas], bounds=(0.2, 2.5))
        assert rates.minimax_rate(hi, 10**4).value <= \
            rates.minimax_rate(lo, 10**4).value * (1 + 1e-12)


class TestEntropyConstant:
    def test_reference_value(self):
        expected = (1 + math.e) * 16 * 16 * 1 * 8 * math.e
        np.testing.assert_allclose(rates.entropy_constant_Q1(1, 1, 1), expected,
                                   rtol=1e-14)
        assert abs(rates.entropy_constant_Q1(1, 1, 1) - 2.07e4) < 100

    def test_decreasing_in_beta_here(self):
        assert rates.entropy_constant_Q1(2, 1, 1) < rates.entropy_constant_Q1(1, 1, 1)

    def test_increasing_in_radius(self):
        assert rates.entropy_constant_Q1(1, 1, 2) > rates.entropy_constant_Q1(1, 1, 1)


class TestWaveletResolution:
    def test_examples(self):
        assert rates.wavelet_resolution(1024, 1.0, 1) == 3
        assert rates.wavelet_resolution(1024, 0.5, 1) == 5
        assert rates.wavelet_resolution(2, 5.0, 1) == 1  # clamp


class TestEpsAlpha:
    def test_wavelet_base_value(self):
        profile = rates.RateProfile(family=rates.WAVELET)
        val = rates.eps_alpha(profile, 1.0, 1.0, 1, 1024)
        np.testing.assert_allclose(val, 9 * math.sqrt(2) * 3**1.5 / 8, rtol=1e-12)

    def test_fbm_power_law(self):
        profile = rates.RateProfile(family=rates.FBM)
        v1 = rates.eps_alpha(profile, 1.0, 0.5, 1, 10**6)
        v2 = rates.eps_alpha(profile, 1.0, 0.5, 1, 10**4)
        # pure n^{-1/4} scaling, no log factor
        np.testing.assert_allclose(v1 / v2, (10**6 / 10**4) ** -0.25, rtol=1e-12)

    def test_floor_activation(self):
        # a profile with tiny constants still returns at least the entropy floor
        profile = rates.RateProfile(family=rates.FBM, fbm_small_ball=1e-9,
                                    fbm_rkhs=1e-9)
        n, beta, r, alpha = 10**4, 0.5, 1, 0.8
        floor = rates.entropy_constant_Q1(beta, r, 1.0) ** (beta / (2 * beta + r)) \
            * n ** (-rates.rate_exponent(beta, alpha, r))
        assert rates.eps_alpha(profile, alpha, beta, r, n) >= floor * (1 - 1e-12)

    def test_small_n_rejected(self):
        profile = rates.RateProfile(family=rates.WAVELET)
        with pytest.raises(ValidationError):
            rates.eps_alpha(profile, 1.0, 1.0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([rates.WAVELET, rates.FBM, rates.STATIONARY]),
           st.floats(0.2, 1.0), st.floats(0.3, 0.9), st.integers(1, 3),
           st.integers(10, 10**6))
    def test_floor_everywhere(self, family, alpha, beta, r, n):
        profile = rates.RateProfile(family=family)
        floor = rates.entropy_constant_Q1(beta, r, 1.0) ** (beta / (2 * beta + r)) \
            * n ** (-rates.rate_exponent(beta, alpha, r))
        assert rates.eps_alpha(profile, alpha, beta, r, n) >= floor * (1 - 1e-12)


class TestSmallestSolution:
    def test_minimal_lift_dominated(self):
        # the closed-form alpha-level solution dominates the substitution
        # construction eps_{m_n}(1)^alpha for every alpha on the grid
        profile = rates.RateProfile(family=rates.WAVELET)
        for alpha in (0.25, 0.5, 0.75, 1.0):
            for n in (10**3, 10**5):
                m = smallest_solution_m(profile, alpha, 1.0, 1, n)
                assert m * rates.eps_alpha(profile, 1.0, 1.0, 1, m) ** (2 - 2 * alpha) <= n
                lift = rates.eps_alpha(profile, 1.0, 1.0, 1, m) ** alpha
                assert rates.eps_alpha(profile, alpha, 1.0, 1, n) >= lift * (1 - 1e-12)


class TestEpsStructure:
    def test_dominates_layer_solutions(self):
        profile = rates.RateProfile(family=rates.WAVELET)
        eta = chain_structure((0.5, 0.8), bounds=(0.4, 1.0))
        val = rates.eps_structure(eta, profile, 10**4)
        alphas = rates.alpha_exponents(eta.betas)
        per_layer = max(
            rates.eps_alpha(profile, float(a), float(b), 1, 10**4)
            for a, b in zip(alphas, eta.betas))
        assert val >= per_layer

    def test_rate_comparison_sandwich(self):
        # beta' <= beta <= beta' + 1/log^2 n implies the two structure rates
        # are within a factor e^{beta_plus} of each other
        profile = rates.RateProfile(family=rates.WAVELET)
        rng = np.random.default_rng(42)
        n = 10**5
        delta = 1.0 / math.log(n) ** 2
        for _ in range(200):
            b_lo = rng.uniform(0.3, 1.9, size=2)
            b_hi = np.minimum(b_lo + rng.uniform(0, delta, size=2), 2.0)
            lo = chain_structure(tuple(b_lo))
            hi = chain_structure(tuple(b_hi))
            e_hi = rates.eps_structure(hi, profile, n)
            e_lo = rates.eps_structure(lo, profile, n)
            assert e_hi <= e_lo * (1 + 1e-12)
            assert e_lo <= math.exp(2.0) * e_hi * (1 + 1e-12)

    def test_monotone_in_n_without_log_factor(self):
        # the fBM family has no (log n)^C2 factor, so eps_n is strictly
        # decreasing over the whole desk-scale sweep
        profile = rates.RateProfile(family=rates.FBM)
        eta = chain_structure((0.5,), bounds=(0.3, 0.9))
        vals = [rates.eps_structure(eta, profile, n) for n in (10**3, 10**4, 10**5, 10**6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestPenalty:
    def test_two_node_penalty(self):
        profile = rates.RateProfile(family=rates.FBM)
        eta = chain_structure((0.5,), bounds=(0.3, 0.9))
        n = 1000
        eps = rates.eps_structure(eta, profile, n)
        lw = rates.psi_n(eta, profile, n)
        np.testing.assert_allclose(lw.log_value, -(n * eps**2 + math.exp(math.e**2)),
                                   rtol=1e-12)
        assert abs(math.exp(math.e**2) - 1618.178) < 0.01

    def test_large_structure_zero_weight(self):
        t = 4
        full = tuple(range(1, 5))
        g = structure.CompositionGraph(4, [[full] * 4, [full]])
        eta = structure.CompositionStructure(graph=g, betas=(0.5, 0.5),
                                             bounds=(0.3, 0.9))
        assert g.num_nodes == 9
        profile = rates.RateProfile(family=rates.FBM)
        assert rates.psi_n(eta, profile, 1000).log_value == -math.inf

    def test_equal_size_difference_is_exact(self):
        profile = rates.RateProfile(family=rates.FBM)
        n = 1000
        e1 = chain_structure((0.5,), bounds=(0.3, 0.9))
        e2 = chain_structure((0.8,), bounds=(0.3, 0.9))
        d = rates.psi_n(e1, profile, n).log_value - rates.psi_n(e2, profile, n).log_value
        eps1 = rates.eps_structure(e1, profile, n)
        eps2 = rates.eps_structure(e2, profile, n)
        np.testing.assert_allclose(d, -n * (eps1**2 - eps2**2), rtol=1e-10)


class TestLogWeight:
    def test_absorbing_minus_inf(self):
        assert math.exp(rates.LogWeight(-math.inf).log_value) == 0.0
        assert math.exp(rates.LogWeight(-1.0).log_value) > 0.0
