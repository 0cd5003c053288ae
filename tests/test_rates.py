import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepgp_lab import rates, structure, verify
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

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            rates.alpha_exponents(())

    def test_nan_passes(self):
        a = rates.alpha_exponents((0.5, math.nan, 0.8))
        assert math.isnan(a[0]) and a[1:] == (0.8, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0, exclude_min=True), min_size=1, max_size=6))
    def test_bits_of_the_reverse_cumulative_product(self, betas):
        # the array form alpha_exponents replaced: a reverse np.cumprod of min(beta, 1)
        rev = np.cumprod(np.minimum(np.asarray(betas, dtype=float), 1.0)[::-1])[::-1]
        expected = np.append(rev[1:], 1.0)
        a = rates.alpha_exponents(betas)
        assert type(a) is tuple and all(type(x) is float for x in a)
        assert np.array(a).tobytes() == expected.tobytes()

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


def four_method_constants(profile, beta, r):
    """((c1', c2'), (c1, c2)) by the four methods RateProfile had before
    base_constants and constants, as they were written: the reference for
    their bits."""
    p = profile

    def c1_prime():
        if p.family == rates.WAVELET:
            geom = (2.0**beta + 1.0) ** 2 / (2.0**beta - 1.0)
            jfac = (1.0 / (math.log(2.0) * (2 * beta + r)) + 1.0 / (2 * math.log(3.0))) ** 1.5
            val = p.besov_radius * geom * math.sqrt(r * 2.0**r) * 2.0 ** (beta / 2) * jfac
        elif p.family == rates.FBM:
            c = 2.0 / math.sqrt(2.0 * math.pi)
            c_z = beta / (c ** (r / beta) * r) + 0.5
            val = p.fbm_small_ball + c_z + p.fbm_rkhs
        else:
            val = p.spectral_c + p.spectral_d
        return max(1.0, val)

    def c2_prime():
        if p.family == rates.WAVELET:
            return 1.5
        if p.family == rates.FBM:
            return 0.0
        return (1.0 + r) * beta / (2.0 * beta + r)

    def c1():
        Q1 = rates.entropy_constant_Q1(beta, r, p.holder_radius)
        floor_const = Q1 ** (beta / (2 * beta + r))
        if p.family == rates.FBM:
            return max(c1_prime(), floor_const)
        c1p, c2p = c1_prime(), c2_prime()
        return max(c1p**2 * (2 * beta + 1) ** (2 * c2p), floor_const)

    def c2():
        if p.family == rates.FBM:
            return 0.0
        return c2_prime() * (2 * beta + 2)

    return (c1_prime(), c2_prime()), (c1(), c2())


@st.composite
def family_beta(draw):
    """A family and a beta across its range: (0, 1) for fbm, the default
    structure bounds (0.1, 10) otherwise."""
    family = draw(st.sampled_from(rates.FAMILIES))
    return family, draw(st.floats(0.05, 0.95) if family == rates.FBM else st.floats(0.1, 10.0))


class TestConstants:
    @settings(max_examples=400, deadline=None)
    @given(family_beta(), st.integers(1, 4),
           st.tuples(*[st.floats(0.1, 2.0)] * 2, *[st.floats(0.1, 10.0)] * 4))
    def test_bits_of_the_four_methods(self, fam_beta, r, radii):
        (family, beta), names = fam_beta, ("holder_radius", "besov_radius", "spectral_c",
                                           "spectral_d", "fbm_small_ball", "fbm_rkhs")
        profile = rates.RateProfile(family=family, **dict(zip(names, radii)))
        def bits(pairs):
            return [[x.hex() for x in pair] for pair in pairs]

        got = (profile.base_constants(beta, r), profile.constants(beta, r))
        assert bits(got) == bits(four_method_constants(profile, beta, r))

    def test_ctilde_reads_each_grid_point_once(self, monkeypatch):
        seen = []
        constants = rates.RateProfile.constants

        def counted(self, beta, r):
            seen.append((beta, r))
            return constants(self, beta, r)

        monkeypatch.setattr(rates.RateProfile, "constants", counted)
        rates._ctilde.__wrapped__(rates.RateProfile(family=rates.STATIONARY), (0.5, 1.5), (1, 2))
        assert len(seen) == len(set(seen)) == 2 * rates._CTILDE_GRID


class TestFloorCheck:
    def test_passes(self):
        assert verify.check_floor() == (
            "entropy-floor", True, "eps_alpha always dominates the entropy floor")

    def test_eps_alpha_without_its_floor_fails_naming_the_case(self, monkeypatch):
        calls = []

        def unfloored(profile, alpha, beta, r, n):
            # eps_alpha's solution for alpha < 1 with the entropy floor taken out
            # of both places it enters: the lifted constant c1 and the result
            c1p, c2p = profile.base_constants(beta, r)
            c1 = c1p if profile.family == rates.FBM else c1p**2 * (2 * beta + 1) ** (2 * c2p)
            val = (c1 * math.log(n) ** profile.constants(beta, r)[1]
                   * float(n) ** (-rates.rate_exponent(beta, alpha, r)))
            calls.append((profile.family, alpha, beta, r, n, val))
            return val

        monkeypatch.setattr(rates, "eps_alpha", unfloored)
        name, ok, detail = verify.check_floor()
        assert not ok
        # the check stops at its first violation, the last call
        fam, alpha, beta, r, n, val = calls[-1]
        floor = rates.entropy_constant_Q1(beta, r, 1.0) ** (beta / (2 * beta + r)) \
            * n ** (-rates.rate_exponent(beta, alpha, r))
        assert val < floor
        assert detail == (f"{fam} beta={beta!r} alpha={alpha!r} r={r} n={n}: "
                          f"eps_alpha {val!r} below the floor {floor!r}")


    def test_eps_alpha_without_its_final_max_fails(self, monkeypatch):
        # eps_alpha with only its final max(., floor) dropped: for alpha < 1 the
        # lifted constant c1 keeps the floor, so only the wavelet alpha = 1
        # branch, _wavelet_base, can fall below it
        def unmaxed(profile, alpha, beta, r, n):
            if profile.family == rates.WAVELET and alpha == 1.0:
                return rates._wavelet_base(profile, beta, r, n)
            c1, c2 = profile.constants(beta, r)
            return c1 * math.log(n) ** c2 * float(n) ** (-rates.rate_exponent(beta, alpha, r))

        monkeypatch.setattr(rates, "eps_alpha", unmaxed)
        name, ok, detail = verify.check_floor()
        assert (name, ok) == ("entropy-floor", False)
        assert detail.startswith(f"{rates.WAVELET} beta=") and " alpha=1.0 " in detail


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


class TestCheckFinite:
    @pytest.mark.parametrize("fields, named", [
        # no field alone makes it finite: every field off its default is named
        (dict(family=rates.STATIONARY, spectral_c=1e300, spectral_d=1e300, holder_radius=2.0),
         "profile.holder_radius = 2.0, profile.spectral_c = 1e+300, "
         "profile.spectral_d = 1e+300"),
        (dict(family=rates.WAVELET, holder_radius=1e300, besov_radius=3.0, spectral_d=2.0),
         "profile.holder_radius = 1e+300"),
        (dict(family=rates.FBM, fbm_small_ball=1e200, fbm_rkhs=2.0, spectral_c=5.0),
         "profile.fbm_small_ball = 1e+200"),
    ], ids=["together", "wavelet", "fbm"])
    def test_blame_names_the_fields(self, fields, named):
        # each field is reset to its default in a profile the constructor rebuilds
        profile = rates.RateProfile(**fields)
        with pytest.raises(ValidationError) as info:
            rates.check_finite(profile, lambda p: rates.penalty_bound(p, (0.5, 1.0), (1, 2), 100),
                               "the penalty")
        assert str(info.value) == f"the penalty overflows double precision with {named}"
