import math

import numpy as np
import pytest

from deepgp_lab import funcspace, gp, rates
from deepgp_lab.errors import ValidationError


def grid_fn(fn, m=257):
    xs = np.linspace(-1, 1, m)
    return funcspace.GridPath(axes=(xs,), values=fn(xs))


class TestHolderNorm:
    def test_linear_half(self):
        f = grid_fn(lambda x: x / 2)
        np.testing.assert_allclose(
            funcspace.holder_norm_empirical(f, 1.0, 257).value, 1.0, atol=1e-8)

    def test_zero(self):
        f = grid_fn(lambda x: 0 * x)
        assert funcspace.holder_norm_empirical(f, 1.0, 64).value == 0.0

    def test_quadratic(self):
        # 2*sup|x^2| + sup|2x - 2y| = 2 + 4
        f = grid_fn(lambda x: x**2)
        val = funcspace.holder_norm_empirical(f, 1.0, 257).value
        assert abs(val - 6.0) < 0.3

    def test_fractional_exponent(self):
        # |x|^{1/2} has Holder-1/2 quotient exactly 1 (attained at 0),
        # weighted by 2^{1/2}
        f = grid_fn(lambda x: np.sqrt(np.abs(x)))
        val = funcspace.holder_norm_empirical(f, 0.5, 257).value
        np.testing.assert_allclose(val, math.sqrt(2.0), rtol=0.05)

    def test_near_integer_warning(self):
        f = grid_fn(lambda x: x / 2)
        res = funcspace.holder_norm_empirical(f, 0.98, 64)
        assert res.warnings

    def test_nested_balls(self):
        # smaller exponent gives a ball at least as large: random polynomials
        # with norm <= K at beta keep norm <= K (up to grid noise) at beta' < beta
        rng = np.random.default_rng(42)
        for _ in range(20):
            coeffs = rng.uniform(-0.2, 0.2, size=3)
            f = grid_fn(lambda x: coeffs[0] + coeffs[1] * x + coeffs[2] * x**2)
            hi = funcspace.holder_norm_empirical(f, 1.0, 129).value
            lo = funcspace.holder_norm_empirical(f, 0.6, 129).value
            if hi <= 1.0:
                assert lo <= 1.0 * 1.01 + 0.05


class TestBesovNorm:
    def test_zero(self):
        p = funcspace.WaveletPath(r=1, levels=[np.zeros(2), np.zeros(4)])
        assert funcspace.besov_norm(p, 1.0) == 0.0

    def test_scale_cancellation(self):
        # coefficients of the truncated process reduce to max |Z|/sqrt(jr)
        rng = np.random.default_rng(42)
        beta, r = 0.7, 1
        zs = [rng.standard_normal(2**j) for j in (1, 2, 3)]
        levels = [2.0 ** (-j * (beta + r / 2)) / math.sqrt(j * r) * z
                  for j, z in zip((1, 2, 3), zs)]
        p = funcspace.WaveletPath(r=r, levels=levels)
        expected = max(np.max(np.abs(z)) / math.sqrt(j * r)
                       for j, z in zip((1, 2, 3), zs))
        np.testing.assert_allclose(funcspace.besov_norm(p, beta), expected, rtol=1e-12)

    def test_single_coefficient(self):
        levels = [np.zeros(2), np.array([0.1, 0, 0, 0])]
        p = funcspace.WaveletPath(r=1, levels=levels)
        np.testing.assert_allclose(funcspace.besov_norm(p, 1.0), 2**3 * 0.1,
                                   rtol=1e-12)


class TestConditioningSet:
    def spec(self, **kw):
        base = dict(beta=1.0, r=1, K=2.0, slack=0.5, mode="besov", grid_m=33)
        base.update(kw)
        return funcspace.ConditioningSpec(**base)

    def test_zero_path_accepted(self):
        p = funcspace.WaveletPath(r=1, levels=[np.zeros(2)])
        ok, diag = funcspace.in_conditioning_set(p, self.spec())
        assert ok and diag["sup"] == 0.0

    def test_constructed_interior_point(self):
        # besov norm K/2, sup well under 1
        p = funcspace.WaveletPath(r=1, levels=[np.array([2.0 ** -1.5, 0.0])])
        ok, diag = funcspace.in_conditioning_set(p, self.spec(K=2.0))
        assert ok
        np.testing.assert_allclose(diag["besov"], 1.0, rtol=1e-12)

    def test_sup_violation_margin(self):
        p = funcspace.WaveletPath(r=1, levels=[np.array([2.0 ** -1.5 * 1.2 / 0.3535533905932738, 0.0])])
        # scale a single hat so its peak is 1.2
        peak = float(np.max(np.abs(p(np.linspace(-1, 1, 65)[:, None]))))
        assert peak > 1.0
        ok, diag = funcspace.in_conditioning_set(
            p, self.spec(K=100.0, grid_m=65))
        assert not ok
        np.testing.assert_allclose(diag["sup_margin"], 1.0 - peak, rtol=1e-12)

    def test_mode_mismatch(self):
        xs = np.linspace(-1, 1, 33)
        g = funcspace.GridPath(axes=(xs,), values=np.zeros(33))
        with pytest.raises(ValidationError):
            funcspace.in_conditioning_set(g, self.spec(mode="besov"))


class TestCompose:
    def identity_layer(self):
        # hat combination reproducing x on [-0.5, 0.5]: use grid path instead
        xs = np.linspace(-1, 1, 33)
        p = funcspace.GridPath(axes=(xs,), values=xs)
        return funcspace.LayerFunction([(p, (1,))], in_dim=1)

    def test_identity(self):
        layer = self.identity_layer()
        pts = np.array([[-1.0], [0.0], [1.0]])
        np.testing.assert_allclose(funcspace.compose([layer], pts), [-1, 0, 1],
                                   atol=1e-12)

    def test_two_layer_arithmetic(self):
        xs = np.linspace(-1, 1, 201)
        h0 = funcspace.LayerFunction([(funcspace.GridPath(axes=(xs,), values=xs / 2), (1,))], 1)
        h1 = funcspace.LayerFunction([(funcspace.GridPath(axes=(xs,), values=xs**2), (1,))], 1)
        out = funcspace.compose([h0, h1], np.array([[1.0]]))
        np.testing.assert_allclose(out, [0.25], atol=1e-4)

    def test_layer_clips_overshoot(self):
        # the path itself reaches +-1.5; the layer maps into [-1, 1]
        xs = np.linspace(-1, 1, 33)
        p = funcspace.GridPath(axes=(xs,), values=1.5 * xs)
        layer = funcspace.LayerFunction([(p, (1,))], in_dim=1)
        pts = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
        np.testing.assert_allclose(p(pts), [-1.5, -0.75, 0.0, 0.75, 1.5])
        np.testing.assert_allclose(layer(pts)[:, 0], [-1.0, -0.75, 0.0, 0.75, 1.0])

    def test_constant_propagation(self):
        c = 0.37
        xs = np.linspace(-1, 1, 17)
        def const_layer(d_in, d_out):
            comps = [(funcspace.GridPath(axes=(xs,) * 1, values=np.full(17, c)), (1,))
                     for _ in range(d_out)]
            return funcspace.LayerFunction(comps, in_dim=d_in)
        layers = [const_layer(5, 3), const_layer(3, 1)]
        pts = np.random.default_rng(1).uniform(-1, 1, size=(20, 5))
        np.testing.assert_allclose(funcspace.compose(layers, pts), np.full(20, c),
                                   atol=1e-12)

    def test_associativity_of_evaluation(self):
        xs = np.linspace(-1, 1, 65)
        rng = np.random.default_rng(7)
        layers = [
            funcspace.LayerFunction(
                [(funcspace.GridPath(axes=(xs,), values=rng.uniform(-1, 1, 65)), (1,))], 1)
            for _ in range(3)
        ]
        pts = rng.uniform(-1, 1, size=(50, 1))
        mid = layers[1](layers[0](pts))
        np.testing.assert_array_equal(layers[2](mid)[:, 0],
                                      funcspace.compose(layers, pts))


class TestCompositionGapBound:
    def test_single_layer_equality(self):
        xs = np.linspace(-1, 1, 201)
        h = funcspace.LayerFunction([(funcspace.GridPath(axes=(xs,), values=xs / 2), (1,))], 1)
        ht = funcspace.LayerFunction([(funcspace.GridPath(axes=(xs,), values=xs / 4), (1,))], 1)
        bound, gap = funcspace.composition_gap_bound([h], [ht], betas=(1.0,), K=1.0,
                                                     eta_slacks=(1e-12,))
        measured = gap(xs[:, None])
        np.testing.assert_allclose(bound, 0.25 + 1e-12, rtol=1e-9)
        np.testing.assert_allclose(measured, 0.25, rtol=1e-9)

    def test_identical_layers_zero_gap(self):
        xs = np.linspace(-1, 1, 65)
        h = funcspace.LayerFunction([(funcspace.GridPath(axes=(xs,), values=xs / 2), (1,))], 1)
        bound, gap = funcspace.composition_gap_bound([h], [h], betas=(1.0,), K=1.0,
                                                     eta_slacks=(0.5,))
        np.testing.assert_allclose(bound, 0.5, rtol=1e-12)
        assert gap(xs[:, None]) == 0.0

    def test_random_two_layer_instances(self):
        # smoothness-ball layers: bound must dominate the measured gap
        from deepgp_lab.verify import check_composition_bound
        name, ok, detail = check_composition_bound(trials=100, seed=3)
        assert ok, detail


class TestCoveringOracle:
    def test_unit_delta_small(self):
        n = funcspace.covering_number_oracle(1.0, 1, 1.0, 1.0, 4)
        assert 1 <= n <= 9

    def test_huge_delta_single_center(self):
        assert funcspace.covering_number_oracle(1.0, 1, 1.0, 4.1, 4) == 1

    def test_entropy_bound(self):
        q1 = rates.entropy_constant_Q1(1, 1, 1)
        for delta in (1.0, 0.5):
            n = funcspace.covering_number_oracle(1.0, 1, 1.0, delta, 4)
            assert math.log(max(n, 1)) <= q1 / delta

    def test_r2_rejected(self):
        with pytest.raises(ValidationError):
            funcspace.covering_number_oracle(1.0, 2, 1.0, 1.0, 4)


class TestSerialization:
    def test_wavelet_round_trip(self):
        p = gp.sample_path(gp.GpSpec(family=rates.WAVELET, beta=1.0, r=1,
                                     n=1024, seed=9))
        q = funcspace.path_from_dict(funcspace.path_to_dict(p))
        pts = np.linspace(-1, 1, 101)[:, None]
        np.testing.assert_array_equal(p(pts), q(pts))

    def test_grid_round_trip(self):
        p = gp.sample_path(gp.GpSpec(family=rates.FBM, beta=0.5, r=1, n=100,
                                     seed=9, grid=33))
        q = funcspace.path_from_dict(funcspace.path_to_dict(p))
        pts = np.linspace(-1, 1, 101)[:, None]
        np.testing.assert_allclose(p(pts), q(pts), rtol=1e-15, atol=1e-15)
