import itertools
import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from deepgp_lab import funcspace, gp, rates
from deepgp_lab.errors import ValidationError
from reference import covering_number_oracle, path_from_dict

BLOCK = funcspace._BLOCK  # points per gather pass


def grid_fn(fn, m=257):
    xs = np.linspace(-1, 1, m)
    return funcspace.GridPath(fn(xs))


class TestHolderNorm:
    def test_linear_half(self):
        f = grid_fn(lambda x: x / 2)
        np.testing.assert_allclose(
            funcspace.holder_norm_empirical(f, 1.0), 1.0, atol=1e-8)

    def test_zero(self):
        f = grid_fn(lambda x: 0 * x, m=64)
        assert funcspace.holder_norm_empirical(f, 1.0) == 0.0

    def test_quadratic(self):
        # 2*sup|x^2| + sup|2x - 2y| = 2 + 4
        f = grid_fn(lambda x: x**2)
        val = funcspace.holder_norm_empirical(f, 1.0)
        assert abs(val - 6.0) < 0.3

    def test_fractional_exponent(self):
        # |x|^{1/2} has Holder-1/2 quotient exactly 1 (attained at 0),
        # weighted by 2^{1/2}
        f = grid_fn(lambda x: np.sqrt(np.abs(x)))
        val = funcspace.holder_norm_empirical(f, 0.5)
        np.testing.assert_allclose(val, math.sqrt(2.0), rtol=0.05)

    def test_nested_balls(self):
        # smaller exponent gives a ball at least as large: random polynomials
        # with norm <= K at beta keep norm <= K (up to grid noise) at beta' < beta
        rng = np.random.default_rng(42)
        for _ in range(20):
            coeffs = rng.uniform(-0.2, 0.2, size=3)
            f = grid_fn(lambda x: coeffs[0] + coeffs[1] * x + coeffs[2] * x**2, m=129)
            hi = funcspace.holder_norm_empirical(f, 1.0)
            lo = funcspace.holder_norm_empirical(f, 0.6)
            if hi <= 1.0:
                assert lo <= 1.0 * 1.01 + 0.05


def pairwise_holder_norm(f, beta, m):
    """Reference for integer beta: each top quotient is the largest pairwise
    |difference| of a derivative, taken by the O(m^{2r}) _sup_quotient."""
    axis = np.linspace(-1, 1, m)
    pts = funcspace.grid_points(f.r, m)
    d = {(): f(pts).reshape((m,) * f.r)}  # derivative tensors by multi-index
    for order in range(1, int(beta) + 1):
        for a in itertools.combinations_with_replacement(range(f.r), order):
            d[a] = np.gradient(d[a[:-1]], axis[1] - axis[0], axis=a[-1], edge_order=2)
    low = sum(float(np.max(np.abs(g))) for a, g in d.items() if len(a) < beta)
    top = sum(funcspace._sup_quotient(pts, g.ravel(), 0.0)
              for a, g in d.items() if len(a) == beta)
    return 2.0 * f.r * low + top


class TestHolderNodes:
    def test_fewer_than_eight_nodes_refused(self):
        with pytest.raises(ValidationError, match="needs >= 8 nodes per axis"):
            funcspace.holder_norm_empirical(grid_fn(np.sin, m=7), 1.0)
        with pytest.raises(ValidationError, match=r"\(9, 7\)"):
            funcspace.holder_norm_empirical(funcspace.GridPath(np.zeros((9, 7))), 1.0)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_each_axis_has_its_own_spacing(self, beta):
        # the norm is symmetric in the axes, so a (17, 33) grid and its transpose
        # agree only when each derivative steps by its own axis's spacing
        x, y = np.linspace(-1, 1, 17), np.linspace(-1, 1, 33)
        values = np.sin(2 * x)[:, None] * np.cos(y**2)[None, :] / 2
        a = funcspace.holder_norm_empirical(funcspace.GridPath(values), beta)
        b = funcspace.holder_norm_empirical(funcspace.GridPath(values.T), beta)
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestIntegerHolderQuotient:
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    @pytest.mark.parametrize("r, m", [(1, 65), (1, 33), (2, 17)])
    def test_range_equals_pairwise_quotient(self, r, m, beta):
        rng = np.random.default_rng(10 * r + m)
        for _ in range(5):
            f = funcspace.GridPath(rng.standard_normal((m,) * r))
            assert funcspace.holder_norm_empirical(f, beta) == \
                pairwise_holder_norm(f, beta, m)


def adversarial_paths(shape):
    """The +-1 sawtooth (-1)^(i_1 + ... + i_r), and the edge pattern (-1, 1, -1, ...)
    along axis 0, on whose first node the one-sided stencil reaches 4/h."""
    parity = np.indices(shape).sum(axis=0) % 2
    edge = (np.arange(shape[0]) % 2 * 2.0 - 1.0).reshape((-1,) + (1,) * (len(shape) - 1))
    return [funcspace.GridPath(1.0 - 2.0 * parity),
            funcspace.GridPath(np.broadcast_to(edge, shape).copy())]


def within_ceiling(path, beta):
    """Whether the path's Holder norm is within the ceiling that lets
    in_conditioning_set skip it, slack included."""
    ceiling = funcspace._holder_ceiling(path.values.shape, beta) * (1.0 + funcspace._CEILING_SLACK)
    return funcspace.holder_norm_empirical(path, beta) <= ceiling


class TestHolderCeiling:
    @pytest.mark.parametrize("shape, beta, ceiling", [
        ((33,), 1.0, 130.0), ((33,), 0.5, 8 * math.sqrt(2.0)), ((33, 33), 1.0, 260.0)])
    def test_closed_form(self, shape, beta, ceiling):
        np.testing.assert_allclose(funcspace._holder_ceiling(shape, beta), ceiling, rtol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.lists(st.integers(8, 65), min_size=1, max_size=2).map(tuple),
           beta=st.one_of(st.sampled_from([0.5, 1.0, 2.0]),
                          st.floats(0.0, 2.0, exclude_min=True)),
           seed=st.integers(0, 2**32 - 1))
    def test_dominates_uniform_values(self, shape, beta, seed):
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
        assert within_ceiling(funcspace.GridPath(values), beta)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 0.3, 1.7])
    @pytest.mark.parametrize("shape", [(8,), (33,), (64,), (9, 17), (33, 33), (65, 8)])
    def test_dominates_adversarial_paths(self, shape, beta):
        assert all(within_ceiling(path, beta) for path in adversarial_paths(shape))

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_reached_on_an_odd_axis(self, beta):
        # both adversarial paths reach the ceiling, so it leaves nothing to spare
        for path in adversarial_paths((33,)):
            np.testing.assert_allclose(funcspace.holder_norm_empirical(path, beta),
                                       funcspace._holder_ceiling((33,), beta), rtol=1e-12)

    @pytest.mark.parametrize("shape", [(33,), (17, 33)])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_central_stencil_gain_is_no_ceiling(self, monkeypatch, shape, beta):
        # a mutant ceiling that takes the central stencil's gain 1/h for D_k fails
        # on the adversarial paths
        funcspace._holder_ceiling.cache_clear()
        monkeypatch.setattr(funcspace, "_EDGE_GAIN", 1.0)
        try:
            assert not all(within_ceiling(path, beta) for path in adversarial_paths(shape))
        finally:
            funcspace._holder_ceiling.cache_clear()


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


def _axis_hats(j, x):
    """Values of all 2^j level-j hats along one axis, shape (m, 2^j)."""
    centers = -1.0 + (2.0 * np.arange(1, 2**j + 1) - 1.0) / 2**j
    width = 2.0 ** (1 - j)
    return np.maximum(0.0, 1.0 - np.abs(x[:, None] - centers) / width)


def dense_eval(path, pts):
    """Reference evaluation: contract the dense hat matrices of every level."""
    axes = string.ascii_lowercase[:path.r]
    subscripts = ",".join("m" + a for a in axes) + "," + axes + "->m"
    total = np.zeros(len(pts))
    for j, coeff in enumerate(path.levels, start=1):
        total += np.einsum(subscripts, *(_axis_hats(j, x) for x in pts.T), coeff)
    return total


class TestSparseEvaluation:
    # A WaveletPath sums each knot's 2^r nonzero hats per level.  Up to 2^13
    # coefficients per level, np.einsum adds each point's terms in one pass in
    # index order, the order the knot sum adds its 2^r nonzero terms in, so the
    # two agree bit for bit.  Above that, einsum sums in pieces of 8192 terms
    # (its iterator buffer), which can move the last bit.
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sparse_equals_dense(self, data):
        r = data.draw(st.integers(1, 4), label="r")
        # levels whose dense sum over every knot takes well under a second
        J = data.draw(st.integers(1, {1: 8, 2: 5, 3: 3, 4: 2}[r]), label="J")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        path = funcspace.WaveletPath(r, [rng.standard_normal(2 ** (j * r))
                                         for j in range(1, J + 1)])
        knots = funcspace.grid_points(r, 2 ** (J + 1) + 1)
        np.testing.assert_array_equal(path.values.ravel(), dense_eval(path, knots))

    @pytest.mark.parametrize("r, J", [(2, 7), (3, 5)])
    def test_sparse_near_dense_beyond_one_buffer(self, r, J):
        rng = np.random.default_rng(r)
        levels = [rng.standard_normal(2 ** (j * r)) for j in range(1, J + 1)]
        path = funcspace.WaveletPath(r, levels)
        knots = rng.choice(len(path.values.ravel()), size=256, replace=False)
        pts = funcspace.grid_points(r, 2 ** (J + 1) + 1)[knots]
        # reassociating 2^r terms per level moves each level by a few ulps
        atol = 2**r * np.finfo(float).eps * sum(np.abs(c).max() for c in levels)
        np.testing.assert_allclose(path.values.ravel()[knots], dense_eval(path, pts),
                                   rtol=0, atol=atol)

    def test_any_dimension(self):
        rng = np.random.default_rng(5)
        path = funcspace.WaveletPath(5, [rng.standard_normal(2 ** (j * 5)) for j in (1, 2)])
        knots = funcspace.grid_points(5, 9)
        np.testing.assert_array_equal(path.values.ravel(), dense_eval(path, knots))

    def test_hat_peak_and_corners(self):
        # the first level-1 hat is 1 at its center (-1/2, ...) and 0 at the far corner
        levels = [np.eye(1, 2**5).ravel()]
        path = funcspace.WaveletPath(5, levels)
        np.testing.assert_array_equal(path(np.array([[-0.5] * 5, [0.5] * 5, [0.0] * 5])),
                                      [1.0, 0.0, 0.5**5])


class TestKnotGrid:
    # a level-J hat series is multilinear on its knot grid linspace(-1, 1,
    # 2^{J+1}+1)^r, and a WaveletPath is the GridPath of its values there
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_path_equals_dense_at_its_knots(self, data):
        r = data.draw(st.integers(1, 4), label="r")
        J = data.draw(st.integers(1, min(8, 13 // r)), label="J")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        path = funcspace.WaveletPath(r, [rng.standard_normal(2 ** (j * r))
                                         for j in range(1, J + 1)])
        knots = funcspace.grid_points(r, 2 ** (J + 1) + 1)
        pts = knots[rng.choice(len(knots), size=min(len(knots), 2048), replace=False)]
        np.testing.assert_array_equal(path(pts), dense_eval(path, pts))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_path_near_dense_off_its_knots(self, data):
        r = data.draw(st.integers(1, 4), label="r")
        J = data.draw(st.integers(1, min(8, 13 // r)), label="J")
        decay = data.draw(st.floats(0.0, 2.0), label="decay")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        levels = [2.0 ** (-j * decay) * rng.standard_normal(2 ** (j * r))
                  for j in range(1, J + 1)]
        path = funcspace.WaveletPath(r, levels)
        knots = np.linspace(-1.0, 1.0, 2 ** (J + 1) + 1)
        vals = np.clip(np.concatenate([np.nextafter(knots, -2.0), np.nextafter(knots, 2.0),
                                       rng.uniform(-1.0, 1.0, 64)]), -1.0, 1.0)
        pts = np.column_stack([rng.permutation(vals) for _ in range(r)])
        # First-order rounding bound in units of eps * sum_j max|lambda_j|: the
        # knot values and the reference each sum J levels of 2^r products of r
        # hats (J + 2^r + 5r + 1 halves each), and the gather rounds its 2^r
        # terms and r weights per term (2^r + 7r halves).
        units = J + 2 ** (r + 1) + 9 * r + 1
        atol = units * np.finfo(float).eps * sum(np.abs(c).max() for c in levels)
        np.testing.assert_allclose(path(pts), dense_eval(path, pts), rtol=0, atol=atol)


def rgi_eval(path, pts):
    """Reference evaluation: scipy's multilinear interpolator on the clipped points."""
    interp = RegularGridInterpolator(path.axes, path.values, method="linear",
                                     bounds_error=False, fill_value=None)
    return interp(np.clip(pts, -1.0, 1.0))


class TestGridEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_gather_equals_interpolator(self, data):
        r = data.draw(st.integers(1, 2), label="r")
        # 17, 33, 65, 129 and 1025 nodes are spaced by powers of two, 21 nodes are not
        m = data.draw(st.sampled_from([17, 21, 33, 65, 129, 1025]), label="m")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        axis = np.linspace(-1.0, 1.0, m)
        path = funcspace.GridPath(rng.standard_normal((m,) * r))
        # the nodes (+-1 among them), their nextafter neighbours, points in
        # between, and points outside the cube that are clipped onto it
        vals = np.concatenate([axis, np.nextafter(axis, -2.0), np.nextafter(axis, 2.0),
                               rng.uniform(-1.0, 1.0, 32), rng.uniform(1.0, 3.0, 8),
                               rng.uniform(-3.0, -1.0, 8)])
        pts = np.column_stack([rng.permutation(vals) for _ in range(r)])
        np.testing.assert_array_equal(path(pts), rgi_eval(path, pts))

    def test_blocks_join_up(self, monkeypatch):
        # the gather runs over blocks of points; 7 does not divide 1000
        monkeypatch.setattr(funcspace, "_BLOCK", 7)
        rng = np.random.default_rng(3)
        path = funcspace.GridPath(rng.standard_normal((21, 21)))
        pts = rng.uniform(-1.2, 1.2, (1000, 2))
        np.testing.assert_array_equal(path(pts), rgi_eval(path, pts))

    @pytest.mark.parametrize("m", [21, 100, 1000])
    def test_node_is_read_apart_from_its_left_neighbour(self, m):
        # at some nodes of these axes (x + 1)(m - 1)/2 rounds one cell low; the
        # gather must step up to the node's own cell, or an infinite left
        # neighbour would turn the node's value into 0 * inf = nan (the last
        # node, +1, is read from the last cell, its left neighbour's)
        axis = np.linspace(-1.0, 1.0, m)
        for k in range(1, m - 1):
            values = np.zeros(m)
            values[k - 1], values[k] = np.inf, 1.0
            assert funcspace.GridPath(values)(axis[k:k + 1])[0] == 1.0


def fancy_gather(values, cells):
    """The gather with one tuple fancy index per corner: the reference for its flat takes."""
    brackets = [((i, 1.0 - y), (i + 1, y)) for i, y in cells]
    total = np.zeros(len(cells[0][1]))
    for corner in itertools.product(*brackets):
        idx, weights = zip(*corner)
        term = values[idx]
        for w in weights:
            term = term * w
        total += term
    return total


class TestFlatKernels:
    # each kernel that reads a fixed point set gives the bits of the plainer
    # code it replaced

    @pytest.mark.parametrize("shape", [(17,), (129,), (21, 33), (33, 9), (9, 5, 7)])
    def test_takes_equal_fancy_indexing(self, monkeypatch, shape):
        monkeypatch.setattr(funcspace, "_BLOCK", 7)  # 7 does not divide 300
        rng = np.random.default_rng(len(shape) * 1000 + shape[0])
        values = rng.standard_normal(shape)
        pts = rng.uniform(-1.2, 1.2, (300, len(shape)))
        pts[:40] = np.nextafter(np.linspace(-1.0, 1.0, 40), 2.0)[:, None]
        path = funcspace.GridPath(values)
        for used in range(1, len(shape) + 1):  # the slots past the used ones are padded
            slots = list(range(used)) + [None] * (len(shape) - used)
            cells = [funcspace._cells(np.zeros(len(pts)) if c is None
                                      else np.clip(pts[:, c], -1.0, 1.0), m)
                     for c, m in zip(slots, shape)]
            layer = funcspace.LayerFunction([(path, range(1, used + 1))], len(shape))
            want = fancy_gather(values, cells)
            np.testing.assert_array_equal(path(layer._inputs(0, pts)), want)
            np.testing.assert_array_equal(layer(pts)[:, 0], np.clip(want, -1.0, 1.0))

    @pytest.mark.parametrize("r, J", [(1, 1), (1, 7), (2, 1), (2, 4), (3, 1), (3, 3)])
    def test_knot_brackets_equal_hat_sum(self, r, J):
        m = 2 ** (J + 1) + 1
        for j in range(1, J + 1):  # each knot's two hats are the nonzeros of the dense ones
            hats = np.zeros((m, 2**j))
            for k, h in funcspace._knot_bracket(j, m):
                hats[np.arange(m), k] = h
            np.testing.assert_array_equal(hats, _axis_hats(j, funcspace._axis(m)))
        rng = np.random.default_rng(10 * r + J)
        knots = funcspace.grid_points(r, m)
        for _ in range(2):  # the second path reads the cached brackets
            path = funcspace.WaveletPath(r, [rng.standard_normal(2 ** (j * r))
                                             for j in range(1, J + 1)])
            np.testing.assert_array_equal(path.values.ravel(), dense_eval(path, knots))


class TestConditioningSet:
    def test_zero_path_accepted(self):
        p = funcspace.WaveletPath(r=1, levels=[np.zeros(2)])
        ok, diag = funcspace.in_conditioning_set(p, 1.0, 2.0)
        assert ok and diag["sup"] == 0.0

    def test_constructed_interior_point(self):
        # besov norm K/2, sup well under 1
        p = funcspace.WaveletPath(r=1, levels=[np.array([2.0 ** -1.5, 0.0])])
        ok, diag = funcspace.in_conditioning_set(p, 1.0, 2.0)
        assert ok
        np.testing.assert_allclose(diag["besov"], 1.0, rtol=1e-12)

    def test_sup_violation_margin(self):
        p = funcspace.WaveletPath(r=1, levels=[np.array([2.0 ** -1.5 * 1.2 / 0.3535533905932738, 0.0])])
        # scale a single hat so its peak is 1.2
        peak = float(np.max(np.abs(p(np.linspace(-1, 1, 65)[:, None]))))
        assert peak > 1.0
        ok, diag = funcspace.in_conditioning_set(p, 1.0, 100.0)
        assert not ok
        np.testing.assert_allclose(diag["sup_margin"], 1.0 - peak, rtol=1e-12)

    def test_sup_violation_skips_the_norm(self, monkeypatch):
        def no_norm(*args):
            raise AssertionError("norm computed for a path with sup > 1")
        monkeypatch.setattr(funcspace, "holder_norm_empirical", no_norm)
        monkeypatch.setattr(funcspace, "besov_norm", no_norm)
        xs = np.linspace(-1, 1, 33)
        for path in (funcspace.GridPath(1.5 * xs),
                     funcspace.GridPath(np.full(33, np.nan)),
                     funcspace.WaveletPath(r=1, levels=[np.array([1.5, 0.0])])):
            ok, diag = funcspace.in_conditioning_set(path, 1.0, 2.0)
            assert not ok and set(diag) == {"sup", "sup_margin"}

    def test_limit_above_the_ceiling_skips_the_norm(self, monkeypatch):
        # K at or above the ceiling (times the slack) decides on the sup alone;
        # just below it, the norm is computed
        xs = np.linspace(-1, 1, 33)
        path = funcspace.GridPath(xs / 2)
        ceiling = funcspace._holder_ceiling((33,), 1.0) * (1.0 + funcspace._CEILING_SLACK)
        ok, diag = funcspace.in_conditioning_set(path, 1.0, ceiling * (1 - 1e-15))
        assert ok and "holder" in diag

        def no_norm(*args):
            raise AssertionError("norm computed for a limit above the ceiling")
        monkeypatch.setattr(funcspace, "holder_norm_empirical", no_norm)
        ok, diag = funcspace.in_conditioning_set(path, 1.0, ceiling)
        assert ok and set(diag) == {"sup", "sup_margin"}

    @pytest.mark.parametrize("beta, values, match", [
        (2.5, np.zeros(33), "beta <= 2 only"),
        (1.0, np.zeros(7), "needs >= 8 nodes per axis"),
        (0.5, np.zeros((9, 7)), r"\(9, 7\)")])
    def test_validation_precedes_the_skip(self, beta, values, match):
        # a limit above any ceiling still refuses what the norm refuses
        with pytest.raises(ValidationError, match=match):
            funcspace.in_conditioning_set(funcspace.GridPath(values), beta, 1e300)

    def test_grid_path_on_the_test_grid_is_read(self, monkeypatch):
        def no_eval(self, points):
            raise AssertionError("GridPath evaluated")
        monkeypatch.setattr(funcspace.GridPath, "__call__", no_eval)
        xs = np.linspace(-1, 1, 33)
        g = funcspace.GridPath(np.add.outer(xs, xs) / 4)
        # 2r sup|f| + the range of each (constant) partial derivative: 4 * 0.5 + 0
        ok, diag = funcspace.in_conditioning_set(g, 1.0, 2.5)
        assert ok and diag["sup"] == 0.5 and diag["holder"] == 2.0
        # a path on other nodes is read on its own nodes too: 2 * 0.25 + 0
        ok, diag = funcspace.in_conditioning_set(funcspace.GridPath(xs[::2] / 4), 1.0, 2.0)
        assert ok and diag["sup"] == 0.25
        np.testing.assert_allclose(diag["holder"], 0.5, atol=1e-12)

    def test_wavelet_path_on_its_knot_grid_is_read(self, monkeypatch):
        levels = [np.array([0.3, -0.2]), np.array([0.1, 0.0, -0.1, 0.05])]
        w = funcspace.WaveletPath(r=1, levels=levels)

        def no_eval(*args):
            raise AssertionError("wavelet path evaluated")
        monkeypatch.setattr(funcspace.GridPath, "__call__", no_eval)
        ok, diag = funcspace.in_conditioning_set(w, 1.0, 10.0)
        assert ok and diag["sup"] == float(np.max(np.abs(w.values)))

    def test_path_type_picks_the_norm(self):
        # a grid path is judged by its Holder norm, a wavelet path by its Besov norm
        xs = np.linspace(-1, 1, 33)
        g = funcspace.GridPath(xs / 2)
        ok, diag = funcspace.in_conditioning_set(g, 1.0, 1.5)
        assert ok and "besov" not in diag
        np.testing.assert_allclose(diag["holder"], 1.0, atol=1e-8)
        np.testing.assert_allclose(diag["holder_margin"], 0.5, atol=1e-8)
        assert not funcspace.in_conditioning_set(g, 1.0, 0.9)[0]
        w = funcspace.WaveletPath(r=1, levels=[np.array([-0.25, 0.25])])
        ok, diag = funcspace.in_conditioning_set(w, 1.0, 1.5)
        assert ok and "holder" not in diag
        np.testing.assert_allclose(diag["besov"], 2.0**1.5 * 0.25, rtol=1e-12)
        assert not funcspace.in_conditioning_set(w, 1.0, 0.5)[0]


class TestCompose:
    def identity_layer(self):
        # hat combination reproducing x on [-0.5, 0.5]: use grid path instead
        xs = np.linspace(-1, 1, 33)
        p = funcspace.GridPath(xs)
        return funcspace.LayerFunction([(p, (1,))], in_dim=1)

    def test_identity(self):
        layer = self.identity_layer()
        pts = np.array([[-1.0], [0.0], [1.0]])
        np.testing.assert_allclose(funcspace.compose([layer], pts), [-1, 0, 1],
                                   atol=1e-12)

    def test_two_layer_arithmetic(self):
        xs = np.linspace(-1, 1, 201)
        h0 = funcspace.LayerFunction([(funcspace.GridPath(xs / 2), (1,))], 1)
        h1 = funcspace.LayerFunction([(funcspace.GridPath(xs**2), (1,))], 1)
        out = funcspace.compose([h0, h1], np.array([[1.0]]))
        np.testing.assert_allclose(out, [0.25], atol=1e-4)

    def test_layer_clips_overshoot(self):
        # the path itself reaches +-1.5; the layer maps into [-1, 1]
        xs = np.linspace(-1, 1, 33)
        p = funcspace.GridPath(1.5 * xs)
        layer = funcspace.LayerFunction([(p, (1,))], in_dim=1)
        pts = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
        np.testing.assert_allclose(p(pts), [-1.5, -0.75, 0.0, 0.75, 1.5])
        np.testing.assert_allclose(layer(pts)[:, 0], [-1.0, -0.75, 0.0, 0.75, 1.0])

    def test_constant_propagation(self):
        c = 0.37
        def const_layer(d_in, d_out):
            comps = [(funcspace.GridPath(np.full(17, c)), (1,))
                     for _ in range(d_out)]
            return funcspace.LayerFunction(comps, in_dim=d_in)
        layers = [const_layer(5, 3), const_layer(3, 1)]
        pts = np.random.default_rng(1).uniform(-1, 1, size=(20, 5))
        np.testing.assert_allclose(funcspace.compose(layers, pts), np.full(20, c),
                                   atol=1e-12)

    def test_associativity_of_evaluation(self):
        rng = np.random.default_rng(7)
        layers = [
            funcspace.LayerFunction(
                [(funcspace.GridPath(rng.uniform(-1, 1, 65)), (1,))], 1)
            for _ in range(3)
        ]
        pts = rng.uniform(-1, 1, size=(50, 1))
        mid = layers[1](layers[0](pts))
        np.testing.assert_array_equal(layers[2](mid)[:, 0],
                                      funcspace.compose(layers, pts))


def fresh_compose(layers, pts):
    """The reference for compose: each path gathers from its own points, with
    cells and a plan found for this call only."""
    for layer in layers:
        cols = []
        for path, s in layer.components:
            sub = np.zeros((len(pts), path.r))  # slots past the active set stay 0
            sub[:, :len(s)] = pts[:, [e - 1 for e in s]]
            cols.append(path(sub))
        pts = np.clip(np.column_stack(cols), -1.0, 1.0)
    return pts[:, 0]


class TestGatherPlan:
    # each path of a layer gathers through a plan of its (input column, nodes
    # per axis) slots, whatever the number of blocks; it must read from it the
    # bits that the path computes from its own points.  compose keeps only its
    # last result in the caller's dict

    def stacks(self, rng):
        def grid(*shape):
            return funcspace.GridPath(rng.uniform(-1.0, 1.0, shape))

        hats = funcspace.WaveletPath(2, [rng.uniform(-0.5, 0.5, 4**j) for j in (1, 2, 3)])
        layer = funcspace.LayerFunction
        return [
            # q = 0: one r = 1 path on the second input
            [layer([(grid(65), (2,))], 2)],
            # q = 1: an r = 2 path, and an r = 2 path on one input with a padded slot
            [layer([(grid(17, 33), (1, 2)), (grid(33, 17), (2,))], 2),
             layer([(grid(21), (2,))], 2)],
            # q = 2: a hat path (17 knots per axis) with a padded slot, an r = 1 path
            [layer([(hats, (1,)), (grid(17), (2,)), (grid(17, 17), (2, 1))], 2),
             layer([(grid(9, 9), (1, 3))], 3),
             layer([(grid(33), (1,))], 1)],
        ]

    @pytest.mark.parametrize("block", [7, 467])  # 500 points in 72 blocks, or in 2
    def test_layer_plans_give_the_same_bits(self, monkeypatch, block):
        monkeypatch.setattr(funcspace, "_BLOCK", block)
        rng = np.random.default_rng(5)
        axis = np.linspace(-1.0, 1.0, 33)
        vals = np.concatenate([axis, np.nextafter(axis, 2.0), rng.uniform(-1.2, 1.2, 401)])
        pts = np.column_stack([rng.permutation(vals)[:500] for _ in range(2)])
        for layers in self.stacks(rng):
            want = fresh_compose(layers, pts)
            np.testing.assert_array_equal(funcspace.compose(layers, pts, {}), want)
            np.testing.assert_array_equal(funcspace.compose(layers, pts), want)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_layer_plan_equals_a_fresh_gather(self, data):
        r = data.draw(st.integers(1, 3), label="r")
        n = data.draw(st.sampled_from([1, 40, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
                      label="n")
        shape = tuple(data.draw(st.sampled_from([2, 5, 17, 33]), label="m") for _ in range(r))
        used = data.draw(st.integers(1, r), label="used")  # the slots past these are padded
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        d = r + 1
        # nodes (+-1, the cube's edges, among them), their nextafter neighbours,
        # points in between, and points outside the cube that are clipped onto it
        nodes = np.concatenate([np.linspace(-1.0, 1.0, m) for m in shape])
        pool = np.concatenate([nodes, np.nextafter(nodes, -2.0), np.nextafter(nodes, 2.0),
                               rng.uniform(-1.0, 1.0, 64), rng.uniform(1.0, 3.0, 8),
                               rng.uniform(-3.0, -1.0, 8)])
        pts = rng.choice(pool, (n, d))
        active = tuple(int(e) + 1 for e in rng.permutation(d)[:used])
        # layer 0's values reach past [-1, 1], so its clip binds
        layers = [funcspace.LayerFunction(
                      [(funcspace.GridPath(rng.uniform(-1.5, 1.5, shape)), active),
                       (funcspace.GridPath(rng.uniform(-1.0, 1.0, 17)), (d,))], d),
                  funcspace.LayerFunction(
                      [(funcspace.GridPath(rng.uniform(-1.0, 1.0, (9, 9))), (2, 1))], 2)]
        np.testing.assert_array_equal(funcspace.compose(layers, pts), fresh_compose(layers, pts))

    def test_same_layers_get_the_last_result(self, monkeypatch):
        # a call with the same layers evaluates nothing and hands back the
        # stored array, read-only: the dict's one entry
        rng = np.random.default_rng(8)
        layers = self.stacks(rng)[1]
        pts = rng.uniform(-1.0, 1.0, (300, 2))
        cache, calls = {}, []
        call = funcspace.LayerFunction.__call__

        def counting(self, points):
            calls.append(self)
            return call(self, points)
        monkeypatch.setattr(funcspace.LayerFunction, "__call__", counting)
        first = funcspace.compose(tuple(layers), pts, cache)
        assert len(calls) == len(layers)
        for same in (tuple(layers), layers):  # the same layer objects, in a new sequence
            assert funcspace.compose(same, pts, cache) is first
        assert len(calls) == len(layers)
        assert not first.flags.writeable
        assert list(cache.values()) == [first]
        np.testing.assert_array_equal(first, fresh_compose(layers, pts))
        # without a cache nothing is kept: a new, writeable array every call
        bare = funcspace.compose(layers, pts)
        assert bare is not funcspace.compose(layers, pts) and bare.flags.writeable

    def test_other_layers_are_composed_again(self, monkeypatch):
        # one dict, one point set: every other sequence of layers is evaluated,
        # planning its gathers afresh, and its result replaces the dict's entry
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1.0, 1.0, (300, 1))
        a, b = (funcspace.LayerFunction([(funcspace.GridPath(rng.uniform(-1.0, 1.0, 33)),
                                          (1,))], 1) for _ in range(2))
        sequences = [(a,), (b,), (a,), (a, b), (b, a)]
        wants = [fresh_compose(layers, pts) for layers in sequences]
        built, plan = [], funcspace._gather_plan

        def planning(pts, shape):
            built.append(shape)
            return plan(pts, shape)
        monkeypatch.setattr(funcspace, "_gather_plan", planning)
        cache = {}
        for layers, want in zip(sequences, wants):
            got = funcspace.compose(layers, pts, cache)
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
            assert list(cache.items()) == [(layers, got)]
        grown = [a]
        funcspace.compose(grown, pts, cache)
        grown.append(b)  # the same list, changed in place, is composed again
        np.testing.assert_array_equal(funcspace.compose(grown, pts, cache), wants[3])
        assert len(cache) == 1
        # one plan per layer of each of the seven composes: 4 one-layer, 3 two-layer
        assert built == [(33,)] * 10

    def test_component_inputs(self):
        # a component reads its active columns in the order it lists them, then 0
        # in each padded slot, from a new array; one that reads every column of
        # the layer in order and pads none gets the layer's own array
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.0, 1.0, (30, 3))
        zero = np.zeros((30, 1))
        cases = [((1, 2, 3), 3, pts), ((2, 1), 2, pts[:, [1, 0]]),
                 ((3,), 3, np.hstack([pts[:, 2:], zero, zero])),
                 ((1, 2), 2, pts[:, :2]), ((1, 2, 3), 4, np.hstack([pts, zero]))]
        layer = funcspace.LayerFunction([(funcspace.GridPath(np.zeros((5,) * r)), s)
                                         for s, r, _ in cases], 3)
        assert layer._inputs(0, pts) is pts
        for j, (_, r, want) in enumerate(cases[1:], start=1):
            got = layer._inputs(j, pts)
            assert got.shape == (30, r) and not np.shares_memory(got, pts)
            np.testing.assert_array_equal(got, want)


# a one-layer f is W v in its path's node values v, so sum(Y f - f^2/2) is
# design_statistics's quadratic form b.v - v.G v/2, up to rounding
STATISTICS_CASES = {  # name -> (family, r, active set, design columns)
    "wavelet-r1": (rates.WAVELET, 1, (1,), 1),
    "wavelet-r2": (rates.WAVELET, 2, (1, 2), 2),
    "wavelet-r3": (rates.WAVELET, 3, (2, 3, 1), 3),
    "stationary-r1": (rates.STATIONARY, 1, (1,), 1),
    "stationary-r2": (rates.STATIONARY, 2, (2, 1), 2),
    "fbm-r1": (rates.FBM, 1, (1,), 1),
    "fbm-r2": (rates.FBM, 2, (1, 2), 2),
    "column-2-of-2": (rates.STATIONARY, 1, (2,), 2),
    "padded-slot": (rates.WAVELET, 2, (1,), 1),
}


def _one_layer(case, rng):
    family, r, s, d = STATISTICS_CASES[case]
    spec = gp.GpSpec(family=family, beta=0.8 if family == rates.FBM else 1.0, r=r, n=200)
    z = rng.standard_normal(gp.state_size(spec))
    sup = float(np.max(np.abs(gp.path_from_state(spec, z).values)))
    # scaled into the sup ball, where every chain state lies
    path = gp.path_from_state(spec, z * min(1.0, 0.999 / sup))
    return funcspace.LayerFunction([(path, s)], d)


def _design(layer, n, on_nodes, rng):
    """n uniform points, a share of whose coordinates are nodes of the path or +-1."""
    X = rng.uniform(-1.0, 1.0, (n, layer.in_dim))
    nodes = np.concatenate([np.linspace(-1.0, 1.0, m) for m in
                            layer.components[0][0].values.shape] + [[-1.0, 1.0]])
    mask = rng.random(X.shape) < on_nodes
    X[mask] = rng.choice(nodes, int(mask.sum()))
    return X


@pytest.mark.parametrize("case", STATISTICS_CASES)
@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from((1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)),
       on_nodes=st.sampled_from((0.0, 0.5, 1.0)), seed=st.integers(0, 2**16))
def test_design_statistics_give_the_full_evaluation(case, n, on_nodes, seed):
    rng = np.random.default_rng(seed)
    layer = _one_layer(case, rng)
    X = _design(layer, n, on_nodes, rng)
    fv = funcspace.compose([layer], X)
    Y = fv + rng.standard_normal(n)
    full = float(np.sum(Y * fv - 0.5 * fv**2))
    stats = funcspace.design_statistics(layer, X, Y)
    values = layer.components[0][0].values
    bound = stats.rounding_bound(values)
    assert abs(funcspace.quadratic_loglik(stats, values) - full) <= bound
    # the bound is a rounding bound: far below one point's share of the sum
    assert bound <= 1e-9 * (np.sum(np.abs(Y)) + n)


class TestCompositionGapBound:
    def test_single_layer_equality(self):
        xs = np.linspace(-1, 1, 201)
        h = funcspace.LayerFunction([(funcspace.GridPath(xs / 2), (1,))], 1)
        ht = funcspace.LayerFunction([(funcspace.GridPath(xs / 4), (1,))], 1)
        bound, gap = funcspace.composition_gap_bound([h], [ht], betas=(1.0,), K=1.0,
                                                     eta_slacks=(1e-12,))
        measured = gap(xs[:, None])
        np.testing.assert_allclose(bound, 0.25 + 1e-12, rtol=1e-9)
        np.testing.assert_allclose(measured, 0.25, rtol=1e-9)

    def test_identical_layers_zero_gap(self):
        xs = np.linspace(-1, 1, 65)
        h = funcspace.LayerFunction([(funcspace.GridPath(xs / 2), (1,))], 1)
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
        n = covering_number_oracle(1.0, 1, 1.0, 1.0, 4)
        assert 1 <= n <= 9

    def test_huge_delta_single_center(self):
        assert covering_number_oracle(1.0, 1, 1.0, 4.1, 4) == 1

    def test_entropy_bound(self):
        q1 = rates.entropy_constant_Q1(1, 1, 1)
        for delta in (1.0, 0.5):
            n = covering_number_oracle(1.0, 1, 1.0, delta, 4)
            assert math.log(max(n, 1)) <= q1 / delta

    def test_r2_rejected(self):
        with pytest.raises(ValidationError):
            covering_number_oracle(1.0, 2, 1.0, 1.0, 4)


class TestSerialization:
    def test_wavelet_round_trip(self):
        p = gp.sample_path(gp.GpSpec(family=rates.WAVELET, beta=1.0, r=1, n=1024),
                           gp.rng_for(9))
        q = path_from_dict(funcspace.path_to_dict(p))
        pts = np.linspace(-1, 1, 101)[:, None]
        np.testing.assert_array_equal(p(pts), q(pts))

    def test_grid_round_trip(self):
        p = gp.sample_path(gp.GpSpec(family=rates.FBM, beta=0.5, r=1, n=100, grid=33),
                           gp.rng_for(9))
        q = path_from_dict(funcspace.path_to_dict(p))
        pts = np.linspace(-1, 1, 101)[:, None]
        np.testing.assert_allclose(p(pts), q(pts), rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("axis", [[0.0], [1.0, -1.0], [-1.0, 0.0, 0.0, 1.0],
                                      [-1.0, 0.25, 1.0]])
    def test_axes_must_increase(self, axis):
        # a grid path's axes come from its values' shape; only a serialized path
        # names its axes, and the last one here increases strictly but is not uniform
        d = {"type": "grid", "r": 1, "axes": [axis], "values": [0.0] * len(axis),
             "shape": [len(axis)]}
        with pytest.raises(ValidationError, match="strictly increasing"):
            path_from_dict(d)
