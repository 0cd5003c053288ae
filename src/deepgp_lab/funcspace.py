"""Function representations and the norms/bounds computed on them.

Two concrete path representations:

* GridPath — values on a uniform tensor grid over [-1,1]^r with multilinear
  interpolation in between, gathered from the 2^r corner values around each
  point: each corner is one take from the flat values, at the points' base
  indices plus the corner's offset.  The base indices and corner weights of a
  point set are its gather plan, found from the points block by block as it is
  read; compose keeps only its last result, in a dict its caller passes.
* WaveletPath — coefficients on a tensorized hierarchical hat (Faber-Schauder)
  system, levels j = 1..J with 2^{jr} basis functions per level, for any r.
  Exact and nested; not orthonormal, which none of the coefficient-level
  checks need.  Every hat is linear between the level-J dyadic knots, so the
  series is multilinear on the knot grid linspace(-1, 1, 2^{J+1}+1)^r: a
  WaveletPath is the GridPath of its knot values, which it sums once, level by
  level, when it is built, from hat brackets at the integer knot indices that
  are cached per (level, knot count) and shared by every path.

On top of those: empirical Holder norm (with np.gradient's second-order
differences) and conditioning-set membership, both read on a path's own nodes,
Besov sup-norm of coefficients, layer/composition evaluation (a layer writes its
outputs into one array and clips it in place), the design statistics that make
a one-layer Gaussian log-likelihood a quadratic form in node values, and the
composition gap bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .rates import alpha_exponents

__all__ = [
    "HOLDER_MAX_BETA",
    "WaveletPath",
    "GridPath",
    "LayerFunction",
    "holder_norm_empirical",
    "besov_norm",
    "in_conditioning_set",
    "compose",
    "design_statistics",
    "quadratic_loglik",
    "composition_gap_bound",
    "grid_points",
    "path_to_dict",
]


HOLDER_MAX_BETA = 2.0  # the empirical Holder norm takes derivatives up to order 2
# Points per GridPath gather pass.  Temporaries of 64 KB stay in cache and reuse
# freed memory; temporaries for 10^5 points at once land on fresh pages on
# every call, which makes the gather about twice as slow.
_BLOCK = 8192
_EPS = float(np.finfo(float).eps)


def _as_points(points, r):
    pts = np.asarray(points, dtype=float)
    if r == 1 and pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != r:
        raise ValidationError(f"points must have shape (m, {r}), got {pts.shape}")
    return pts


@functools.lru_cache(maxsize=64)
def _knot_bracket(j, m):
    """The two level-j hats that can be nonzero at each node i of the knot axis
    linspace(-1, 1, m), as (index, value) pairs; read-only, shared by every path
    whose knot axis has m nodes.

    Hat k peaks at node (2k+1)s and reaches 0 2s nodes away, s = (m-1)/2^{j+1},
    so only the hats peaking just left and right of node i touch it.  Their
    values are exact dyadic numbers.
    """
    s = (m - 1) // 2 ** (j + 1)
    i = np.arange(m)
    left = np.clip((i - s) // (2 * s), 0, 2**j - 2)
    pairs = tuple((k, np.maximum(0.0, 1.0 - np.abs(i - (2 * k + 1) * s) / (2 * s)))
                  for k in (left, left + 1))
    for a in itertools.chain.from_iterable(pairs):
        a.flags.writeable = False
    return pairs


def _knot_sum(levels, r, m):
    """sum_j sum_k lambda_{j,k} psi_{j,k} at the nodes of the knot grid, shape (m,)^r.

    A node's hats on axis k are the knot axis's bracket at its k-th index: axis
    k's pairs are shaped (m, 1, ..., 1) to broadcast against the axes after it.
    """
    total = np.zeros((m,) * r)
    shapes = [(m,) + (1,) * (r - 1 - k) for k in range(r)]
    for j, coeff in enumerate(levels, start=1):
        level = np.zeros((m,) * r)
        brackets = [[(i.reshape(shape), h.reshape(shape)) for i, h in _knot_bracket(j, m)]
                    for shape in shapes]
        # the 2^r corners in lexicographic order: the order a dense sum adds them in
        for corner in itertools.product(*brackets):
            idx, hats = zip(*corner)
            level += math.prod(hats) * coeff[idx]
        total += level
    return total


@functools.lru_cache(maxsize=64)
def _axis(m):
    """np.linspace(-1, 1, m), read-only: the axis of every grid path with m nodes on it."""
    a = np.linspace(-1.0, 1.0, m)
    a.flags.writeable = False
    return a


def _cells(x, m):
    """The cell index i and fraction y of each x in [-1, 1] on the axis linspace(-1, 1, m).

    The cell comes from arithmetic on the uniform axis, then at most one step
    mends rounding: the same index as searchsorted(a, x, side="right") - 1
    clipped to a cell.
    """
    a = _axis(m)
    last = m - 2
    i = np.clip(((x + 1.0) * ((m - 1) / 2.0)).astype(np.intp), 0, last)
    i -= x < a[i]
    i += (x >= a[i + 1]) & (i < last)
    return i, (x - a[i]) / (a[i + 1] - a[i])


def _corners(shape, cells):
    """The points' base indices in the flat values of a grid of this shape, and its
    2^r corners as (offset, weights), in the order GridPath.__call__ sums them.

    A point's base index is sum_k i_k stride_k over its per-axis cells (i, y); a
    corner's offset is the sum of the strides of the axes on which it takes the
    upper node, and its weights are the per-axis factors y there and 1 - y elsewhere.
    """
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    base = cells[-1][0]
    for (i, _), stride in zip(cells[:-1], strides):
        base = base + i * stride
    brackets = [((0, 1.0 - y), (stride, y)) for (_, y), stride in zip(cells, strides)]
    # corners and weights in the order scipy's RegularGridInterpolator uses,
    # so both give the same bits
    return base, [(sum(offsets), weights)
                  for offsets, weights in (zip(*c) for c in itertools.product(*brackets))]


def _gather_plan(pts, shape):
    """The gather plan of the points pts on a grid of this shape, column k on axis k:
    per block of _BLOCK points, (block, base indices, corners) as _corners finds
    them from the block's cells, built as it is read.  Each column is clipped onto
    [-1, 1] into a new array, never in place: pts can be the caller's design."""
    for start in range(0, len(pts), _BLOCK):
        block = slice(start, start + _BLOCK)
        rows = pts[block]
        yield (block, *_corners(shape, [_cells(np.clip(rows[:, k], -1.0, 1.0), m)
                                         for k, m in enumerate(shape)]))


class GridPath:
    """Grid-backed path with multilinear interpolation between nodes.

    The values are a tensor of shape (m_1, ..., m_r); axis k is
    np.linspace(-1, 1, m_k), so a point's cell is found by arithmetic rather
    than by search.  Points are clipped onto [-1,1]^r first.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim < 1 or min(values.shape) < 2:
            raise ValidationError(f"a grid path needs >= 2 nodes on each of >= 1 axes, "
                                  f"got values of shape {values.shape}")
        self.r = values.ndim
        self.values = values

    @property
    def axes(self):
        """The nodes on each axis, linspace(-1, 1, m_k), shared and read-only."""
        return tuple(_axis(m) for m in self.values.shape)

    def __call__(self, points):
        """Values at the points: the multilinear interpolant of the node values.

        Each of the 2^r corners is one take from the flat values, at the points'
        base indices read from the corner's offset.
        """
        points = _as_points(points, self.r)
        flat = self.values.ravel()
        out = np.empty(len(points))
        for block, base, corners in _gather_plan(points, self.values.shape):
            total = out[block]
            total[:] = 0.0  # the sum starts at +0.0: a first term of -0.0 gives 0.0
            for offset, weights in corners:
                term = flat[offset:].take(base)
                for w in weights:
                    term *= w
                total += term
        return out


class WaveletPath(GridPath):
    """Coefficient-backed path: sum_j sum_k lambda_{j,k} psi_{j,k}(u).

    Evaluated as the GridPath of its values on the knot grid
    linspace(-1, 1, 2^{J+1}+1)^r, where the series is multilinear; the levels
    are kept for the Besov norm and serialization.
    """

    basis_id = "hat"

    def __init__(self, r, levels):
        if r < 1:
            raise ValidationError(f"wavelet paths need r >= 1, got {r}")
        r = int(r)
        self.levels = tuple(np.asarray(c, dtype=float).reshape((2**j,) * r)
                            for j, c in enumerate(levels, start=1))
        m = 2 ** (len(self.levels) + 1) + 1
        super().__init__(_knot_sum(self.levels, r, m))


class LayerFunction:
    """One layer: components (path, active set) mapping d_in inputs to d_out outputs.

    Component j evaluates its path at the coordinates named by its (1-based)
    active set; if the path takes more variables than the active set provides,
    the remaining slots are pinned to 0.  Outputs are clipped to [-1, 1], so
    every layer maps into the next layer's domain.
    """

    def __init__(self, components, in_dim):
        self.components = tuple((p, tuple(s)) for p, s in components)
        self.in_dim = int(in_dim)
        self.out_dim = len(self.components)
        for p, s in self.components:
            if any(not (1 <= e <= in_dim) for e in s):
                raise ValidationError(f"active set {s} outside [1, {in_dim}]")
            if len(s) > p.r:
                raise ValidationError(f"active set {s} larger than path dimension {p.r}")

    def __call__(self, points):
        """The layer's outputs at the points, shape (m, out_dim)."""
        pts = _as_points(points, self.in_dim)
        out = np.empty((len(pts), self.out_dim))
        for j, (path, _) in enumerate(self.components):
            out[:, j] = path(self._inputs(j, pts))
        return np.clip(out, -1.0, 1.0, out=out)

    def _inputs(self, j, pts):
        """Component j's points: its active columns of pts in the order it lists
        them, then 0 in each padded slot; when that is every column in order, pts
        itself, since a copy of a fit's design would add to its peak memory."""
        path, s = self.components[j]
        if path.r == self.in_dim and s == tuple(range(1, path.r + 1)):
            return pts
        cols = np.zeros((len(pts), path.r))
        cols[:, :len(s)] = pts[:, [e - 1 for e in s]]
        return cols


def grid_points(r, m):
    """Full uniform mesh of [-1,1]^r with m points per axis, shape (m^r, r)."""
    return _nodes((np.linspace(-1.0, 1.0, m),) * r)


def _nodes(axes):
    """Every node of the tensor grid on these axes, one row each, in C order."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _multi_indices(r, order):
    """All derivative multi-indices over r axes with total order `order`."""
    return [c for c in itertools.combinations_with_replacement(range(r), order)]


def _sup_quotient(points, values, frac):
    """sup over pairs of |v_i - v_j| / |x_i - x_j|_inf^frac (pairs with x_i != x_j)."""
    n = len(values)
    best = 0.0
    chunk = max(1, 2_000_000 // max(n, 1))
    for start in range(0, n, chunk):
        p = points[start:start + chunk]
        v = values[start:start + chunk]
        dx = np.max(np.abs(p[:, None, :] - points[None, :, :]), axis=2)
        dv = np.abs(v[:, None] - values[None, :])
        mask = dx > 0
        q = np.where(mask, dv / np.where(mask, dx, 1.0) ** frac, 0.0)
        best = max(best, float(q.max(initial=0.0)))
    return best


def _check_holder(shape, beta):
    """Refuse a beta or grid shape the empirical Holder norm does not support."""
    if beta > HOLDER_MAX_BETA:
        raise ValidationError("empirical Holder norm supports beta <= 2 only")
    if min(shape) < 8:
        raise ValidationError(f"empirical Holder norm needs >= 8 nodes per axis, "
                              f"got a path of shape {shape}")


def holder_norm_empirical(f, beta):
    """Grid surrogate of the weighted Holder-ball norm, on the nodes of the grid path f.

    2r * sum_{|a| < floor(beta)} sup|d^a f|  +  2^{beta - floor(beta)} *
    sum_{|a| = floor(beta)} Holder-(beta - floor(beta)) quotient of d^a f,
    with derivatives by np.gradient (central differences inside, second-order
    one-sided ones on the edges) and sups over f's nodes.  For
    integer beta the quotient is the range max - min of d^a f, the same bits
    as the largest pairwise |difference| because rounding is monotone.
    """
    _check_holder(f.values.shape, beta)
    r = f.r
    floor_b = int(math.floor(beta))
    frac = beta - floor_b
    steps = [float(a[1] - a[0]) for a in f.axes]
    vals = f.values

    def deriv(tensor, axes):
        out = tensor
        for a in axes:
            out = np.gradient(out, steps[a], axis=a, edge_order=2)
        return out

    low = 0.0
    for order in range(floor_b):
        for a in _multi_indices(r, order):
            low += float(np.max(np.abs(deriv(vals, a))))
    top = 0.0
    for a in _multi_indices(r, floor_b):
        g = deriv(vals, a).ravel()
        top += float(g.max() - g.min()) if frac == 0.0 else \
            _sup_quotient(_nodes(f.axes), g, frac)
    return 2.0 * r * low + 2.0**frac * top


# the largest sum of |coefficients| of np.gradient's edge_order=2 stencils, in
# units of 1/step: its one-sided edge stencils' 1.5 + 2 + 0.5 (the central one's is 1)
_EDGE_GAIN = 4.0
# relative margin over _holder_ceiling for rounding.  holder_norm_empirical
# rounds at most two differences of three terms, a sum of at most six terms, a
# power per quotient and the grid steps, each term bounded by its part of the
# ceiling, so it exceeds the ceiling by at most a few thousand eps, relative
_CEILING_SLACK = 1e-6


@functools.lru_cache(maxsize=64)
def _holder_ceiling(shape, beta):
    """The most holder_norm_empirical(f, beta) can be for a path f of this shape
    with sup |f| <= 1 (exactly, before rounding); refuses what the norm refuses.

    A np.gradient difference along axis k multiplies the sup by at most
    D_k = _EDGE_GAIN / h_k, h_k = 2/(m_k - 1), so sup |d^a f| <= prod_{k in a} D_k,
    a range is at most twice a sup, and distinct nodes lie at least h_min = min h_k apart:
    2r sum_{|a|<b} prod D_k + 2^frac sum_{|a|=b} 2 prod D_k / h_min^frac.
    """
    _check_holder(shape, beta)
    b = int(math.floor(beta))
    frac = beta - b
    gains = [_EDGE_GAIN * (m - 1) / 2.0 for m in shape]
    low = sum(math.prod(gains[k] for k in a) for order in range(b)
              for a in _multi_indices(len(shape), order))
    top = sum(2.0 * math.prod(gains[k] for k in a) for a in _multi_indices(len(shape), b))
    h_min = 2.0 / (max(shape) - 1)
    return 2.0 * len(shape) * low + 2.0**frac * top / h_min**frac


def besov_norm(path, beta):
    """sup_j 2^{j(beta + r/2)} max_k |lambda_{j,k}| over the stored levels."""
    if not isinstance(path, WaveletPath):
        raise ValidationError("besov_norm needs a wavelet-backed path")
    best = 0.0
    for j, coeff in enumerate(path.levels, start=1):
        mx = float(abs(coeff).max())
        best = max(best, 2.0 ** (j * (beta + path.r / 2.0)) * mx)
    return best


def in_conditioning_set(path, beta, K):
    """Membership of the set {sup |path| <= 1, smoothness norm <= K}, plus margins.

    Both read the nodes the path's values live on; 1 is the range
    LayerFunction clips to.  The path's type picks the norm: the Besov
    coefficient norm for a WaveletPath, the empirical Holder norm of the node
    values for any other GridPath.  A path with sup > 1 (or NaN) is rejected
    before any norm is computed, and its diag holds only "sup" and "sup_margin".
    A grid path whose K is at least _holder_ceiling (the most its Holder norm
    can be at sup <= 1) times 1 + _CEILING_SLACK is accepted on its sup alone,
    its diag too holding only "sup" and "sup_margin": the slack covers the
    norm's rounding, so the computed norm would accept it too.
    """
    sup = float(abs(path.values).max())
    diag = {"sup": sup, "sup_margin": 1.0 - sup}
    if not sup <= 1.0:
        return False, diag
    if isinstance(path, WaveletPath):
        norm, name = besov_norm(path, beta), "besov"
    elif K >= _holder_ceiling(path.values.shape, beta) * (1.0 + _CEILING_SLACK):
        return True, diag
    else:
        norm, name = holder_norm_empirical(path, beta), "holder"
    diag[name] = norm
    diag[f"{name}_margin"] = K - norm
    return norm <= K, diag


def compose(layers, points, cache=None):
    """Evaluate h_q o ... o h_0 at the given points; returns a vector.

    ``cache`` is an optional dict that the caller keeps for one fixed point
    set and passes on every call with those points.  It keeps only the last
    result: one entry, keyed by the last layers composed on the points as a
    tuple (a layer compares and hashes by identity, and the stored tuple keeps
    each one alive, so no id can be reused), whose value is their result,
    read-only.  A call with the same layer objects, in the same order, returns
    that array and evaluates nothing.  A chain composes its error grid every
    iteration but changes its layers only on an accepted move.
    """
    key = tuple(layers)
    if cache is not None and key in cache:
        return cache[key]
    pts = _as_points(points, layers[0].in_dim)
    for i, layer in enumerate(layers):
        if pts.shape[1] != layer.in_dim:
            raise ValidationError(f"layer {i} expects {layer.in_dim} inputs, got {pts.shape[1]}")
        pts = layer(pts)
    if pts.shape[1] != 1:
        raise ValidationError("final layer must have a single output")
    fv = pts[:, 0]
    if cache is not None:
        fv.flags.writeable = False
        cache.clear()
        cache[key] = fv
    return fv


class _DesignStatistics(NamedTuple):
    """design_statistics's result, trimmed to the L = m^r - (last corner's offset)
    base indices a point can have."""

    index: np.ndarray  # (2^r, L): row c holds the flat indices offset_c + k, k < L
    left: np.ndarray  # the pairs c <= c' of corners, as the rows c ...
    right: np.ndarray  # ... and c' of index
    b: np.ndarray  # (2^r, L): b[c, k] = sum of w_c Y over the points with base k
    G: np.ndarray  # (pairs, L): G[p, k] = sum of w_c w_c' over them, doubled when c < c'
    n: int
    abs_y: float  # sum |Y|

    def rounding_bound(self, values):
        """Most that quadratic_loglik and compose's sum(Y f - f^2/2) can differ by rounding.

        Each side sums at most N = n + (entries of G) + 4 2^r rounded terms, so
        it is within N u/(1 - N u) of its exact value, relative to
        sum(|Y| a + a^2/2) with a = W|v| <= max|v|.  Twice that, with eps = 2u
        for u to cover the weights' own rounding, as in gp._grid_factor's bound.
        """
        N = self.n + self.G.size + 4 * len(self.index)
        eps = N * _EPS
        s = float(abs(values).max())
        return 2.0 * eps / (1.0 - eps) * (s * self.abs_y + 0.5 * s * s * self.n)


def design_statistics(layer, points, Y):
    """The statistics that give sum(Y f - f^2/2) for f = layer(points) in node values.

    ``layer`` has one component, whose path reads the points' cells directly, so
    f = W v for the path's flat values v and sum(Y f - f^2/2) = b.v - v.G v/2,
    b = W^T Y, G = W^T W (the clip to [-1, 1] binds only by rounding when
    sup |v| <= 1).  A point's row of W is its 2^r corner weights at its base
    index plus each corner's offset (_corners), so G is one array over base
    indices per pair of corners c <= c', not an m^r x m^r matrix.  The base
    indices and weights come from the path's gather plan, built _BLOCK points at
    a time; the points must be at least one.
    """
    (path, _), = layer.components
    pts = _as_points(points, layer.in_dim)
    Y = np.asarray(Y, dtype=float)
    size = path.values.size
    corners = 2**path.r
    left, right = np.triu_indices(corners)
    b, G = np.zeros((corners, size)), np.zeros((len(left), size))
    for block, base, weighted in _gather_plan(layer._inputs(0, pts), path.values.shape):
        offsets, w = zip(*((o, math.prod(ws)) for o, ws in weighted))
        for c in range(corners):
            b[c] += np.bincount(base, w[c] * Y[block], minlength=size)
        for p, (c, d) in enumerate(zip(left, right)):
            G[p] += np.bincount(base, w[c] * w[d], minlength=size)
    length = size - offsets[-1]
    G[left < right] *= 2.0
    return _DesignStatistics(np.add.outer(offsets, np.arange(length)), left, right,
                             b[:, :length].copy(), G[:, :length].copy(), len(pts),
                             float(abs(Y).sum()))


def quadratic_loglik(stats, values):
    """b.v - v.G v/2 at the flat node values v: sum(Y f - f^2/2) of design_statistics's layer
    with its path's values set to ``values``."""
    V = values.ravel()[stats.index]
    quadratic = float(np.vdot(stats.G, V[stats.left] * V[stats.right]))
    return float(np.vdot(stats.b, V)) - 0.5 * quadratic


def _layer_grid_m(d):
    return {1: 201, 2: 33}.get(d, 9)


def composition_gap_bound(h, h_tilde, betas, K, eta_slacks):
    """Right-hand side of the composition perturbation bound, plus the measured gap.

    bound = K^q * sum_i (eta_i^{alpha_i} + sup_i^{alpha_i}) where sup_i is the
    grid-estimated sup over the layer's input cube of max_j |h_ij - h~_ij|.
    Returns (bound, measured_gap) where measured_gap(points) evaluates the
    actual sup of the composite difference on the supplied points.
    """
    if len(h) != len(h_tilde):
        raise ValidationError("layer lists must have equal length")
    q = len(h) - 1
    alphas = alpha_exponents(betas)
    total = 0.0
    for i, (hi, hti) in enumerate(zip(h, h_tilde)):
        if hi.in_dim != hti.in_dim or hi.out_dim != hti.out_dim:
            raise ValidationError(f"layer {i} dimension mismatch")
        pts = grid_points(hi.in_dim, _layer_grid_m(hi.in_dim))
        sup_i = float(np.max(np.abs(hi(pts) - hti(pts))))
        total += float(eta_slacks[i]) ** alphas[i] + sup_i ** alphas[i]
    bound = K**q * total

    def measured_gap(points):
        return float(np.max(np.abs(compose(h, points) - compose(h_tilde, points))))

    return bound, measured_gap


# ---------------------------------------------------------------------------
# Serialization

def path_to_dict(path) -> dict:
    if isinstance(path, WaveletPath):
        return {
            "type": "wavelet",
            "r": path.r,
            "basis": path.basis_id,
            "levels": [lv.ravel().tolist() for lv in path.levels],
        }
    if isinstance(path, GridPath):
        return {
            "type": "grid",
            "r": path.r,
            "axes": [a.tolist() for a in path.axes],
            "values": path.values.ravel().tolist(),
            "shape": list(path.values.shape),
        }
    raise ValidationError(f"cannot serialize {type(path).__name__}")
