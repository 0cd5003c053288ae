"""Function representations and the norms/bounds computed on them.

Two concrete path representations:

* GridPath — values on a uniform tensor grid over [-1,1]^r with multilinear
  interpolation in between, gathered from the 2^r corner values around each
  point.
* WaveletPath — coefficients on a tensorized hierarchical hat (Faber-Schauder)
  system, levels j = 1..J with 2^{jr} basis functions per level, for any r.
  Exact and nested; not orthonormal, which none of the coefficient-level
  checks need.  Every hat is linear between the level-J dyadic knots, so the
  series is multilinear on the knot grid linspace(-1, 1, 2^{J+1}+1)^r: a
  WaveletPath is the GridPath of its knot values, which it sums once, level by
  level, when it is built.

On top of those: empirical Holder norm and conditioning-set membership, both
read on a path's own nodes, Besov sup-norm of coefficients, layer/composition
evaluation, the composition gap bound, and a brute-force covering-number
oracle for the discretized Lipschitz class.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import BudgetExceededError, ValidationError
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
    "composition_gap_bound",
    "covering_number_oracle",
    "grid_points",
    "path_to_dict",
    "path_from_dict",
]


HOLDER_MAX_BETA = 2.0  # the empirical Holder norm takes derivatives up to order 2
# Points per GridPath gather pass.  Temporaries of 64 KB stay in cache and reuse
# freed memory; temporaries for 10^5 points at once land on fresh pages on
# every call, which makes the gather about twice as slow.
_BLOCK = 8192


def _as_points(points, r):
    pts = np.asarray(points, dtype=float)
    if r == 1 and pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != r:
        raise ValidationError(f"points must have shape (m, {r}), got {pts.shape}")
    return pts


def _axis_bracket(j, x):
    """The two level-j hats that can be nonzero at each x, as (index, value) pairs.

    Level-j hats have half-width 2^{1-j} and centers 2^{1-j} apart, so only the
    hats at the centers just left and right of x touch it.
    """
    centers = -1.0 + (2.0 * np.arange(1, 2**j + 1) - 1.0) / 2**j
    width = 2.0 ** (1 - j)
    left = np.clip((x + 1.0) * 2.0 ** (j - 1) - 0.5, 0, 2**j - 2).astype(np.intp)
    left -= (x < centers[left]) & (left > 0)  # x + 1 can round up onto a center
    return [(k, np.maximum(0.0, 1.0 - np.abs(x - centers[k]) / width))
            for k in (left, left + 1)]


def _hat_sum(levels, pts):
    """sum_j sum_k lambda_{j,k} psi_{j,k} at pts, gathering the 2^r hats that touch each point."""
    total = np.zeros(pts.shape[0])
    for j, coeff in enumerate(levels, start=1):
        level = np.zeros(pts.shape[0])
        # the 2^r corners in lexicographic order: the order a dense sum adds them in
        for corner in itertools.product(*(_axis_bracket(j, x) for x in pts.T)):
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


def _gather(values, cells):
    """The multilinear interpolant of the grid values at points given by per-axis cells (i, y)."""
    brackets = [((i, 1.0 - y), (i + 1, y)) for i, y in cells]
    total = np.zeros(len(cells[0][1]))
    # corners and weights in the order scipy's RegularGridInterpolator uses,
    # so both give the same bits
    for corner in itertools.product(*brackets):
        idx, weights = zip(*corner)
        term = values[idx]
        for w in weights:
            term = term * w
        total += term
    return total


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

    def __call__(self, points, cells=None):
        """Values at the points.

        ``cells``, when given, holds each axis's cells of the points as
        ``_cells`` computes them (``compose`` keeps them for a fixed point set);
        the points are then not read again, only counted.
        """
        if cells is None:
            points = np.clip(_as_points(points, self.r), -1.0, 1.0)
        out = np.empty(len(points))
        for start in range(0, len(points), _BLOCK):
            block = slice(start, start + _BLOCK)
            if cells is None:
                out[block] = _gather(self.values, [
                    _cells(x, m) for x, m in zip(points[block].T, self.values.shape)])
            else:
                out[block] = _gather(self.values, [(i[block], y[block]) for i, y in cells])
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
        super().__init__(_hat_sum(self.levels, grid_points(r, m)).reshape((m,) * r))


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

    def __call__(self, points, cells=None):
        """The layer's outputs at the points, shape (m, out_dim).

        Each path reads the grid cells of its input columns, and of 0 in its
        padded slots, from ``cells``: ``compose``'s cache for a fixed point set,
        or a dict for this call only.
        """
        pts = _as_points(points, self.in_dim)
        cells = {} if cells is None else cells
        cols = []
        for path, s in self.components:
            slots = [e - 1 for e in s] + [None] * (path.r - len(s))
            cols.append(path(pts, [_cached_cells(cells, pts, c, m)
                                   for c, m in zip(slots, path.values.shape)]))
        return np.clip(np.column_stack(cols), -1.0, 1.0)


def _cached_cells(cells, pts, col, m):
    """The cells of column ``col`` of pts (None: a zero-padded slot) on linspace(-1, 1, m).

    Looked up in ``cells`` by (col, m), or computed once and stored there:
    int32 indices and float64 fractions of the clipped points, filled block by
    block.  A padded slot is the one cell of 0, broadcast to every point.
    """
    key = (col, m)
    if key not in cells:
        n = len(pts)
        if col is None:
            i, y = _cells(np.zeros(1), m)
            cells[key] = np.broadcast_to(i.astype(np.int32), n), np.broadcast_to(y, n)
        else:
            i, y = np.empty(n, dtype=np.int32), np.empty(n)
            for start in range(0, n, _BLOCK):
                block = slice(start, start + _BLOCK)
                i[block], y[block] = _cells(np.clip(pts[block, col], -1.0, 1.0), m)
            cells[key] = i, y
    return cells[key]


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


def holder_norm_empirical(f, beta):
    """Grid surrogate of the weighted Holder-ball norm, on the nodes of the grid path f.

    2r * sum_{|a| < floor(beta)} sup|d^a f|  +  2^{beta - floor(beta)} *
    sum_{|a| = floor(beta)} Holder-(beta - floor(beta)) quotient of d^a f,
    with derivatives by central differences and sups over f's nodes.  For
    integer beta the quotient is the range max - min of d^a f, the same bits
    as the largest pairwise |difference| because rounding is monotone.
    """
    if beta > HOLDER_MAX_BETA:
        raise ValidationError("empirical Holder norm supports beta <= 2 only")
    if min(f.values.shape) < 8:
        raise ValidationError(f"empirical Holder norm needs >= 8 nodes per axis, "
                              f"got a path of shape {f.values.shape}")
    r = f.r
    floor_b = int(math.floor(beta))
    frac = beta - floor_b
    steps = [a[1] - a[0] for a in f.axes]
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


def besov_norm(path, beta):
    """sup_j 2^{j(beta + r/2)} max_k |lambda_{j,k}| over the stored levels."""
    if not isinstance(path, WaveletPath):
        raise ValidationError("besov_norm needs a wavelet-backed path")
    best = 0.0
    for j, coeff in enumerate(path.levels, start=1):
        mx = float(np.max(np.abs(coeff)))
        best = max(best, 2.0 ** (j * (beta + path.r / 2.0)) * mx)
    return best


def in_conditioning_set(path, beta, K):
    """Membership of the set {sup |path| <= 1, smoothness norm <= K}, plus margins.

    Both read the nodes the path's values live on; 1 is the range
    LayerFunction clips to.  The path's type picks the norm: the Besov
    coefficient norm for a WaveletPath, the empirical Holder norm of the node
    values for any other GridPath.  A path with sup > 1 (or NaN) is rejected
    before any norm is computed, and its diag holds only "sup" and "sup_margin".
    """
    sup = float(np.max(np.abs(path.values)))
    diag = {"sup": sup, "sup_margin": 1.0 - sup}
    if not sup <= 1.0:
        return False, diag
    if isinstance(path, WaveletPath):
        norm, name = besov_norm(path, beta), "besov"
    else:
        norm, name = holder_norm_empirical(path, beta), "holder"
    diag[name] = norm
    diag[f"{name}_margin"] = K - norm
    return norm <= K, diag


def compose(layers, points, cells=None):
    """Evaluate h_q o ... o h_0 at the given points; returns a vector.

    ``cells`` is an optional dict that the caller keeps for one fixed point
    set and passes on every call with those points.  It holds the points'
    grid cells on each (input column, nodes per axis) pair that layer 0's
    paths read, filled on first use, so later calls neither recompute nor copy
    them.  Later layers see new points on every call and are not cached.
    """
    pts = _as_points(points, layers[0].in_dim)
    for i, layer in enumerate(layers):
        if pts.shape[1] != layer.in_dim:
            raise ValidationError(f"layer {i} expects {layer.in_dim} inputs, got {pts.shape[1]}")
        pts = layer(pts, cells if i == 0 else None)
    if pts.shape[1] != 1:
        raise ValidationError("final layer must have a single output")
    return pts[:, 0]


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
# Brute-force covering-number oracle

def _discrete_holder_ok(values, h, beta, K):
    v = np.asarray(values)
    if beta == 1.0:
        slopes = np.diff(v) / h
        osc = float(slopes.max() - slopes.min()) if len(slopes) else 0.0
        return 2.0 * float(np.max(np.abs(v))) + osc <= K + 1e-12
    # beta < 1: pure Holder quotient with the 2^beta weight
    n = len(v)
    best = 0.0
    for gap in range(1, n):
        diffs = np.abs(v[gap:] - v[:-gap])
        best = max(best, float(diffs.max(initial=0.0)) / (gap * h) ** beta)
    return 2.0**beta * best <= K + 1e-12


def covering_number_oracle(beta, r, K, delta, discretization, budget=500_000):
    """Certified covering count for the discretized smoothness-ball proxy class.

    The proxy class: piecewise-linear functions on a uniform grid of
    `discretization` cells over [-1,1], values delta/2-quantized, bounded by 1,
    with discrete Holder norm <= K.  The class is enumerated exhaustively
    (depth-first with norm pruning, budget-limited) and covered greedily in sup
    norm at radius delta; the returned count is the number of centers, a valid
    covering number for the proxy class.
    """
    if r != 1:
        raise ValidationError("covering oracle supports r=1 only")
    if beta > 1:
        raise ValidationError("covering oracle supports beta <= 1 only")
    m = discretization + 1
    h = 2.0 / discretization
    step = delta / 2.0
    n_levels = int(math.floor(1.0 / step + 1e-9))
    levels = np.arange(-n_levels, n_levels + 1) * step

    members = []
    visited = 0

    def feasible_prefix(prefix):
        return _discrete_holder_ok(np.array(prefix), h, beta, K)

    stack = [(lv,) for lv in levels if _discrete_holder_ok(np.array([lv]), h, beta, K)]
    stack.reverse()
    while stack:
        prefix = stack.pop()
        visited += 1
        if visited > budget:
            raise BudgetExceededError(f"covering oracle exceeded budget {budget}")
        if len(prefix) == m:
            members.append(np.array(prefix))
            continue
        for lv in levels[::-1]:
            cand = prefix + (lv,)
            if feasible_prefix(cand):
                stack.append(cand)

    if not members:
        return 0
    # deterministic greedy cover in sup norm (piecewise-linear sup = grid sup)
    arr = np.array(members)
    centers = []
    for row in arr:
        if not any(np.max(np.abs(row - c)) <= delta + 1e-12 for c in centers):
            centers.append(row)
    return len(centers)


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


def path_from_dict(d: dict):
    if d["type"] == "wavelet":
        return WaveletPath(r=d["r"], levels=d["levels"])
    if d["type"] == "grid":
        values = np.asarray(d["values"], dtype=float).reshape(d["shape"])
        axes = [np.asarray(a, dtype=float) for a in d["axes"]]
        if any(a.ndim != 1 or len(a) < 2
               or not np.array_equal(a, np.linspace(-1.0, 1.0, len(a))) for a in axes):
            raise ValidationError("each axis must be np.linspace(-1, 1, m) for some m >= 2: "
                                  "strictly increasing, uniformly spaced nodes")
        if values.shape != tuple(len(a) for a in axes):
            raise ValidationError("values shape does not match axes")
        return GridPath(values)
    raise ValidationError(f"unknown path type {d['type']!r}")
