"""Function representations and the norms/bounds computed on them.

Two concrete path representations:

* WaveletPath — coefficients on a tensorized hierarchical hat (Faber-Schauder)
  system, levels j = 1..J with 2^{jr} basis functions per level, for any r.
  Exact and nested; not orthonormal, which none of the coefficient-level
  checks need.  A point touches at most 2 hats per axis per level, so
  evaluation gathers the 2^r corner coefficients around each point rather
  than forming all 2^{jr} basis values.
* GridPath — values on a uniform tensor grid over [-1,1]^r with multilinear
  interpolation in between.

On top of those: empirical Holder norm, Besov sup-norm of coefficients,
conditioning-set membership, layer/composition evaluation, the composition gap
bound, and a brute-force covering-number oracle for the discretized Lipschitz
class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import BudgetExceededError, ValidationError
from .rates import alpha_exponents

__all__ = [
    "WaveletPath",
    "GridPath",
    "LayerFunction",
    "ConditioningSpec",
    "HolderNormResult",
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


class WaveletPath:
    """Coefficient-backed path: sum_j sum_k lambda_{j,k} psi_{j,k}(u)."""

    basis_id = "hat"

    def __init__(self, r, levels):
        if r < 1:
            raise ValidationError(f"wavelet paths need r >= 1, got {r}")
        self.r = int(r)
        lv = []
        for j, c in enumerate(levels, start=1):
            arr = np.asarray(c, dtype=float).reshape((2**j,) * r)
            lv.append(arr)
        self.levels = tuple(lv)

    def __call__(self, points):
        pts = _as_points(points, self.r)
        total = np.zeros(pts.shape[0])
        for j, coeff in enumerate(self.levels, start=1):
            level = np.zeros(pts.shape[0])
            # the 2^r corners in lexicographic order: the order a dense sum adds them in
            for corner in itertools.product(*(_axis_bracket(j, x) for x in pts.T)):
                idx, hats = zip(*corner)
                level += math.prod(hats) * coeff[idx]
            total += level
        return total


class GridPath:
    """Grid-backed path with multilinear interpolation between nodes."""

    def __init__(self, axes, values):
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        values = np.asarray(values, dtype=float)
        if values.shape != tuple(len(a) for a in axes):
            raise ValidationError("values shape does not match axes")
        self.r = len(axes)
        self.axes = axes
        self.values = values
        self._interp = RegularGridInterpolator(axes, values, method="linear",
                                               bounds_error=False, fill_value=None)

    def __call__(self, points):
        pts = _as_points(points, self.r)
        return self._interp(np.clip(pts, -1.0, 1.0))


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
        pts = _as_points(points, self.in_dim)
        cols = []
        for path, s in self.components:
            sub = pts[:, [e - 1 for e in s]]
            if len(s) < path.r:
                pad = np.zeros((sub.shape[0], path.r - len(s)))
                sub = np.hstack([sub, pad])
            cols.append(path(sub))
        return np.clip(np.column_stack(cols), -1.0, 1.0)


@dataclass(frozen=True)
class ConditioningSpec:
    """Parameters of the per-layer acceptance region.

    mode 'besov': coefficient-ball surrogate (wavelet paths) — sup norm on a
    test grid <= sup_bound and Besov norm <= K.  mode 'holder': empirical
    finite-difference surrogate (grid paths) — sup <= sup_bound and empirical
    Holder norm <= K + slack.
    """

    beta: float
    r: int
    K: float
    slack: float
    mode: str = "besov"
    sup_bound: float = 1.0
    grid_m: int = 33

    def __post_init__(self):
        if self.mode not in ("besov", "holder"):
            raise ValidationError(f"unknown conditioning mode {self.mode!r}")
        if self.slack <= 0:
            raise ValidationError("slack must be positive")


def grid_points(r, m):
    """Full uniform mesh of [-1,1]^r with m points per axis, shape (m^r, r)."""
    axis = np.linspace(-1.0, 1.0, m)
    if r == 1:
        return axis[:, None]
    mesh = np.meshgrid(*([axis] * r), indexing="ij")
    return np.column_stack([g.ravel() for g in mesh])


@dataclass(frozen=True)
class HolderNormResult:
    value: float
    warnings: tuple = ()


def _multi_indices(r, order):
    """All derivative multi-indices over r axes with total order `order`."""
    if order == 0:
        return [()]
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
        if frac == 0.0:
            q = np.where(mask, dv, 0.0)
        else:
            q = np.where(mask, dv / np.where(mask, dx, 1.0) ** frac, 0.0)
        best = max(best, float(q.max(initial=0.0)))
    return best


def holder_norm_empirical(f, beta, grid_m=64):
    """Grid surrogate of the weighted Holder-ball norm.

    2r * sum_{|a| < floor(beta)} sup|d^a f|  +  2^{beta - floor(beta)} *
    sum_{|a| = floor(beta)} Holder-(beta - floor(beta)) quotient of d^a f,
    with derivatives by central differences and sups over the grid.
    """
    if beta > 2:
        raise ValidationError("empirical Holder norm supports beta <= 2 only")
    if grid_m < 8:
        raise ValidationError("grid_m must be >= 8")
    r = f.r
    warns = []
    if min(abs(beta - k) for k in (0, 1, 2)) < 0.05 and beta not in (1.0, 2.0):
        warns.append("beta within 0.05 of an integer: grid-sensitive regime")
    floor_b = int(math.floor(beta))
    if beta == float(floor_b):
        frac = 0.0
    else:
        frac = beta - floor_b
    axis = np.linspace(-1.0, 1.0, grid_m)
    h = axis[1] - axis[0]
    pts = grid_points(r, grid_m)
    vals = f(pts).reshape((grid_m,) * r)

    def deriv(tensor, axes):
        out = tensor
        for a in axes:
            out = np.gradient(out, h, axis=a, edge_order=2)
        return out

    low = 0.0
    for order in range(floor_b):
        for a in _multi_indices(r, order):
            low += float(np.max(np.abs(deriv(vals, a))))
    top = 0.0
    for a in _multi_indices(r, floor_b):
        g = deriv(vals, a).ravel()
        top += _sup_quotient(pts, g, frac)
    value = 2.0 * r * low + 2.0**frac * top
    return HolderNormResult(value=value, warnings=tuple(warns))


def besov_norm(path, beta):
    """sup_j 2^{j(beta + r/2)} max_k |lambda_{j,k}| over the stored levels."""
    if not isinstance(path, WaveletPath):
        raise ValidationError("besov_norm needs a wavelet-backed path")
    best = 0.0
    for j, coeff in enumerate(path.levels, start=1):
        mx = float(np.max(np.abs(coeff))) if coeff.size else 0.0
        best = max(best, 2.0 ** (j * (beta + path.r / 2.0)) * mx)
    return best


def in_conditioning_set(f, spec: ConditioningSpec):
    """Membership check plus margin diagnostics."""
    if f.r != spec.r:
        raise ValidationError(f"path dimension {f.r} != spec dimension {spec.r}")
    pts = grid_points(spec.r, spec.grid_m)
    sup = float(np.max(np.abs(f(pts))))
    diag = {"sup": sup, "sup_margin": spec.sup_bound - sup}
    if spec.mode == "besov":
        if not isinstance(f, WaveletPath):
            raise ValidationError("besov conditioning mode requires a wavelet path")
        norm = besov_norm(f, spec.beta)
        limit = spec.K
        diag["besov"] = norm
        diag["besov_margin"] = limit - norm
    else:
        if not isinstance(f, GridPath):
            raise ValidationError("holder conditioning mode requires a grid path")
        norm = holder_norm_empirical(f, spec.beta, spec.grid_m).value
        limit = spec.K + spec.slack
        diag["holder"] = norm
        diag["holder_margin"] = limit - norm
    ok = sup <= spec.sup_bound and norm <= limit
    return ok, diag


def compose(layers, points):
    """Evaluate h_q o ... o h_0 at the given points; returns a vector."""
    pts = _as_points(points, layers[0].in_dim)
    for i, layer in enumerate(layers):
        if pts.shape[1] != layer.in_dim:
            raise ValidationError(f"layer {i} expects {layer.in_dim} inputs, got {pts.shape[1]}")
        pts = layer(pts)
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
        total += float(eta_slacks[i]) ** alphas[i] + sup_i ** alphas[i] if sup_i > 0 \
            else float(eta_slacks[i]) ** alphas[i]
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
        return GridPath(axes=d["axes"], values=values)
    raise ValidationError(f"unknown path type {d['type']!r}")
