"""Reference code that tests compare the package against, and that no command runs.

pytest does not collect this module (its name does not start with ``test_``);
test modules import it by name.  It holds the brute-force covering-number
oracle behind acceptance criterion 4, the likelihood-ratio and KL / V2 /
Hellinger quadrature behind criterion 6, the sample-size substitution that the
alpha-level rate solutions are tested against, the reader of a serialized
path, and the readers of a generator's stream and of sample_conditioned's
attempt blocks.
"""

import json
import math

import numpy as np

from deepgp_lab import gp
from deepgp_lab.errors import NumericError, ValidationError
from deepgp_lab.funcspace import GridPath, WaveletPath
from deepgp_lab.rates import RateProfile, eps_alpha


class BudgetExceededError(NumericError):
    """A brute-force search exceeded its resource budget."""


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
# Information geometry of the regression model

def _values(f, X):
    if callable(f):
        return np.asarray(f(X), dtype=float)
    return np.asarray(f, dtype=float)


def log_likelihood_ratio(f, f_star, data) -> float:
    """sum_i Y_i (f - f*)(X_i) - f(X_i)^2/2 + f*(X_i)^2/2."""
    fv = _values(f, data.X)
    gv = _values(f_star, data.X)
    return float(np.sum(data.Y * (fv - gv) - 0.5 * fv**2 + 0.5 * gv**2))


def kl_v2_hellinger(f, g, points, weights):
    """(KL, V2 upper bound, squared-Hellinger-type distance) by quadrature.

    KL = int (f-g)^2 dmu; V2 <= int (f-g)^2 + (f-g)^4/4 dmu;
    d_H = 1 - int exp(-(f-g)^2/8) dmu.
    """
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValidationError("quadrature weights must sum to 1")
    d = _values(f, points) - _values(g, points)
    kl = float(np.sum(w * d**2))
    v2 = float(np.sum(w * (d**2 + 0.25 * d**4)))
    hell = float(1.0 - np.sum(w * np.exp(-(d**2) / 8.0)))
    return kl, v2, hell


# ---------------------------------------------------------------------------
# Rate solutions

def smallest_solution_m(profile: RateProfile, alpha: float, beta: float, r: int,
                        n: int) -> int:
    """Largest m with m * eps_m(1, beta, r)^{2 - 2 alpha} <= n.

    This is the sample-size substitution that turns the alpha = 1 solution into
    the minimal valid alpha-level solution eps_m(1)^alpha.
    """
    def g(m):
        return m * eps_alpha(profile, 1.0, beta, r, m) ** (2.0 - 2.0 * alpha)

    if g(3) > n:
        raise ValidationError("no m >= 3 satisfies the substitution inequality")
    hi = 3
    while g(hi) <= n:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g(mid) <= n:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Serialization

def path_from_dict(d: dict):
    """The path funcspace.path_to_dict wrote, as `sample` and `prior` save it."""
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


# ---------------------------------------------------------------------------
# Generator streams


def stream(rng):
    """A generator's bit_generator.state, in a form == compares."""
    return json.dumps(rng.bit_generator.state, default=lambda a: a.tolist(), sort_keys=True)


def block_end(attempt):
    """The last attempt of the block of sample_conditioned's that holds attempt."""
    end, block = 0, 1
    while end < attempt:
        end, block = end + block, min(2 * block, gp._BLOCK_CAP)
    return end
