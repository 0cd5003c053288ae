"""Closed-form rate calculus.

Everything here is a pure function of (structure, smoothness, sample size):
the downstream smoothness products alpha_i, the minimax rate, the per-family
concentration-rate solutions eps_n(alpha, beta, r), the structure-level rate
eps_n(eta), the doubly-exponential size penalty Psi_n, and the metric-entropy
constant Q1.

All logarithms are natural unless a base is written explicitly.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .structure import PENALTY_HORIZON, CompositionStructure

__all__ = [
    "RateProfile",
    "LogWeight",
    "RateResult",
    "alpha_exponents",
    "rate_exponent",
    "minimax_rate",
    "entropy_constant_Q1",
    "wavelet_resolution",
    "eps_alpha",
    "eps_structure",
    "psi_n",
    "penalty_bound",
    "check_finite",
    "check_beta",
    "WAVELET",
    "FBM",
    "STATIONARY",
    "FAMILIES",
    "PROFILE_FIELDS",
]

WAVELET = "wavelet"
FBM = "fbm"
STATIONARY = "stationary"

FAMILIES = (WAVELET, FBM, STATIONARY)

_CTILDE_GRID = 256  # points of the beta grid behind eps_structure's constants
_CTILDE_SAFETY = 1.05  # factor inflating those suprema


class LogWeight(NamedTuple):
    """Log of a nonnegative weight; -inf encodes exact zero."""

    log_value: float


class RateResult(NamedTuple):
    value: float
    argmax_layers: tuple


class RateProfile(namedtuple("RateProfile", "family holder_radius besov_radius spectral_c "
                                            "spectral_d fbm_small_ball fbm_rkhs")):
    """Per-family constants behind the rate solutions.

    holder_radius is the smoothness-ball radius K.  besov_radius is the
    wavelet family's embedding constant K'.  spectral_c / spectral_d are the
    stationary family's spectral-measure constants C(r), D(r).  fbm_small_ball
    and fbm_rkhs are the fractional-Brownian small-ball constant c_X(r) and
    the user-set RKHS product K^2 L^2.
    """

    __slots__ = ()

    def __new__(cls, family=WAVELET, holder_radius=1.0, besov_radius=1.0, spectral_c=1.0,
                spectral_d=1.0, fbm_small_ball=8.0, fbm_rkhs=1.0):
        if family not in FAMILIES:
            raise ValidationError(f"unknown family {family!r}; expected one of {FAMILIES}")
        constants = holder_radius, besov_radius, spectral_c, spectral_d, fbm_small_ball, fbm_rkhs
        for name, value in zip(cls._fields[1:], constants):
            if value <= 0:
                raise ValidationError(f"{name} must be positive")
        return super().__new__(cls, family, *constants)

    def base_constants(self, beta: float, r: int) -> tuple:
        """(c1', c2') of the base (alpha = 1) solution:
        eps_n(1) <= c1' (log n)^{c2'} n^{-b/(2b+r)}."""
        if self.family == WAVELET:
            # Bounds the J-based base solution: J <= log2(n)/(2b+r) + 1/2 and
            # 2^{-J b} <= 2^{b/2} n^{-b/(2b+r)}; for n >= 3, 1/2 <= ln(n)/(2 ln 3).
            jfac = (1.0 / (math.log(2.0) * (2 * beta + r)) + 1.0 / (2 * math.log(3.0))) ** 1.5
            c1p, c2p = _wavelet_scale(self, beta, r) * 2.0 ** (beta / 2) * jfac, 1.5
        elif self.family == FBM:
            c = 2.0 / math.sqrt(2.0 * math.pi)
            c_z = beta / (c ** (r / beta) * r) + 0.5
            c1p, c2p = self.fbm_small_ball + c_z + self.fbm_rkhs, 0.0
        else:
            c1p, c2p = self.spectral_c + self.spectral_d, (1.0 + r) * beta / (2.0 * beta + r)
        return max(1.0, c1p), c2p

    def constants(self, beta: float, r: int) -> tuple:
        """(c1, c2): the base constants lifted to hold for every alpha in (0, 1]."""
        floor_const = entropy_constant_Q1(beta, r, self.holder_radius) ** (beta / (2 * beta + r))
        c1p, c2p = self.base_constants(beta, r)
        # The fBM solution holds for all alpha with the same constant (and c2' = 0).
        c1 = c1p if self.family == FBM else c1p**2 * (2 * beta + 1) ** (2 * c2p)
        return max(c1, floor_const), c2p * (2 * beta + 2)


# family -> the RateProfile fields its constants read (base_constants, _wavelet_scale,
# and entropy_constant_Q1's K); any other profile field does nothing for the family
PROFILE_FIELDS = {
    WAVELET: {"holder_radius", "besov_radius"},
    FBM: {"holder_radius", "fbm_small_ball", "fbm_rkhs"},
    STATIONARY: {"holder_radius", "spectral_c", "spectral_d"},
}


def check_beta(family: str, beta: float) -> None:
    """Raise ValidationError unless the family has paths of smoothness beta."""
    if not beta > 0:  # NaN fails this too
        raise ValidationError(f"beta must be > 0, got {beta}")
    if family == FBM and not beta < 1:
        raise ValidationError("fBM requires beta in (0, 1)")


def alpha_exponents(betas) -> tuple:
    """alpha_i = prod_{l>i} min(beta_l, 1); alpha_q = 1 (empty product).

    Returns a tuple of Python floats, one per layer, not a numpy array; each
    product is taken from the last layer down, in the order of a reverse
    cumulative product.
    """
    capped = [min(float(b), 1.0) for b in betas]
    if not capped or any(c <= 0 for c in capped):  # NaN passes, as it fails no comparison
        raise ValidationError("betas must be nonempty and positive")
    alphas = [1.0]
    for c in reversed(capped[1:]):
        alphas.append(alphas[-1] * c)
    return tuple(reversed(alphas))


def rate_exponent(beta: float, alpha: float, t: float) -> float:
    """The exponent beta*alpha / (2*beta*alpha + t); increasing in beta*alpha."""
    x = beta * alpha
    return x / (2.0 * x + t)


def minimax_rate(eta: CompositionStructure, n: int) -> RateResult:
    """max_i n^{-beta_i alpha_i/(2 beta_i alpha_i + t_i)} with its argmax layers."""
    if n < 2:
        raise ValidationError("n must be >= 2")
    alphas = alpha_exponents(eta.betas)
    t = eta.graph.eff_dims[: eta.graph.q + 1]
    exps = tuple(rate_exponent(b, a, ti) for b, a, ti in zip(eta.betas, alphas, t))
    emin = min(exps)
    argmax = tuple(i for i, e in enumerate(exps) if e <= emin * (1 + 1e-12) + 1e-15)
    return RateResult(value=float(n) ** (-emin), argmax_layers=argmax)


def entropy_constant_Q1(beta: float, r: int, K: float) -> float:
    """(1+eK) 4^{r+1} (beta+3)^{r+1} r^{r+1} (8 e K^2)^{r/beta}."""
    if beta <= 0 or r < 1 or K <= 0:
        raise ValidationError("need beta > 0, r >= 1, K > 0")
    e = math.e
    return (1 + e * K) * 4.0 ** (r + 1) * (beta + 3.0) ** (r + 1) * float(r) ** (r + 1) \
        * (8 * e * K * K) ** (r / beta)


def wavelet_resolution(n: int, beta: float, r: int) -> int:
    """Closest integer to log2(n)/(2 beta + r), ties away from zero, at least 1."""
    if n < 2:
        raise ValidationError("n must be >= 2")
    x = math.log2(n) / (2.0 * beta + r)
    j = math.floor(x + 0.5)  # half-away-from-zero for positive x
    return max(1, j)


def _wavelet_scale(profile: RateProfile, beta: float, r: int) -> float:
    """K' (2^b + 1)^2 / (2^b - 1) sqrt(r 2^r): the wavelet rate's factor free of n."""
    geom = (2.0**beta + 1.0) ** 2 / (2.0**beta - 1.0)
    return profile.besov_radius * geom * math.sqrt(r * 2.0**r)


def _wavelet_base(profile: RateProfile, beta: float, r: int, n: int) -> float:
    j = wavelet_resolution(n, beta, r)
    return _wavelet_scale(profile, beta, r) * j**1.5 * 2.0 ** (-j * beta)


@functools.lru_cache(maxsize=8192)
def eps_alpha(profile: RateProfile, alpha: float, beta: float, r: int, n: int) -> float:
    """The family's rate solution eps_n(alpha, beta, r), floored from below.

    The floor Q1^{beta/(2 beta + r)} n^{-beta alpha/(2 beta alpha + r)} is the
    entropy lower bound that any admissible solution must dominate.
    """
    if n < 3:
        raise ValidationError("n must be >= 3")
    if not (0 < alpha <= 1):
        raise ValidationError("alpha must lie in (0, 1]")
    power = float(n) ** (-rate_exponent(beta, alpha, r))
    floor = entropy_constant_Q1(beta, r, profile.holder_radius) ** (beta / (2 * beta + r)) * power
    if profile.family == WAVELET and alpha == 1.0:
        return max(_wavelet_base(profile, beta, r, n), floor)
    c1, c2 = profile.constants(beta, r)
    val = c1 * math.log(n) ** c2 * power
    return max(val, floor)


@functools.lru_cache(maxsize=8192)
def _ctilde(profile: RateProfile, bounds, ts):
    grid = np.linspace(bounds[0], bounds[1], _CTILDE_GRID)
    c1_max = c2_max = -math.inf
    for t in ts:
        for b in grid:
            c1, c2 = profile.constants(float(b), t)
            c1_max, c2_max = max(c1_max, c1), max(c2_max, c2)
    return _CTILDE_SAFETY * c1_max, _CTILDE_SAFETY * c2_max


def eps_structure(eta: CompositionStructure, profile: RateProfile, n: int) -> float:
    """Structure-level rate C~1 (log n)^{C~2} r_n(eta).

    The constants are suprema of C_j(beta, t_i) over layers i and a dense beta
    grid on the structure's bounds, inflated by a small safety factor.  The
    result dominates every per-layer eps_alpha(alpha_i, beta_i, t_i).
    """
    if n < 3:
        raise ValidationError("n must be >= 3")
    ts = tuple(sorted(set(eta.graph.eff_dims[: eta.graph.q + 1])))
    c1_tilde, c2_tilde = _ctilde(profile, tuple(eta.bounds), ts)
    rn = minimax_rate(eta, n).value
    val = c1_tilde * math.log(n) ** c2_tilde * rn

    alphas = alpha_exponents(eta.betas)
    t = eta.graph.eff_dims[: eta.graph.q + 1]
    lower = max(eps_alpha(profile, a, float(b), ti, n)
                for a, b, ti in zip(alphas, eta.betas, t))
    if val < lower * (1 - 1e-9):
        raise ValidationError(
            f"eps_structure {val} fell below the per-layer maximum {lower}; "
            "beta grid or safety factor too small"
        )
    return val


def psi_n(eta: CompositionStructure, profile: RateProfile, n: int) -> LogWeight:
    """log of e^{-Psi_n(eta)} with Psi_n = n eps_n(eta)^2 + e^{e^{|d|_1}}.

    The doubly-exponential term overflows double precision once |d|_1 exceeds
    PENALTY_HORIZON; such structures get exact zero weight (-inf log weight).
    """
    m = eta.graph.num_nodes
    if m > PENALTY_HORIZON:
        return LogWeight(-math.inf)
    eps = eps_structure(eta, profile, n)
    return LogWeight(-(n * eps * eps + math.exp(math.exp(m))))


def penalty_bound(profile: RateProfile, bounds, ts, n: int) -> float:
    """An upper bound on n eps_n(eta)^2 over every structure with these beta
    bounds and effective dims in ts: eps_structure's constants with r_n <= 1."""
    c1_tilde, c2_tilde = _ctilde(profile, tuple(bounds), tuple(ts))
    return n * (c1_tilde * math.log(n) ** c2_tilde) ** 2


def check_finite(profile: RateProfile, value_of, what: str) -> None:
    """Raise ValidationError unless value_of(profile) is finite, naming the fields to blame.

    A field is to blame when resetting it alone to its default makes the value
    finite; when no single field does, every field off its default is named.
    """
    def finite(p):
        try:
            return math.isfinite(value_of(p))
        except OverflowError:
            return False

    if finite(profile):
        return
    default = RateProfile(family=profile.family)
    fields = profile._asdict()
    moved = [k for k, v in fields.items() if v != getattr(default, k)]
    # each reset is built by the constructor, which checks the fields again
    blamed = [k for k in moved
              if finite(RateProfile(**{**fields, k: getattr(default, k)}))] or moved
    named = ", ".join(f"profile.{k} = {getattr(profile, k)!r}" for k in blamed)
    raise ValidationError(f"{what} overflows double precision with "
                          f"{named or 'the default profile'}")
