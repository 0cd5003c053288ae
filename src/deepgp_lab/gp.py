"""Samplers for the three Gaussian-process path families plus conditioning.

Every family is a deterministic map from an i.i.d. standard-normal state
vector to a path; keeping the state explicit lets the MCMC module run
preconditioned Crank-Nicolson directly on it.  A grid family's node values
(fbm's or stationary's) are L z, for its cached factor L.  Samplers read their
states from a numpy Generator; rng_for keys numpy's SeedSequence/Philox
machinery by (seed, *key): splittable, scheduling-independent streams.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, NumericError, ValidationError
from .funcspace import GridPath, WaveletPath, grid_points, in_conditioning_set
from .rates import FAMILIES, FBM, STATIONARY, WAVELET, check_beta, wavelet_resolution

__all__ = [
    "GpSpec",
    "DEFAULT_GRID",
    "rng_for",
    "state_size",
    "value_grid",
    "path_from_state",
    "sample_path",
    "sample_conditioned",
    "acceptance_lower_bound",
    "besov_radius",
    "K_PRIME",
    "fbm_covariance",
    "scaling_a",
]

_GRID_CAP = {1: 1024, 2: 64}
DEFAULT_GRID = 33  # a grid family's nodes per axis, unless a spec says otherwise
# a shared stream (a chain's) advances by whole blocks: changing the cap changes `fit`
_BLOCK_CAP = 64  # most attempts sample_conditioned draws and screens at once
_SLACK_FACTOR = 2.0  # two products' rounding, in _grid_factor's bound
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GpSpec:
    family: str
    beta: float
    r: int
    n: int
    grid: int = DEFAULT_GRID

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        check_beta(self.family, self.beta)
        if self.r < 1:
            raise ValidationError("r must be >= 1")
        if self.n < 2:  # every family's resolution or scale takes log n
            raise ValidationError(f"n must be >= 2, got {self.n}")
        if self.family in (FBM, STATIONARY):
            if self.r not in (1, 2):
                raise ValidationError("grid families support r in {1, 2}")
            if self.grid < 16:
                raise ValidationError("grid families need grid >= 16")
            if self.grid > _GRID_CAP[self.r]:
                raise ValidationError(f"grid capped at {_GRID_CAP[self.r]} for r={self.r}")


def rng_for(seed, key=()):
    """Deterministic generator for a (seed, key) pair; keys are small ints."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# covariance factors (cached per spec signature)

def fbm_covariance(u, v, beta):
    """0.5 (|u|^{2b} + |v|^{2b} - |u-v|^{2b}) with Euclidean norms."""
    u = np.atleast_2d(u)
    v = np.atleast_2d(v)
    nu = np.linalg.norm(u, axis=1)[:, None]
    nv = np.linalg.norm(v, axis=1)[None, :]
    duv = np.linalg.norm(u[:, None, :] - v[None, :, :], axis=2)
    return 0.5 * (nu ** (2 * beta) + nv ** (2 * beta) - duv ** (2 * beta))


def scaling_a(n, beta, r):
    """Rescaling a(beta, r) = n^{1/(2b+r)} (log n)^{-(1+r)/(2b+r)}."""
    return n ** (1.0 / (2 * beta + r)) * math.log(n) ** (-(1.0 + r) / (2 * beta + r))


def _chol_with_jitter(cov):
    scale = float(np.max(np.diag(cov))) or 1.0
    for jit in (0.0, 1e-12, 1e-10, 1e-8):
        try:
            return np.linalg.cholesky(cov + jit * scale * np.eye(len(cov)))
        except np.linalg.LinAlgError:
            continue
    raise NumericError("Cholesky failed after jitter escalation (1e-12..1e-8)")


def value_grid(spec: GpSpec) -> int:
    """Nodes per axis of the grid a path's values live on.

    A wavelet path's knot grid has 2^{J+1}+1, J = wavelet_resolution(n, beta, r);
    a grid family's path has grid | 1, an odd count, so the origin is a node.
    """
    if spec.family == WAVELET:
        return 2 ** (wavelet_resolution(spec.n, spec.beta, spec.r) + 1) + 1
    return spec.grid | 1


@functools.lru_cache(maxsize=64)
def _grid_factor(family, beta, r, m, n=None):
    """A grid family's factor L, whose path values on the m^r grid are L z, and
    the screen's rounding bound per unit of max |z|.

    stationary: L is the Cholesky factor of the grid's covariance.  fbm, released
    at 0: column 0, the released constant, is 1 at every node; the origin's row
    is (1, 0, ..., 0); the other rows hold the Cholesky factor of the fBM
    covariance off the origin in columns 1 onward.  fbm's L does not read n.

    A dot product of length k, summed in any order, is within
    k u/(1 - k u) sum_j |L_ij z_j| of its exact value (u = 2^-53, the unit
    roundoff), so row i of a block product Z @ L.T and path_from_state's
    L @ z differ by at most twice that, or 2 k u/(1 - k u) max_i ||L_i||_1 max|z|.
    The bound takes eps = 2^-52 = 2u for u, which covers 1/(1 - k u) and the
    rounding of the row sums.
    """
    pts = grid_points(r, m)
    if family == FBM:
        rest = np.arange(len(pts)) != np.argmin(np.linalg.norm(pts, axis=1))  # not the origin
        L = np.zeros((len(pts), len(pts)))
        L[:, 0] = 1.0
        L[rest, 1:] = _chol_with_jitter(fbm_covariance(pts[rest], pts[rest], beta))
    else:
        a = scaling_a(n, beta, r)
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        L = _chol_with_jitter(np.exp(-(a * a) * d2))
    row_l1 = float(np.max(np.sum(np.abs(L), axis=1)))
    return L, _SLACK_FACTOR * L.shape[1] * _EPS * row_l1


def _spec_factor(spec: GpSpec):
    """_grid_factor of a grid-family spec, keyed without n for fbm."""
    n = spec.n if spec.family == STATIONARY else None
    return _grid_factor(spec.family, spec.beta, spec.r, value_grid(spec), n)


# ---------------------------------------------------------------------------
# state <-> path

def _wavelet_scales(spec):
    J = wavelet_resolution(spec.n, spec.beta, spec.r)
    return [(j, 2.0 ** (-j * (spec.beta + spec.r / 2.0)) / math.sqrt(j * spec.r))
            for j in range(1, J + 1)]


def state_size(spec: GpSpec) -> int:
    if spec.family == WAVELET:
        return sum(2 ** (j * spec.r) for j, _ in _wavelet_scales(spec))
    return value_grid(spec) ** spec.r


def path_from_state(spec: GpSpec, z):
    """Deterministic state -> path map for the spec's family."""
    z = np.asarray(z, dtype=float)
    if len(z) != state_size(spec):
        raise ValidationError(f"state length {len(z)} != {state_size(spec)}")
    if spec.family == WAVELET:
        levels, pos = [], 0
        for j, scale in _wavelet_scales(spec):
            count = 2 ** (j * spec.r)
            levels.append(scale * z[pos:pos + count])
            pos += count
        return WaveletPath(r=spec.r, levels=levels)
    L, _ = _spec_factor(spec)
    return GridPath((L @ z).reshape((value_grid(spec),) * spec.r))


def sample_path(spec: GpSpec, rng):
    return path_from_state(spec, rng.standard_normal(state_size(spec)))


def _screened_rows(spec: GpSpec, states):
    """The rows of a block of states, in order, whose paths may have sup <= 1.

    A wavelet block is not screened.  A grid family's node values come from one
    matrix product for the whole block.  A row is dropped only when its sup
    exceeds 1 by more than the product's rounding bound, plus 4 eps for the
    rounding of 1.0 + slack and of values near 1; path_from_state's values for
    that row then have sup > 1 too, and in_conditioning_set would reject it.
    """
    if spec.family == WAVELET:
        return range(len(states))
    L, bound = _spec_factor(spec)
    sup = abs(states @ L.T).max(axis=1)
    slack = bound * abs(states).max() + 4 * _EPS
    return np.flatnonzero(sup <= 1.0 + slack)


def sample_conditioned(spec: GpSpec, K: float, rng, max_attempts: int = 1000):
    """Rejection-sample the family into the set {sup <= 1, smoothness norm <= K}.

    Attempts are read from the generator rng in blocks of 1, 2, 4, ..., at most
    _BLOCK_CAP and at most the budget left, each as rng.standard_normal((count,
    state_size(spec))), so rng ends at the end of the accepting block, or after
    exactly max_attempts attempts.
    A grid family's block is screened first: one matrix product gives every
    row's node values, and a row whose sup exceeds 1 by more than the product's
    rounding bound is rejected there, as the exact check would reject it.
    The rows left (every row of a wavelet block) are decided in attempt order
    by path_from_state and in_conditioning_set, so every decision is the one a
    per-attempt loop makes.  Returns (state, path, attempts).  The accepted
    draw's law is the unconditioned law restricted to the set, exactly.
    """
    if max_attempts < 1:
        raise ValidationError("max_attempts must be >= 1")
    attempt, block, size = 1, 1, state_size(spec)
    while attempt <= max_attempts:
        count = min(block, max_attempts - attempt + 1)
        states = rng.standard_normal((count, size))
        for i in _screened_rows(spec, states):
            z = states[i].copy()  # the node keeps its own state, not a view of the block
            path = path_from_state(spec, z)
            ok, _ = in_conditioning_set(path, spec.beta, K)
            if ok:
                return z, path, attempt + int(i)
        attempt += count
        block = min(2 * block, _BLOCK_CAP)
    norm = "Besov" if spec.family == WAVELET else "Hoelder"
    raise ConditioningError(
        f"conditioning too tight: no acceptance in {max_attempts} attempts into sup <= 1 "
        f"and {norm} norm <= K = {K:.4g} on the {value_grid(spec)}^{spec.r} grid "
        "its values live on")


K_PRIME = 2.0  # K' of the wavelet family's Besov conditioning radius


def besov_radius(k_prime: float) -> float:
    """(1 + K') sqrt(2 log 2): the Besov-ball radius of the wavelet conditioning set."""
    return (1.0 + k_prime) * math.sqrt(2.0 * math.log(2.0))


def acceptance_lower_bound(k_prime: float, r: int) -> float:
    """1 - 4 / (2^{r K'^2} - 4), valid for K' > sqrt(3)."""
    if k_prime <= math.sqrt(3.0):
        raise ValidationError("acceptance bound requires K' > sqrt(3)")
    return 1.0 - 4.0 / (2.0 ** (r * k_prime * k_prime) - 4.0)
