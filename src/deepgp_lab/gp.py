"""Samplers for the three Gaussian-process path families plus conditioning.

Every family is a deterministic map from an i.i.d. standard-normal state
vector to a path; keeping the state explicit lets the MCMC module run
preconditioned Crank-Nicolson directly on it.  The RNG is numpy's
SeedSequence/Philox machinery keyed by (seed, *key), which gives splittable,
scheduling-independent streams.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, NumericError, ValidationError
from .funcspace import (ConditioningSpec, GridPath, WaveletPath, grid_points,
                        in_conditioning_set)
from .rates import FAMILIES, FBM, STATIONARY, WAVELET, wavelet_resolution

__all__ = [
    "GpSpec",
    "rng_for",
    "state_size",
    "value_grid",
    "path_from_state",
    "draw_state",
    "sample_path",
    "sample_conditioned",
    "acceptance_lower_bound",
    "besov_radius",
    "fbm_covariance",
    "scaling_a",
]

_GRID_CAP = {1: 1024, 2: 64}


@dataclass(frozen=True)
class GpSpec:
    family: str
    beta: float
    r: int
    n: int
    seed: int = 0
    grid: int = 65

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not self.beta > 0:  # NaN fails this too
            raise ValidationError(f"beta must be > 0, got {self.beta}")
        if self.r < 1:
            raise ValidationError("r must be >= 1")
        if self.family in (FBM, STATIONARY):
            if self.r not in (1, 2):
                raise ValidationError("grid families support r in {1, 2}")
            if self.grid < 16:
                raise ValidationError("grid families need grid >= 16")
            if self.grid > _GRID_CAP[self.r]:
                raise ValidationError(f"grid capped at {_GRID_CAP[self.r]} for r={self.r}")
        if self.family == FBM and not (0 < self.beta < 1):
            raise ValidationError("fBM requires beta in (0, 1)")


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
def _fbm_factor(beta, r, m):
    shape, pts = (m,) * r, grid_points(r, m)
    origin = int(np.argmin(np.linalg.norm(pts, axis=1)))
    rest = [i for i in range(len(pts)) if i != origin]
    cov = fbm_covariance(pts[rest], pts[rest], beta)
    return shape, pts, origin, rest, _chol_with_jitter(cov)


@functools.lru_cache(maxsize=64)
def _stationary_factor(beta, r, n, m):
    shape, pts = (m,) * r, grid_points(r, m)
    a = scaling_a(n, beta, r)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    cov = np.exp(-(a * a) * d2)
    return shape, pts, _chol_with_jitter(cov)


# ---------------------------------------------------------------------------
# state <-> path

def _wavelet_scales(spec):
    J = wavelet_resolution(spec.n, spec.beta, spec.r)
    return [(j, 2.0 ** (-j * (spec.beta + spec.r / 2.0)) / math.sqrt(j * spec.r))
            for j in range(1, J + 1)]


def state_size(spec: GpSpec) -> int:
    if spec.family == WAVELET:
        return sum(2 ** (j * spec.r) for j, _ in _wavelet_scales(spec))
    if spec.family == FBM:
        _, pts, _, rest, _ = _fbm_factor(spec.beta, spec.r, value_grid(spec))
        return 1 + len(rest)
    _, pts, _ = _stationary_factor(spec.beta, spec.r, spec.n, value_grid(spec))
    return len(pts)


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
    if spec.family == FBM:
        shape, pts, origin, rest, chol = _fbm_factor(spec.beta, spec.r, value_grid(spec))
        released = z[0]
        x = np.zeros(len(pts))
        x[rest] = chol @ z[1:]
        # x[origin] stays exactly 0: the covariance vanishes there pre-release
        return GridPath((x + released).reshape(shape))
    shape, _, chol = _stationary_factor(spec.beta, spec.r, spec.n, value_grid(spec))
    return GridPath((chol @ z).reshape(shape))


def draw_state(spec: GpSpec, key=()):
    return rng_for(spec.seed, key).standard_normal(state_size(spec))


def sample_path(spec: GpSpec, key=()):
    return path_from_state(spec, draw_state(spec, key))


def sample_conditioned(spec: GpSpec, cond: ConditioningSpec, draw, max_attempts: int = 1000):
    """Rejection-sample the family into the conditioning set.

    ``draw(a)`` returns the standard-normal state tried at attempt a = 1, 2, ...
    Returns (state, path, attempts).  The accepted draw's law is the
    unconditioned law restricted to the set, exactly.
    """
    if max_attempts < 1:
        raise ValidationError("max_attempts must be >= 1")
    for attempt in range(1, max_attempts + 1):
        z = draw(attempt)
        path = path_from_state(spec, z)
        ok, _ = in_conditioning_set(path, cond)
        if ok:
            return z, path, attempt
    norm = "Besov" if spec.family == WAVELET else "Hoelder"
    raise ConditioningError(
        f"conditioning too tight: no acceptance in {max_attempts} attempts into sup <= 1 "
        f"and {norm} norm <= K = {cond.K:.4g} on the {cond.grid_m}^{spec.r} test grid")


def besov_radius(k_prime: float) -> float:
    """(1 + K') sqrt(2 log 2): the Besov-ball radius of the wavelet conditioning set."""
    return (1.0 + k_prime) * math.sqrt(2.0 * math.log(2.0))


def acceptance_lower_bound(k_prime: float, r: int) -> float:
    """1 - 4 / (2^{r K'^2} - 4), valid for K' > sqrt(3)."""
    if k_prime <= math.sqrt(3.0):
        raise ValidationError("acceptance bound requires K' > sqrt(3)")
    return 1.0 - 4.0 / (2.0 ** (r * k_prime * k_prime) - 4.0)
