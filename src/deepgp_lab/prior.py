"""The rate-penalized structure prior and the full deep-GP prior.

A draw is: a structure eta (sampled proportionally to gamma(eta) e^{-Psi_n(eta)}
over the enumerated space), then one conditioned path per (layer, output) node,
wired through the active sets and composed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, ValidationError
from .funcspace import HOLDER_MAX_BETA, LayerFunction, compose
from .gp import GpSpec, besov_radius, rng_for, sample_conditioned, state_size
from .rates import WAVELET, LogWeight, RateProfile, alpha_exponents, eps_alpha, psi_n
from .structure import (PENALTY_HORIZON, CompositionStructure, StructureSpace,
                        enumerate_structures)

__all__ = [
    "StructurePriorSpec",
    "DgpDraw",
    "Node",
    "structure_prior_weights",
    "sample_structure",
    "sample_nodes",
    "build_layers",
    "sample_dgp",
    "sample_prior",
    "conditioning_limit",
]

# RNG key components (first slot of every spawn key)
_KEY_STRUCTURE = 0
_KEY_PATHS = 1

_DEPTH_DECAY = 0.5  # gamma(q): geometric on 0..max_q
_WIDTH_DECAY = 0.5  # gamma(d_i | q): geometric on 1..max_width
_K_PRIME = 2.0  # K' of the wavelet family's Besov conditioning radius


@dataclass(frozen=True)
class StructurePriorSpec:
    space: StructureSpace
    profile: RateProfile
    n: int
    beta_grid: tuple = (1.0,)

    def __post_init__(self):
        """Every node law the space can ask for exists: each beta at each layer width."""
        if self.n < 3:
            raise ValidationError("n must be >= 3")
        widths = {"input_dim": self.space.input_dim}
        if self.space.max_q > 0:
            widths["max_width"] = self.space.max_width
        for beta in self.beta_grid:
            for name, width in widths.items():
                try:
                    conditioning_limit(GpSpec(family=self.profile.family, beta=beta,
                                              r=width, n=self.n), self.profile)
                except ValidationError as exc:
                    raise ValidationError(f"beta_grid {list(self.beta_grid)}, "
                                          f"space.{name} = {width}: {exc}") from exc


def _logsumexp(a):
    """log(sum(exp(a))) for finite a, by scipy.special.logsumexp's algorithm
    (scipy 1.17) and with its bits: the largest entries leave the sum, and the
    rest enters as log1p of its sum over their count."""
    a = np.asarray(a, dtype=float)
    top = np.max(a)
    ties = a == top
    s = np.sum(np.exp(np.where(ties, -np.inf, a) - top))
    m = np.sum(ties, dtype=float)
    return np.log1p(s / m if s else s) + np.log(m) + top


@functools.lru_cache(maxsize=1024)
def _log_geometric_truncated(k, decay, lo, hi):
    """log P(K = k) for a geometric(decay) renormalized to {lo..hi}."""
    support = np.arange(lo, hi + 1)
    logs = support * math.log(decay)
    return k * math.log(decay) - _logsumexp(logs)


def _count_sets_with_max(t, d_in, d_out):
    """#{(S_1..S_d_out): nonempty subsets of [d_in], max_j |S_j| = t}."""
    def upto(s):
        return sum(math.comb(d_in, k) for k in range(1, s + 1))
    return upto(t) ** d_out - (upto(t - 1) ** d_out if t >= 1 else 0)


def gamma_log(eta: CompositionStructure, spec: StructurePriorSpec) -> float:
    """Unnormalized log of the factorized base density gamma(eta).

    gamma(q) geometric, gamma(d_i|q) truncated geometric, gamma(t_i|d) uniform
    on 1..d_i, gamma(S_i|t_i) uniform over configurations attaining t_i, and
    uniform beta on the grid.
    """
    g = eta.graph
    sp = spec.space
    logp = _log_geometric_truncated(g.q, _DEPTH_DECAY, 0, sp.max_q)
    for i in range(1, g.q + 1):  # hidden widths d_1..d_q
        logp += _log_geometric_truncated(g.dims[i], _WIDTH_DECAY, 1, sp.max_width)
    for i in range(g.q + 1):
        d_in, d_out = g.dims[i], g.dims[i + 1]
        t = g.eff_dims[i]
        logp += -math.log(d_in)  # t_i uniform on 1..d_i
        logp += -math.log(_count_sets_with_max(t, d_in, d_out))
        logp += -(math.log(len(spec.beta_grid)))  # beta_i uniform on the grid
    return logp


def structure_prior_weights(spec: StructurePriorSpec):
    """Normalized log-weights over the enumerated structure space.

    Each entry is (structure, LogWeight) with weight proportional to
    gamma(eta) e^{-Psi_n(eta)}; every enumerated structure has a finite weight.
    """
    structures = enumerate_structures(spec.space, spec.beta_grid)
    if not structures:
        raise ValidationError(
            f"no admissible structure in the space with |d|_1 <= {PENALTY_HORIZON} "
            "(larger structures carry no prior mass)")
    pens = np.array([psi_n(eta, spec.profile, spec.n).log_value for eta in structures])
    # Shift the penalties by their maximum before adding gamma: penalties can be
    # astronomically large, and gamma (order 1) would otherwise be absorbed by
    # floating-point rounding for near-tied structures.
    shift = float(np.max(pens))
    logs = np.array([p - shift + gamma_log(eta, spec) for eta, p in zip(structures, pens)])
    norm = _logsumexp(logs)
    return [(eta, LogWeight(lw - norm)) for eta, lw in zip(structures, logs)]


def _weights_array(weighted):
    p = np.exp([w.log_value for _, w in weighted])
    p /= p.sum()
    return p


def _structure_index(cum, u):
    """The structure index a uniform u draws from cum = cumsum(p); the last if u >= cum[-1]."""
    return int(min(np.searchsorted(cum, u, side="right"), len(cum) - 1))


def sample_structure(spec: StructurePriorSpec, seed, weighted=None) -> CompositionStructure:
    if weighted is None:
        weighted = structure_prior_weights(spec)
    u = rng_for(seed, (_KEY_STRUCTURE,)).random()
    return weighted[_structure_index(np.cumsum(_weights_array(weighted)), u)][0]


def conditioning_limit(gp_spec: GpSpec, profile: RateProfile, alpha: float = 1.0) -> float:
    """The radius K of the smoothness ball a node drawn from gp_spec is conditioned on.

    The node's set is {sup <= 1, smoothness norm <= K} (funcspace.in_conditioning_set).
    The wavelet family's Besov radius is fixed; a grid family's Hoelder radius
    is widened by a slack 2 eps_n(alpha)^{1/alpha} that shrinks with n, where
    alpha is the node's layer exponent (rates.alpha_exponents).
    """
    beta = gp_spec.beta
    if gp_spec.family == WAVELET:
        return besov_radius(_K_PRIME)
    if beta > HOLDER_MAX_BETA:
        raise ValidationError(
            f"beta = {beta}: a conditioned {gp_spec.family} path needs beta <= "
            f"{HOLDER_MAX_BETA:g}, the most its Hoelder check supports")
    slack = 2.0 * eps_alpha(profile, alpha, beta, gp_spec.r, gp_spec.n) ** (1.0 / alpha)
    return profile.holder_radius + slack


class Node(NamedTuple):
    """A conditioned node: its Gaussian state z, its path, its law and its limit K."""

    z: np.ndarray
    path: object
    gp_spec: GpSpec
    K: float


def sample_nodes(eta: CompositionStructure, spec: StructurePriorSpec, draw):
    """Rejection-sample every (layer, output) node of eta into its layer's set.

    Layer i's nodes are paths with smoothness beta_i on t_i variables, conditioned
    on conditioning_limit(their GpSpec, spec.profile, alpha_i).  draw(node, size, a)
    returns the state of length size that node (i, j) tries at attempt a.  Returns
    ({node: Node}, {node: attempts}); an exhausted budget raises ConditioningError.
    """
    nodes, attempts = {}, {}
    alphas = alpha_exponents(eta.betas)
    for i in range(eta.graph.q + 1):
        gp_spec = GpSpec(family=spec.profile.family, beta=float(eta.betas[i]),
                         r=int(eta.graph.eff_dims[i]), n=spec.n)
        K = conditioning_limit(gp_spec, spec.profile, float(alphas[i]))
        size = state_size(gp_spec)
        for j in range(len(eta.graph.active_sets[i])):
            try:
                z, path, attempts[(i, j)] = sample_conditioned(
                    gp_spec, K, lambda a: draw((i, j), size, a))
            except ConditioningError as exc:
                raise ConditioningError(f"node (layer {i}, output {j + 1}): {exc}",
                                        node=(i, j)) from exc
            nodes[(i, j)] = Node(z, path, gp_spec, K)
    return nodes, attempts


def build_layers(eta: CompositionStructure, nodes) -> tuple:
    """Layer i reads the path of node (i, j) on the active set S_ij, for each output j."""
    g = eta.graph
    return tuple(LayerFunction([(nodes[(i, j)].path, s) for j, s in enumerate(g.active_sets[i])],
                               in_dim=g.dims[i])
                 for i in range(g.q + 1))


@dataclass(frozen=True)
class DgpDraw:
    structure: CompositionStructure
    layers: tuple  # LayerFunction per layer
    stats: dict  # (layer, output) -> rejection attempts of the accepted draw

    def __call__(self, points):
        return compose(self.layers, points)

    @property
    def input_dim(self):
        return self.layers[0].in_dim


def sample_dgp(eta: CompositionStructure, spec: StructurePriorSpec, seed) -> DgpDraw:
    """One conditioned path per (layer, output) node, independent across nodes."""
    nodes, attempts = sample_nodes(eta, spec, lambda node, size, a: rng_for(
        seed, (_KEY_PATHS,) + node + (a,)).standard_normal(size))
    return DgpDraw(structure=eta, layers=build_layers(eta, nodes), stats=attempts)


def sample_prior(spec: StructurePriorSpec, seed, weighted=None) -> DgpDraw:
    """Draw eta from the structure prior, then the conditioned paths."""
    eta = sample_structure(spec, seed, weighted=weighted)
    return sample_dgp(eta, spec, seed)
