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
from .gp import GpSpec, besov_radius, rng_for, sample_conditioned
from .rates import (WAVELET, LogWeight, RateProfile, alpha_exponents, check_finite, eps_alpha,
                    eps_structure, penalty_bound)
from .structure import (PENALTY_HORIZON, CompositionStructure, StructureSpace,
                        enumerate_structures)

__all__ = [
    "StructurePriorSpec",
    "DgpDraw",
    "Node",
    "structure_prior_weights",
    "sample_structure",
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
        """Some structure of the space has prior mass, beta_grid is nonempty and
        repeats no value, every node law the space can ask for exists, each beta at
        each layer width, and every limit K and penalty Psi_n the space computes is
        finite."""
        # floats: the spec keys the weights' cache, where a grid (1,) equals (1.0,)
        object.__setattr__(self, "beta_grid", tuple(map(float, self.beta_grid)))
        depth, width = self.space.reach  # no structure past these has prior mass
        if depth < 0:
            cap = self.space.max_nodes
            why = (f"space.max_nodes = {cap}" if cap < PENALTY_HORIZON
                   else "larger structures carry no prior mass")
            raise ValidationError(f"no admissible structure in the space with |d|_1 <= "
                                  f"{min(cap, PENALTY_HORIZON)} ({why})")
        if self.n < 3:
            raise ValidationError("n must be >= 3")
        if not self.beta_grid:
            raise ValidationError("beta_grid must be nonempty")
        for beta in self.beta_grid:
            if self.beta_grid.count(beta) > 1:
                raise ValidationError(f"beta_grid {list(self.beta_grid)} repeats the value "
                                      f"{beta}")
        widths = {"input_dim": self.space.input_dim}
        if depth > 0:
            widths["max_width"] = width
        # K grows as alpha falls; alpha_i is a product of at most q factors min(beta, 1)
        alphas = (1.0, min(min(b, 1.0) for b in self.beta_grid) ** max(depth, 0))
        for beta in self.beta_grid:
            for name, width in widths.items():
                try:
                    gp_spec = GpSpec(family=self.profile.family, beta=beta, r=width, n=self.n)
                    check_finite(self.profile, lambda p: max(
                        conditioning_limit(gp_spec, p, a) for a in alphas), "the limit K")
                except ValidationError as exc:  # name the field as the config gives it
                    raise ValidationError(f"beta_grid {list(self.beta_grid)}, space.{name} = "
                                          f"{getattr(self.space, name)}: {exc}") from exc
        ts = range(1, max(widths.values()) + 1)
        check_finite(self.profile, lambda p: penalty_bound(p, self.space.beta_bounds, ts, self.n),
                     "the penalty Psi_n")


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


@functools.lru_cache(maxsize=2)  # 200,000 structures hold about 70 MB
def structure_prior_weights(spec: StructurePriorSpec) -> tuple:
    """Normalized log-weights over the enumerated structure space, cached per spec.

    Each entry is (structure, LogWeight) with weight proportional to
    gamma(eta) e^{-Psi_n(eta)}; every enumerated structure has a finite log weight.
    """
    structures = enumerate_structures(spec.space, spec.beta_grid)
    # Psi_n = n eps_n(eta)^2 + e^{e^{|d|_1}}.  The rate term reads only eta's
    # betas, effective dims t_0..t_q and beta bounds, gamma_log only
    # (q, d, t) and the size term only |d|_1: each is computed once per distinct
    # key.  Every enumerated structure has |d|_1 <= PENALTY_HORIZON, so its
    # size term is finite.
    rate, size, gamma = {}, {}, {}
    rate_terms, size_terms, gammas = [], [], []
    for eta in structures:
        g = eta.graph
        rate_key = (eta.betas, g.eff_dims[:g.q + 1], eta.bounds)
        if rate_key not in rate:
            eps = eps_structure(eta, spec.profile, spec.n)
            rate[rate_key] = spec.n * eps * eps
        if g.num_nodes not in size:
            size[g.num_nodes] = math.exp(math.exp(g.num_nodes))
        gamma_key = (g.q, g.dims, g.eff_dims)
        if gamma_key not in gamma:
            gamma[gamma_key] = gamma_log(eta, spec)
        rate_terms.append(rate[rate_key])
        size_terms.append(size[g.num_nodes])
        gammas.append(gamma[gamma_key])
    # Each term is taken relative to its minimum over the space before the two
    # are added: either can be astronomically larger than the other, and their
    # sum would absorb the smaller one, and gamma (order 1), in its rounding.
    rate_terms, size_terms = np.array(rate_terms), np.array(size_terms)
    logs = -(rate_terms - rate_terms.min()) - (size_terms - size_terms.min()) + gammas
    norm = _logsumexp(logs)
    return tuple((eta, LogWeight(lw - norm)) for eta, lw in zip(structures, logs))


def _cumulative(weighted):
    """The cumulative sums of exp(log weight), the table _draw reads (weights are normalized)."""
    return np.cumsum(np.exp([w.log_value for _, w in weighted]))


def _draw(cum, u):
    """The index u in [0, 1) draws from cum: the first k with u cum[-1] < cum[k].  As
    u cum[-1] < cum[-1], and cum[k] = cum[k - 1] at weight 0, none of weight 0 is drawn."""
    return int(np.searchsorted(cum, u * cum[-1], side="right"))


@functools.lru_cache(maxsize=2)
def _structure_table(spec: StructurePriorSpec) -> tuple:
    """spec's weights and their _cumulative table, built once per spec."""
    weighted = structure_prior_weights(spec)
    return weighted, _cumulative(weighted)


def sample_structure(spec: StructurePriorSpec, seed) -> CompositionStructure:
    weighted, cum = _structure_table(spec)
    return weighted[_draw(cum, rng_for(seed, (_KEY_STRUCTURE,)).random())][0]


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


@functools.lru_cache(maxsize=1024)
def _node_laws(eta: CompositionStructure, spec: StructurePriorSpec) -> tuple:
    """Per layer i, the law of its nodes: (GpSpec, limit K).

    A pure function of the frozen eta and spec, cached so that a chain's
    structure moves solve eps_alpha once per structure, not once per move.
    """
    alphas = alpha_exponents(eta.betas)
    laws = []
    for i in range(eta.graph.q + 1):
        gp_spec = GpSpec(family=spec.profile.family, beta=float(eta.betas[i]),
                         r=int(eta.graph.eff_dims[i]), n=spec.n)
        laws.append((gp_spec, conditioning_limit(gp_spec, spec.profile, alphas[i])))
    return tuple(laws)


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


def sample_dgp(eta: CompositionStructure, spec: StructurePriorSpec, seed) -> DgpDraw:
    """Rejection-sample every (layer, output) node of eta into its law's set, in turn,
    each from its own keyed stream; an exhausted budget raises ConditioningError."""
    nodes, attempts = {}, {}
    for i, (gp_spec, K) in enumerate(_node_laws(eta, spec)):
        for j in range(len(eta.graph.active_sets[i])):
            rng = rng_for(seed, (_KEY_PATHS, i, j, 1))
            try:
                z, path, attempts[(i, j)] = sample_conditioned(gp_spec, K, rng)
            except ConditioningError as exc:
                raise ConditioningError(f"node (layer {i}, output {j + 1}): {exc}") from exc
            nodes[(i, j)] = Node(z, path, gp_spec, K)
    return DgpDraw(structure=eta, layers=build_layers(eta, nodes), stats=attempts)


def sample_prior(spec: StructurePriorSpec, seed) -> DgpDraw:
    """Draw eta from the structure prior, then the conditioned paths."""
    return sample_dgp(sample_structure(spec, seed), spec, seed)
