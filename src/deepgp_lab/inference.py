"""Synthetic regression and posterior MCMC.

A chain state is a structure index and one node: Psi_n's size term gives every
structure of depth >= 1 weight exactly 0.0 (test_depth_never_carries_mass), so
no draw reaches one.  Its two proposals return a node or None: pCN (_pcn_state;
None when the node leaves its conditioning set, so the chain targets the
conditioned prior exactly) and a structure move drawn from the prior
(_fresh_state; None when the draw runs out).  One Metropolis test on the
likelihood ratio accepts either; PosteriorTrace.moves tallies the outcomes.

Each iteration records the state's error on a fixed grid.  A new state is kept
only on an accepted move, and compose keeps only its last result, so it hands
back that array and the record is computed once per kept state; the compose
call stays in every iteration, since perfbench counts iterations by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, NumericError, ValidationError
from .funcspace import (besov_norm, compose, design_statistics, grid_points,
                        in_conditioning_set, quadratic_loglik, _blocks)
from .gp import path_from_state, rng_for, sample_conditioned
from .prior import Node, StructurePriorSpec, build_layers, _draw, _node_laws, _structure_table
from .rates import WAVELET, eps_structure, minimax_rate
from .structure import structure_to_dict

__all__ = [
    "RegressionSample",
    "PosteriorConfig",
    "PosteriorTrace",
    "generate_data",
    "run_mcmc",
    "model_mass",
    "contraction_runs",
    "median",
]


_FLOAT_MAX = float(np.finfo(float).max)


def _in_ball(a, bound):
    """Whether every entry of a lies in [-bound, bound], False if one is NaN.  It
    reads a's min and max, so it makes no |a| the size of a."""
    return bool(-bound <= np.min(a) and np.max(a) <= bound)


@dataclass(frozen=True)
class RegressionSample:
    X: np.ndarray
    Y: np.ndarray
    f_star: object  # the callable truth

    def __post_init__(self):
        if len(self.X) != len(self.Y):
            raise ValidationError("X and Y lengths differ")
        if not _in_ball(self.X, 1 + 1e-12):
            raise ValidationError("design points must lie in [-1,1]^d")
        if not _in_ball(self.Y, _FLOAT_MAX):
            raise ValidationError("responses must be finite")

    @property
    def n(self):
        return len(self.Y)


def generate_data(f_star, n, seed, input_dim) -> RegressionSample:
    """Uniform design on [-1,1]^d, d = input_dim, plus standard normal noise.

    The truth's values are added into the noise array: addition commutes, so Y
    has the bits of f(X) + noise, and no array is made for the sum.
    """
    rng = rng_for(seed, (11,))
    X = rng.uniform(-1.0, 1.0, size=(n, input_dim))
    fv = np.asarray(f_star(X), dtype=float)
    if fv.shape != (n,):
        raise ValidationError(f"truth must give one value per design point, shape ({n},); "
                              f"got shape {fv.shape}")
    if not _in_ball(fv, 1 + 1e-9):
        raise ValidationError("truth exceeds the unit sup-norm ball at a design point")
    Y = rng.standard_normal(n)
    Y += fv
    return RegressionSample(X=X, Y=Y, f_star=f_star)


def median(values) -> float:
    """np.median of a nonempty 1-D sample, bit for bit: NaN if any entry is NaN.

    It takes np.median's partition and mean, but not its NaN check, whose first
    call imports numpy.ma (11-15 ms on a 2-vCPU host).
    """
    a = np.asarray(values, dtype=float).ravel()
    half, odd = divmod(a.size, 2)
    part = np.partition(a, ([half] if odd else [half - 1, half]) + [-1])
    if np.isnan(part[-1]):  # the partition puts any NaN last
        return float(part[-1])
    return float(np.mean(part[half - 1 + odd:half + 1]))


@dataclass(frozen=True)
class PosteriorConfig:
    iterations: int = 500
    pcn_step: float = 0.8  # rho: proposal = rho*z + sqrt(1-rho^2)*xi
    structure_move_prob: float = 0.1
    burn_in: float = 0.5
    seed: int = 0
    prior_only: bool = False

    def __post_init__(self):
        if not (0 < self.pcn_step < 1):
            raise ValidationError("pcn_step must be in (0,1)")
        if not (0 <= self.structure_move_prob <= 1):
            raise ValidationError("structure_move_prob must be in [0,1]")
        if not (0 <= self.burn_in < 1):
            raise ValidationError("burn_in must be in [0,1)")
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")


@dataclass
class PosteriorTrace:
    structures: list  # distinct structures referenced by index
    structure_idx: np.ndarray
    log_lik: np.ndarray
    l2_error: np.ndarray
    besov: np.ndarray
    sup: np.ndarray
    moves: dict  # (move, outcome) -> count; see _MOVES
    burn: int

    def post_burn(self, arr):
        return arr[self.burn:]

    def acceptance(self, move):
        """Accepted over proposed moves of this kind; NaN if none was proposed."""
        proposed = sum(c for (m, _), c in self.moves.items() if m == move)
        return self.moves[move, "accepted"] / proposed if proposed else math.nan


# each move's outcomes; the last is that of a proposal that is None
_MOVES = {"pcn": ("accepted", "rejected", "left_set"),
          "structure": ("accepted", "rejected", "exhausted")}


class _Chain(NamedTuple):
    k: int  # structure index
    node: Node
    ll: float
    layers: tuple
    besov: float


def _fresh_state(eta, spec, rng):
    """The node of a one-layer structure, reading its attempts from the chain's
    stream rng; None if its budget runs out.  The unpacking of eta's one node
    law refuses a deeper structure."""
    (gp_spec, K), = _node_laws(eta, spec)
    try:
        z, path, _ = sample_conditioned(gp_spec, K, rng)
    except ConditioningError:
        return None
    return Node(z, path, gp_spec, K)


def _pcn_state(node, rho, rng):
    """One pCN proposal, z -> rho z + sqrt(1 - rho^2) xi; None if its path
    leaves the node's conditioning set."""
    z = rho * node.z + math.sqrt(1 - rho * rho) * rng.standard_normal(len(node.z))
    path = path_from_state(node.gp_spec, z)
    if not in_conditioning_set(path, node.gp_spec.beta, node.K)[0]:
        return None
    return Node(z, path, node.gp_spec, node.K)


def run_mcmc(data: RegressionSample, spec: StructurePriorSpec,
             config: PosteriorConfig) -> PosteriorTrace:
    """A state is a structure index k and its one node.  The Metropolis test reads
    a proposal's log-likelihood (loglik) off the node's values alone, except on a
    structure's first proposal, which builds its layer to compose the design.  A
    kept state (the start and each accepted move) is a _Chain: its layer and, for
    a wavelet node, its Besov norm are built then, once.  Each iteration ends by
    composing the layer on the error grid, a direct call that perfbench
    (layers.py::_iterations) reads as the iteration boundary.  compose keeps only
    its last result and returns it for the same layers, so l2_error and sup are
    computed once per kept state: a rejected or left-set move evaluates nothing
    there."""
    weighted, cum = _structure_table(spec)
    structures = [eta for eta, _ in weighted]
    rng = rng_for(config.seed, (12,))

    d = data.X.shape[1]
    # at most 17^3 error-grid points: 17 per axis up to d = 3, fewer above
    eval_pts = grid_points(d, 101 if d == 1 else max(
        m for m in range(1, 18) if m**d <= 17**3))
    eval_w = np.full(len(eval_pts), 1.0 / len(eval_pts))
    truth_eval = np.asarray(data.f_star(eval_pts), dtype=float)
    # compose's last result on the error grid, which it returns until the chain
    # keeps a new state; the design is composed once per structure, with no dict
    eval_cache = {}
    stats = {}  # structure index -> the design statistics of its layer

    def loglik(k, node):
        """sum(Y f - f^2/2) of f = compose(layers) on the design.  f is linear in the
        node's values: from the structure's second proposal on, it is their
        quadratic form, from statistics built and checked on its first."""
        if config.prior_only:
            return 0.0
        values = node.path.values
        if k in stats:
            return quadratic_loglik(stats[k], values)
        (layer,) = build_layers(structures[k], {(0, 0): node})
        fv, Y = compose((layer,), data.X), data.Y
        # summed block by block, and f dropped before the statistics are built:
        # the check holds no n-sized array beside X, Y and f
        full = sum(float((Y[b] * fv[b] - 0.5 * fv[b] ** 2).sum()) for b in _blocks(len(fv)))
        del fv
        stats[k] = design_statistics(layer, data.X, Y)
        ll, bound = quadratic_loglik(stats[k], values), stats[k].rounding_bound(values)
        if not abs(ll - full) <= bound:
            raise NumericError(
                f"structure {k} {structure_to_dict(structures[k])}: its design statistics "
                f"give log-likelihood {ll!r}, compose on the design {full!r}; they differ "
                f"by more than the rounding bound {bound:.3g}")
        return ll

    def kept(k, node, ll):
        return _Chain(k, node, ll, build_layers(structures[k], {(0, 0): node}),
                      besov_norm(node.path, node.gp_spec.beta)
                      if spec.profile.family == WAVELET else math.nan)

    # start at the most probable structure whose node draws within its budget;
    # among equal weights, the lowest index first; none that a move cannot draw
    drawable = np.diff(cum, prepend=0.0) > 0
    for k in np.argsort([-w.log_value for _, w in weighted], kind="stable"):
        node = _fresh_state(structures[k], spec, rng) if drawable[k] else None
        if node is not None:
            break
    else:
        raise ConditioningError("no structure admits a feasible conditioned draw")
    chain = kept(int(k), node, loglik(int(k), node))

    it = config.iterations
    s_idx = np.empty(it, dtype=int)
    lls, errs, bes, sups = (np.empty(it) for _ in range(4))
    moves = {(move, outcome): 0 for move, outcomes in _MOVES.items() for outcome in outcomes}
    fe = None  # the error-grid values of the last iteration

    for t in range(it):
        if rng.random() < config.structure_move_prob:
            move, k = "structure", _draw(cum, rng.random())
            node = _fresh_state(structures[k], spec, rng)
        else:
            move, k = "pcn", chain.k
            node = _pcn_state(chain.node, config.pcn_step, rng)
        outcome = _MOVES[move][-1]
        if node is not None:  # the prior proposes both moves: test the likelihoods
            ll, outcome = loglik(k, node), "rejected"
            if math.log(rng.random() + 1e-300) < ll - chain.ll:
                chain, outcome = kept(k, node, ll), "accepted"
        moves[move, outcome] += 1

        fv = compose(chain.layers, eval_pts, eval_cache)  # the iteration's end
        if fv is not fe:  # the same array until the chain keeps a new state
            fe = fv
            err = math.sqrt(float((eval_w * (fe - truth_eval) ** 2).sum()))
            sup = float(abs(fe).max())
        s_idx[t], lls[t], bes[t], errs[t], sups[t] = chain.k, chain.ll, chain.besov, err, sup

    return PosteriorTrace(
        structures=structures, structure_idx=s_idx, log_lik=lls, l2_error=errs,
        besov=bes, sup=sups, moves=moves, burn=int(config.burn_in * it))


def model_mass(trace: PosteriorTrace, spec: StructurePriorSpec, eta_star,
               C: float) -> float:
    """Post-burn-in mass on the good models eps_n(eta) <= C eps_n(eta*), tested per visited eta."""
    eps_star = eps_structure(eta_star, spec.profile, spec.n)
    idx = trace.post_burn(trace.structure_idx)
    good = {k: eps_structure(trace.structures[k], spec.profile, spec.n)
            <= C * eps_star * (1 + 1e-12) for k in set(idx)}
    return float(np.mean([good[k] for k in idx]))


def contraction_runs(f_star, eta_star, spec: StructurePriorSpec,
                     config: PosteriorConfig, n_list, seeds=(0,)):
    """Yield (row, spec_n, traces) per n, one posterior run per seed.

    row is (n, median over seeds of the post-burn median L2 error, eps_n(eta*),
    r_n(eta*)).  Seed s draws its data with seed config.seed + s + 1000 n and
    runs its chain with seed config.seed + s.
    """
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValidationError(f"n_list must be strictly increasing, got {list(n_list)}")
    for n in map(int, n_list):
        spec_n = replace(spec, n=n)
        traces = []
        for s in seeds:
            seed = config.seed + int(s)
            data = generate_data(f_star, n=n, seed=seed + 1000 * n,
                                 input_dim=eta_star.graph.dims[0])
            traces.append(run_mcmc(data, spec_n, replace(config, seed=seed)))
        err = median([median(t.post_burn(t.l2_error)) for t in traces])
        row = (n, err, eps_structure(eta_star, spec.profile, n),
               minimax_rate(eta_star, n).value)
        yield row, spec_n, traces

