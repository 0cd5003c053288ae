"""Synthetic regression, information geometry, and posterior MCMC.

The sampler makes one joint pCN proposal for all node states and accepts or
rejects it once, rejecting outright a proposal in which any node leaves its
conditioning set (this targets the conditioned prior exactly), plus
independence structure moves drawn from the prior (so the acceptance ratio
reduces to the likelihood ratio; a move whose node draw runs out is counted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConditioningError, ValidationError
from .funcspace import besov_norm, compose, grid_points, in_conditioning_set
from .gp import path_from_state, rng_for
from .prior import (Node, StructurePriorSpec, build_layers, sample_nodes,
                    structure_prior_weights, _structure_index, _weights_array)
from .rates import WAVELET, eps_structure, minimax_rate

__all__ = [
    "RegressionSample",
    "PosteriorConfig",
    "PosteriorTrace",
    "generate_data",
    "log_likelihood_ratio",
    "kl_v2_hellinger",
    "run_mcmc",
    "model_mass",
    "contraction_runs",
]


@dataclass(frozen=True)
class RegressionSample:
    X: np.ndarray
    Y: np.ndarray
    f_star: object = None  # optional callable truth

    def __post_init__(self):
        if len(self.X) != len(self.Y):
            raise ValidationError("X and Y lengths differ")
        if np.max(np.abs(self.X)) > 1 + 1e-12:
            raise ValidationError("design points must lie in [-1,1]^d")

    @property
    def n(self):
        return len(self.Y)


def generate_data(f_star, n, seed, input_dim=None) -> RegressionSample:
    """Uniform design on [-1,1]^d plus standard normal noise."""
    if input_dim is None:
        input_dim = getattr(f_star, "input_dim", 1)
    rng = rng_for(seed, (11,))
    X = rng.uniform(-1.0, 1.0, size=(n, input_dim))
    fv = np.asarray(f_star(X), dtype=float)
    if np.max(np.abs(fv)) > 1 + 1e-9:
        raise ValidationError("truth exceeds the unit sup-norm ball at a design point")
    Y = fv + rng.standard_normal(n)
    return RegressionSample(X=X, Y=Y, f_star=f_star)


def _values(f, X):
    if callable(f):
        return np.asarray(f(X), dtype=float)
    return np.asarray(f, dtype=float)


def log_likelihood_ratio(f, f_star, data: RegressionSample) -> float:
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
    pcn_acceptance: float
    structure_acceptance: float
    structure_exhausted: int  # structure moves rejected because a node draw ran out
    burn: int

    def post_burn(self, arr):
        return arr[self.burn:]


def _fresh_state(eta, spec, rng):
    """Rejection-sample all node states for a structure; None if budget exhausted."""
    try:
        nodes, _ = sample_nodes(eta, spec, lambda node, size, _: rng.standard_normal(size))
    except ConditioningError:
        return None
    return nodes


def run_mcmc(data: RegressionSample, spec: StructurePriorSpec,
             config: PosteriorConfig) -> PosteriorTrace:
    weighted = structure_prior_weights(spec)
    structures = [eta for eta, _ in weighted]
    probs = _weights_array(weighted)
    rng = rng_for(config.seed, (12,))

    d = data.X.shape[1]
    # at most 17^3 error-grid points: 17 per axis up to d = 3, fewer above
    eval_pts = grid_points(d, 101 if d == 1 else max(
        m for m in range(1, 18) if m**d <= 17**3))
    eval_w = np.full(len(eval_pts), 1.0 / len(eval_pts))
    truth_eval = _values(data.f_star, eval_pts) if data.f_star is not None else None
    # the grid cells of the design and of the error grid, found once per chain
    design_cells, eval_cells = {}, {}

    def loglik(layers):
        if config.prior_only:
            return 0.0
        fv = compose(layers, data.X, design_cells)
        return float(np.sum(data.Y * fv - 0.5 * fv**2))

    # initialize at a prior draw (first structure with feasible conditioning)
    order = np.argsort(-probs)
    cur_idx = None
    for k in order:
        if probs[k] <= 0:
            continue
        st = _fresh_state(structures[k], spec, rng)
        if st is not None:
            cur_idx, cur_states = int(k), st
            break
    if cur_idx is None:
        raise ConditioningError("no structure admits a feasible conditioned draw")
    cur_layers = build_layers(structures[cur_idx], cur_states)
    cur_ll = loglik(cur_layers)

    it = config.iterations
    s_idx = np.empty(it, dtype=int)
    lls = np.empty(it)
    errs = np.empty(it)
    bes = np.empty(it)
    sups = np.empty(it)
    pcn_acc = pcn_tot = str_acc = str_tot = str_exhausted = 0
    rho = config.pcn_step
    cum = np.cumsum(probs)

    for t in range(it):
        if rng.random() < config.structure_move_prob:
            str_tot += 1
            k = _structure_index(cum, rng.random())
            prop_states = _fresh_state(structures[k], spec, rng)
            if prop_states is None:
                str_exhausted += 1
            else:
                prop_layers = build_layers(structures[k], prop_states)
                prop_ll = loglik(prop_layers)
                if math.log(rng.random() + 1e-300) < prop_ll - cur_ll:
                    cur_idx, cur_states = k, prop_states
                    cur_layers, cur_ll = prop_layers, prop_ll
                    str_acc += 1
        else:
            pcn_tot += 1
            prop_states = {}
            for key, ns in cur_states.items():
                z = rho * ns.z + math.sqrt(1 - rho * rho) * rng.standard_normal(len(ns.z))
                path = path_from_state(ns.gp_spec, z)
                if not in_conditioning_set(path, ns.gp_spec.beta, ns.K)[0]:
                    break
                prop_states[key] = Node(z, path, ns.gp_spec, ns.K)
            else:
                prop_layers = build_layers(structures[cur_idx], prop_states)
                prop_ll = loglik(prop_layers)
                if math.log(rng.random() + 1e-300) < prop_ll - cur_ll:
                    cur_states, cur_layers, cur_ll = prop_states, prop_layers, prop_ll
                    pcn_acc += 1

        fe = compose(cur_layers, eval_pts, eval_cells)
        s_idx[t] = cur_idx
        lls[t] = cur_ll
        errs[t] = (math.sqrt(float(np.sum(eval_w * (fe - truth_eval) ** 2)))
                   if truth_eval is not None else math.nan)
        sups[t] = float(np.max(np.abs(fe)))
        bes[t] = (max(besov_norm(ns.path, ns.gp_spec.beta) for ns in cur_states.values())
                  if spec.profile.family == WAVELET else math.nan)

    burn = int(config.burn_in * it)
    return PosteriorTrace(
        structures=structures, structure_idx=s_idx, log_lik=lls, l2_error=errs,
        besov=bes, sup=sups,
        pcn_acceptance=pcn_acc / pcn_tot if pcn_tot else math.nan,
        structure_acceptance=str_acc / str_tot if str_tot else math.nan,
        structure_exhausted=str_exhausted, burn=burn,
    )


def model_mass(trace: PosteriorTrace, spec: StructurePriorSpec, eta_star,
               C: float, cap_enabled: bool = False) -> float:
    """Post-burn-in posterior mass on the good-model set.

    Good set: eps_n(eta) <= C eps_n(eta*), intersected (only when cap_enabled)
    with |d|_1 <= log(2 log n).  The cap is asymptotic and excludes everything
    at desk scale, hence disabled by default.
    """
    eps_star = eps_structure(eta_star, spec.profile, spec.n)
    cap = math.log(2.0 * math.log(spec.n))
    good = []
    for eta in trace.structures:
        ok = eps_structure(eta, spec.profile, spec.n) <= C * eps_star * (1 + 1e-12)
        if cap_enabled:
            ok = ok and eta.graph.num_nodes <= cap
        good.append(ok)
    idx = trace.post_burn(trace.structure_idx)
    return float(np.mean([good[k] for k in idx]))


def contraction_runs(f_star, eta_star, spec: StructurePriorSpec,
                     config: PosteriorConfig, n_list, seeds=(0,)):
    """Yield (row, spec_n, traces) per n, one posterior run per seed.

    row is (n, median over seeds of the post-burn median L2 error, eps_n(eta*),
    r_n(eta*)).  Seed s draws its data with seed config.seed + s + 1000 n and
    runs its chain with seed config.seed + s.
    """
    if list(n_list) != sorted(n_list):
        raise ValidationError("n_list must be increasing")
    for n in map(int, n_list):
        spec_n = replace(spec, n=n)
        traces = []
        for s in seeds:
            seed = config.seed + int(s)
            data = generate_data(f_star, n=n, seed=seed + 1000 * n,
                                 input_dim=eta_star.graph.dims[0])
            traces.append(run_mcmc(data, spec_n, replace(config, seed=seed)))
        err = float(np.median([np.median(t.post_burn(t.l2_error)) for t in traces]))
        row = (n, err, eps_structure(eta_star, spec.profile, n),
               minimax_rate(eta_star, n).value)
        yield row, spec_n, traces

