"""Programmatic verification suites behind `deepgp-lab verify`.

Each check returns (name, ok, detail).  These are the same properties the test
suite asserts, packaged so they can run from the CLI without pytest.
"""

from __future__ import annotations

import math

import numpy as np

from . import funcspace, gp, prior, rates, structure
from .errors import ValidationError
from .rates import RateProfile

__all__ = ["run_suite", "SUITES"]


def _random_structure(rng, max_q=2, max_width=3, bounds=(0.3, 1.0)):
    q = int(rng.integers(0, max_q + 1))
    dims = [int(rng.integers(1, max_width + 1)) for _ in range(q + 1)] + [1]

    def active_set(d):  # a nonempty subset of 1..d, its size drawn first
        return sorted(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False) + 1)

    g = structure.CompositionGraph(
        dims[0], [[active_set(dims[i]) for _ in range(dims[i + 1])] for i in range(q + 1)])
    betas = tuple(float(rng.uniform(*bounds)) for _ in range(q + 1))
    return structure.CompositionStructure(graph=g, betas=betas, bounds=bounds)


def check_redundancy_rates(trials=200, seed=7):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        eta = _random_structure(rng)
        reduced = structure.reduce_redundant(eta)
        for n in (10**3, 10**6):
            a = rates.minimax_rate(eta, n).value
            b = rates.minimax_rate(reduced, n).value
            worst = max(worst, abs(a - b) / a)
    return "redundancy-rate-equality", worst < 1e-12, f"worst relative error {worst:.3e}"


def check_eps_ratio(trials=1000, seed=11, n=10**5):
    rng = np.random.default_rng(seed)
    profile = RateProfile(family=rates.WAVELET)
    delta = 1.0 / math.log(n) ** 2
    for k in range(trials):
        eta_lo = _random_structure(rng, bounds=(0.3, 2.0))
        hi_betas = tuple(min(b + float(rng.uniform(0, delta)), eta_lo.bounds[1])
                         for b in eta_lo.betas)
        eta_hi = structure.CompositionStructure(graph=eta_lo.graph, betas=hi_betas,
                                                bounds=eta_lo.bounds)
        e_hi = rates.eps_structure(eta_hi, profile, n)
        e_lo = rates.eps_structure(eta_lo, profile, n)
        q_bound = math.exp(eta_lo.bounds[1])
        if not (e_hi <= e_lo * (1 + 1e-12) and e_lo <= q_bound * e_hi * (1 + 1e-12)):
            return "rate-comparison-sandwich", False, f"violated at trial {k}: {e_hi} vs {e_lo}"
    return "rate-comparison-sandwich", True, "all pairs within the e^{beta+} band"


def check_floor(trials=200, seed=13):
    """eps_alpha against the entropy floor at random (beta, alpha, r, n).  One
    trial in four takes alpha = 1, where a wavelet rate is its own branch."""
    rng = np.random.default_rng(seed)
    for fam in (rates.WAVELET, rates.FBM, rates.STATIONARY):
        profile = RateProfile(family=fam)
        for k in range(trials):
            beta = float(rng.uniform(0.3, 0.95 if fam == rates.FBM else 2.0))
            alpha = 1.0 if k % 4 == 0 else float(rng.uniform(0.2, 1.0))
            r = int(rng.integers(1, 4))
            n = int(rng.integers(10, 10**6))
            val = rates.eps_alpha(profile, alpha, beta, r, n)
            floor = rates.entropy_constant_Q1(beta, r, profile.holder_radius) ** (
                beta / (2 * beta + r)) * n ** (-rates.rate_exponent(beta, alpha, r))
            if val < floor * (1 - 1e-12):
                return "entropy-floor", False, (
                    f"{fam} beta={beta!r} alpha={alpha!r} r={r} n={n}: eps_alpha {val!r} "
                    f"below the floor {floor!r}")
    return "entropy-floor", True, "eps_alpha always dominates the entropy floor"


def check_besov_acceptance(draws=2000, seed=5):
    spec = gp.GpSpec(family=rates.WAVELET, beta=1.0, r=1, n=10**4)
    thr = prior.conditioning_limit(spec, RateProfile(family=rates.WAVELET))
    bound = gp.acceptance_lower_bound(gp.K_PRIME, spec.r)
    hits = 0
    for k in range(draws):
        p = gp.sample_path(spec, gp.rng_for(seed, (k,)))
        if funcspace.besov_norm(p, 1.0) <= thr:
            hits += 1
    rate = hits / draws
    sigma = math.sqrt(bound * (1 - bound) / draws)
    ok = rate >= bound - 3 * sigma
    return "besov-acceptance-bound", ok, f"empirical {rate:.4f} vs bound {bound:.4f}"


def check_fbm_origin(seed=3):
    spec = gp.GpSpec(family=rates.FBM, beta=0.5, r=1, n=100, grid=33)
    z = gp.rng_for(seed).standard_normal(gp.state_size(spec))
    p = gp.path_from_state(spec, z)
    # the released constant is z[0], so the path minus it is the pre-release path
    v = float(p.values[len(p.values) // 2] - z[0])
    return "fbm-pinned-at-origin", v == 0.0, f"pre-release value at 0 is {v}"


def check_holder_examples():
    xs = np.linspace(-1, 1, 257)
    f_lin = funcspace.GridPath(xs / 2)
    f_sq = funcspace.GridPath(xs**2)
    n1 = funcspace.holder_norm_empirical(f_lin, 1.0)
    n2 = funcspace.holder_norm_empirical(f_sq, 1.0)
    ok = abs(n1 - 1.0) < 0.02 and abs(n2 - 6.0) < 0.3
    return "holder-norm-examples", ok, f"x/2 -> {n1:.4f} (exp 1), x^2 -> {n2:.4f} (exp 6)"


def check_composition_bound(trials=100, seed=17):
    rng = np.random.default_rng(seed)
    K = 1.0

    def rand_layer():
        # wavelet draw rescaled into the radius-K smoothness ball (the bound
        # is only promised for layers inside the ball)
        spec = gp.GpSpec(family=rates.WAVELET, beta=1.0, r=1, n=256)
        p = gp.sample_path(spec, gp.rng_for(int(rng.integers(2**32))))
        # the norm is read on 129 nodes, finer than the path's 17 knots
        nodes = funcspace.GridPath(p(funcspace.grid_points(1, 129)))
        norm = funcspace.holder_norm_empirical(nodes, 1.0)
        scale = min(1.0, 0.95 * K / max(norm, 1e-12))
        return funcspace.WaveletPath(r=1, levels=[scale * lv for lv in p.levels])

    for k in range(trials):
        h0, h0t = rand_layer(), rand_layer()
        h1, h1t = rand_layer(), rand_layer()
        layers = [funcspace.LayerFunction([(h0, (1,))], 1),
                  funcspace.LayerFunction([(h1, (1,))], 1)]
        layers_t = [funcspace.LayerFunction([(h0t, (1,))], 1),
                    funcspace.LayerFunction([(h1t, (1,))], 1)]
        bound, gap = funcspace.composition_gap_bound(
            layers, layers_t, betas=(1.0, 1.0), K=K, eta_slacks=(0.0 + 1e-12, 1e-12))
        measured = gap(np.linspace(-1, 1, 401)[:, None])
        if bound < measured * (1 - 1e-9):
            return ("composition-gap-bound", False,
                    f"trial {k}: bound {bound!r} below the measured gap {measured!r}")
    return "composition-gap-bound", True, "bound dominates measured gap on random 2-layer pairs"


SUITES = {
    "rates": (check_eps_ratio, check_redundancy_rates, check_floor),
    "gp": (check_besov_acceptance, check_fbm_origin),
    "funcspace": (check_holder_examples, check_composition_bound),
}
SUITES["all"] = SUITES["rates"] + SUITES["gp"] + SUITES["funcspace"]


def run_suite(name):
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return [check() for check in SUITES[name]]
