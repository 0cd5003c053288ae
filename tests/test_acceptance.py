"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion, prints a single
machine-readable pass/fail line (run with `pytest -s` to see them), and
asserts the stated tolerance.  Criteria are ordered; the whole file is
designed to finish well inside its per-criterion runtime budgets.
"""

import json
import math
import time

import numpy as np
from scipy import stats as spstats

from deepgp_lab import (cli, funcspace, gp, inference, prior, rates, structure,
                        verify)


def _report(num, name, ok, detail, t0):
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): "
            f"{detail} [{time.perf_counter() - t0:.1f}s]")
    print(line)
    assert ok, line


def test_criterion_01_besov_acceptance_bound():
    t0 = time.perf_counter()
    spec = gp.GpSpec(family=rates.WAVELET, beta=1.0, r=1, n=10**4, seed=101)
    thr = 3.0 * math.sqrt(2.0 * math.log(2.0))
    draws = 10**4
    hits = sum(
        funcspace.besov_norm(gp.sample_path(spec, key=(k,)), 1.0) <= thr
        for k in range(draws)
    )
    freq = hits / draws
    sigma = math.sqrt((2 / 3) * (1 / 3) / draws)
    ok = freq >= 2.0 / 3.0 - 3 * sigma
    ok = ok and (time.perf_counter() - t0) < 10.0
    _report(1, "besov acceptance bound", ok,
            f"empirical {freq:.4f} >= 2/3 - 3sigma = {2/3 - 3*sigma:.4f}", t0)


def test_criterion_02_redundancy_rate_equality():
    t0 = time.perf_counter()
    name, ok, detail = verify.check_redundancy_rates(trials=200, seed=7)
    ok = ok and (time.perf_counter() - t0) < 1.0
    _report(2, "redundancy rate equality", ok, detail, t0)


def test_criterion_03_rate_comparison_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    profile = rates.RateProfile(family=rates.WAVELET)
    n = 10**5
    delta = 1.0 / math.log(n) ** 2
    pairs = 0
    ok = True
    while pairs < 1000:
        eta_lo = verify._random_structure(rng, bounds=(0.3, 2.0))
        if eta_lo.graph.num_nodes > 12:
            continue
        pairs += 1
        hi = tuple(min(b + float(rng.uniform(0, delta)), eta_lo.bounds[1])
                   for b in eta_lo.betas)
        eta_hi = structure.CompositionStructure(graph=eta_lo.graph, betas=hi,
                                                bounds=eta_lo.bounds)
        e_hi = rates.eps_structure(eta_hi, profile, n)
        e_lo = rates.eps_structure(eta_lo, profile, n)
        if not (e_hi <= e_lo * (1 + 1e-12)
                and e_lo <= math.exp(eta_lo.bounds[1]) * e_hi * (1 + 1e-12)):
            ok = False
            break
    ok = ok and (time.perf_counter() - t0) < 1.0
    _report(3, "rate comparison sandwich", ok,
            f"{pairs} (structure, beta, beta') pairs within the e^(beta+) band", t0)


def test_criterion_04_entropy_bound_sandwich():
    t0 = time.perf_counter()
    q1 = rates.entropy_constant_Q1(1.0, 1, 1.0)
    details = []
    ok = abs(q1 - 2.07e4) < 100
    for delta in (1.0, 0.5):
        n_cov = funcspace.covering_number_oracle(1.0, 1, 1.0, delta, 4)
        lhs = math.log(max(n_cov, 1))
        ok = ok and lhs <= q1 / delta
        details.append(f"delta={delta}: log N = {lhs:.3f} <= {q1 / delta:.1f}")
    ok = ok and (time.perf_counter() - t0) < 60.0
    _report(4, "entropy bound sandwich", ok, "; ".join(details), t0)


def test_criterion_05_composition_bound():
    t0 = time.perf_counter()
    name, ok, detail = verify.check_composition_bound(trials=1000, seed=17)
    ok = ok and (time.perf_counter() - t0) < 30.0
    _report(5, "composition gap bound", ok,
            "bound >= measured sup gap on 1000 random 2-layer instances", t0)


def test_criterion_06_information_geometry():
    t0 = time.perf_counter()
    pts = np.linspace(-1, 1, 401)[:, None]
    w = np.full(len(pts), 1.0 / len(pts))
    ok = True
    for c in (0.1, 0.37, 0.9):
        kl, _, hell = inference.kl_v2_hellinger(
            lambda x, c=c: np.full(len(x), c), lambda x: np.zeros(len(x)), pts, w)
        ok = ok and abs(kl - c * c) <= 1e-12 * c * c
        target = 1 - math.exp(-(c * c) / 8)
        ok = ok and abs(hell - target) <= 1e-12 * target
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b = rng.uniform(-1, 1, size=2)
        f = lambda x, a=a: a * x[:, 0]
        g = lambda x, b=b: b * x[:, 0] ** 2
        q = float(np.max(np.abs(f(pts) - g(pts))))
        kl, _, hell = inference.kl_v2_hellinger(f, g, pts, w)
        ok = ok and hell <= kl / 8 + 1e-15
        ok = ok and hell >= math.exp(-q * q / 2) / 8 * kl - 1e-15
    ok = ok and (time.perf_counter() - t0) < 1.0
    _report(6, "information geometry identities", ok,
            "constant-offset closed forms to 1e-12 and sandwich on 100 pairs", t0)


def test_criterion_07_fbm_covariance_fidelity():
    t0 = time.perf_counter()
    draws = 10**4
    ok = True
    details = []
    for beta in (0.3, 0.5, 0.8):
        axes, pts, origin, rest, chol = gp._fbm_factor(beta, 1, 33)
        rng = gp.rng_for(2024, (int(beta * 10),))
        z = rng.standard_normal((draws, 1 + len(rest)))
        x = np.zeros((draws, len(pts)))
        x[:, rest] = z[:, 1:] @ chol.T
        xs = pts[:, 0]
        worst = 0.0
        for i, j in ((0, 16), (16, 24), (4, 28)):
            emp = float(np.var(x[:, i] - x[:, j]))
            target = abs(xs[i] - xs[j]) ** (2 * beta)
            worst = max(worst, abs(emp / target - 1.0))
        ok = ok and worst < 0.05
        details.append(f"beta={beta}: worst rel err {worst:.3f}")
    ok = ok and (time.perf_counter() - t0) < 60.0
    _report(7, "fBM covariance fidelity", ok, "; ".join(details), t0)


def _q0_spec(n):
    return prior.StructurePriorSpec(
        space=structure.StructureSpace(input_dim=1, max_q=0, max_width=1,
                                       beta_bounds=(0.5, 1.0)),
        profile=rates.RateProfile(family=rates.WAVELET),
        n=n, beta_grid=(1.0,),
    )


def test_criterion_08_sampler_null_test():
    t0 = time.perf_counter()
    spec = _q0_spec(500)
    data = inference.generate_data(lambda x: np.zeros(len(x)), n=500, seed=0)
    cfg = inference.PosteriorConfig(iterations=6000, pcn_step=0.2,
                                    structure_move_prob=0.0, burn_in=0.2,
                                    seed=0, prior_only=True)
    trace = inference.run_mcmc(data, spec, cfg)
    mcmc_besov = trace.post_burn(trace.besov)[::10]
    mcmc_sup = trace.post_burn(trace.sup)[::10]

    weighted = prior.structure_prior_weights(spec)
    eval_pts = funcspace.grid_points(1, 101)
    prior_besov, prior_sup = [], []
    for s in range(1000):
        d = prior.sample_prior(spec, 50_000 + s, weighted=weighted)
        prior_besov.append(max(
            funcspace.besov_norm(p, d.structure.betas[i])
            for i, layer in enumerate(d.layers) for p, _ in layer.components))
        prior_sup.append(float(np.max(np.abs(d(eval_pts)))))

    p_b = spstats.ks_2samp(mcmc_besov, prior_besov).pvalue
    p_s = spstats.ks_2samp(mcmc_sup, prior_sup).pvalue
    ok = p_b > 0.01 and p_s > 0.01
    ok = ok and (time.perf_counter() - t0) < 120.0
    _report(8, "sampler-correctness null test", ok,
            f"KS p-values besov={p_b:.3f}, sup={p_s:.3f} (both > 0.01)", t0)


def _truth_draw():
    spec = _q0_spec(200)
    eta = structure.CompositionStructure(
        graph=structure.make_graph(0, (1, 1), [[(1,)]]),
        betas=(1.0,), bounds=spec.space.beta_bounds)
    return prior.sample_dgp(eta, spec, seed=42), eta, spec


def test_criterion_09_empirical_contraction():
    t0 = time.perf_counter()
    f_star, eta_star, spec = _truth_draw()
    cfg = inference.PosteriorConfig(iterations=400, pcn_step=0.9,
                                    structure_move_prob=0.05, seed=0)
    rows = inference.contraction_curve(f_star, eta_star, spec, cfg,
                                       n_list=(200, 800, 3200, 12800),
                                       seeds=tuple(range(5)))
    errs = [r[1] for r in rows]
    ns = [r[0] for r in rows]
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    ok = monotone and abs(slope - (-1.0 / 3.0)) <= 0.25
    ok = ok and (time.perf_counter() - t0) < 900.0
    _report(9, "empirical contraction", ok,
            f"median errors {['%.4f' % e for e in errs]} monotone, "
            f"log-log slope {slope:.3f} within 0.25 of -1/3", t0)


def test_criterion_10_model_selection_trend():
    t0 = time.perf_counter()
    f_star, eta_star, _ = _truth_draw()
    # Narrow beta bounds keep eps_n moderate so the doubly-exponential size
    # penalty is what separates the two structures, not float noise in n eps^2.
    space = structure.StructureSpace(input_dim=1, max_q=1, max_width=1,
                                     beta_bounds=(0.5, 1.0))
    masses = {}
    for n in (200, 3200):
        spec = prior.StructurePriorSpec(
            space=space, profile=rates.RateProfile(family=rates.WAVELET),
            n=n, beta_grid=(1.0,))
        per_seed = []
        for s in range(5):
            data = inference.generate_data(f_star, n=n, seed=s + 1000)
            cfg = inference.PosteriorConfig(iterations=400, pcn_step=0.9,
                                            structure_move_prob=0.2, seed=s)
            trace = inference.run_mcmc(data, spec, cfg)
            idx = trace.post_burn(trace.structure_idx)
            over = np.array([trace.structures[k].graph.q > 0 for k in idx])
            per_seed.append(float(np.mean(over)))
        masses[n] = float(np.median(per_seed))
    ok = masses[3200] <= masses[200] + 1e-12
    ok = ok and (time.perf_counter() - t0) < 900.0
    _report(10, "model-selection trend", ok,
            f"over-complex mass median {masses[200]:.4f} at n=200 -> "
            f"{masses[3200]:.4f} at n=3200 (non-increasing)", t0)


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    g = structure.make_graph(0, (1, 1), [[(1,)]])
    eta = structure.CompositionStructure(graph=g, betas=(1.0,), bounds=(0.5, 1.0))
    rates_cfg = tmp_path / "rates.json"
    rates_cfg.write_text(json.dumps({
        "schema_version": 1, "structure": structure.structure_to_dict(eta),
        "family": "wavelet", "n_list": [100, 1000, 10000]}))
    sample_cfg = tmp_path / "sample.json"
    sample_cfg.write_text(json.dumps({
        "schema_version": 1, "family": "wavelet", "beta": 1.0, "r": 1,
        "n": 1024, "count": 5, "conditioned": True}))

    ok = True
    for cmd, cfg, files in (("rates", rates_cfg, ("rates.csv",)),
                            ("sample", sample_cfg, ("stats.csv", "paths.json"))):
        a, b = tmp_path / f"{cmd}_a", tmp_path / f"{cmd}_b"
        for out in (a, b):
            assert cli.main([cmd, "--config", str(cfg), "--seed", "5",
                             "--out", str(out)]) == 0
        for name in files:
            ok = ok and (a / name).read_bytes() == (b / name).read_bytes()
    ok = ok and (time.perf_counter() - t0) < 300.0
    _report(11, "CLI determinism", ok,
            "rates and sample reruns byte-identical (manifest excluded)", t0)
