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
from reference import covering_number_oracle, kl_v2_hellinger


def _report(num, name, ok, detail, t0):
    line = (f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): "
            f"{detail} [{time.perf_counter() - t0:.1f}s]")
    print(line)
    assert ok, line


def test_criterion_01_besov_acceptance_bound():
    t0 = time.perf_counter()
    name, ok, detail = verify.check_besov_acceptance(draws=10**4, seed=101)
    ok = ok and (time.perf_counter() - t0) < 10.0
    _report(1, "besov acceptance bound", ok, detail, t0)


def test_criterion_02_redundancy_rate_equality():
    t0 = time.perf_counter()
    name, ok, detail = verify.check_redundancy_rates(trials=200, seed=7)
    ok = ok and (time.perf_counter() - t0) < 1.0
    _report(2, "redundancy rate equality", ok, detail, t0)


def test_criterion_03_rate_comparison_sandwich():
    t0 = time.perf_counter()
    name, ok, detail = verify.check_eps_ratio(trials=1000, seed=11, n=10**5)
    ok = ok and (time.perf_counter() - t0) < 1.0
    _report(3, "rate comparison sandwich", ok, detail, t0)


def _entropy_sandwich(covering_number):
    """Criterion 4's check: Q1(1, 1, 1) is 2.07e4 and, at delta 1 and 0.5, the
    log of the covering count of the discretized Holder ball is within Q1 / delta."""
    q1 = rates.entropy_constant_Q1(1.0, 1, 1.0)
    details = []
    ok = abs(q1 - 2.07e4) < 100
    for delta in (1.0, 0.5):
        n_cov = covering_number(1.0, 1, 1.0, delta, 4)
        lhs = math.log(max(n_cov, 1))
        ok = ok and lhs <= q1 / delta
        details.append(f"delta={delta}: log N = {lhs:.3f} <= {q1 / delta:.1f}")
    return ok, "; ".join(details)


def test_criterion_04_entropy_bound_sandwich():
    t0 = time.perf_counter()
    ok, detail = _entropy_sandwich(covering_number_oracle)
    ok = ok and (time.perf_counter() - t0) < 60.0
    _report(4, "entropy bound sandwich", ok, detail, t0)


def test_criterion_04_fails_when_the_count_exceeds_the_bound():
    # a covering count above e^{Q1/delta} (here 3^{ceil(Q1/delta)}) breaks the
    # sandwich inequality itself; the Q1 constant check still passes
    q1 = rates.entropy_constant_Q1(1.0, 1, 1.0)
    assert abs(q1 - 2.07e4) < 100
    ok, detail = _entropy_sandwich(lambda beta, r, K, delta, m: 3 ** math.ceil(q1 / delta))
    assert not ok
    assert "log N = 22741." in detail


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
        kl, _, hell = kl_v2_hellinger(
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
        kl, _, hell = kl_v2_hellinger(f, g, pts, w)
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
        L, _ = gp._grid_factor(rates.FBM, beta, 1, 33)
        rng = gp.rng_for(2024, (int(beta * 10),))
        z = rng.standard_normal((draws, len(L)))
        x = z @ L.T
        xs = funcspace.grid_points(1, 33)[:, 0]
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
    data = inference.generate_data(lambda x: np.zeros(len(x)), n=500, seed=0, input_dim=1)
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
        graph=structure.CompositionGraph(1, [[(1,)]]),
        betas=(1.0,), bounds=spec.space.beta_bounds)
    return prior.sample_dgp(eta, spec, seed=42), eta, spec


def test_criterion_09_empirical_contraction():
    t0 = time.perf_counter()
    f_star, eta_star, spec = _truth_draw()
    cfg = inference.PosteriorConfig(iterations=400, pcn_step=0.9,
                                    structure_move_prob=0.05, seed=0)
    rows = [row for row, _, _ in inference.contraction_runs(
        f_star, eta_star, spec, cfg, n_list=(200, 800, 3200, 12800),
        seeds=tuple(range(5)))]
    errs = [r[1] for r in rows]
    ns = [r[0] for r in rows]
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    ok = monotone and abs(slope - (-1.0 / 3.0)) <= 0.25
    ok = ok and (time.perf_counter() - t0) < 900.0
    _report(9, "empirical contraction", ok,
            f"median errors {['%.4f' % e for e in errs]} monotone, "
            f"log-log slope {slope:.3f} within 0.25 of -1/3", t0)


def _mass_trend(per_seed):
    """Criterion 10's check: the median over seeds of the posterior mass on
    over-complex structures (q > 0) does not rise from n = 200 to n = 3200."""
    masses = {n: float(np.median(fractions)) for n, fractions in per_seed.items()}
    ok = masses[3200] <= masses[200] + 1e-12
    return ok, (f"over-complex mass median {masses[200]:.4f} at n=200 -> "
                f"{masses[3200]:.4f} at n=3200 (non-increasing)")


def test_criterion_10_model_selection_trend():
    t0 = time.perf_counter()
    f_star, eta_star, _ = _truth_draw()
    # Narrow beta bounds keep eps_n moderate so the doubly-exponential size
    # penalty is what separates the two structures, not float noise in n eps^2.
    space = structure.StructureSpace(input_dim=1, max_q=1, max_width=1,
                                     beta_bounds=(0.5, 1.0))
    per_seed = {}
    for n in (200, 3200):
        spec = prior.StructurePriorSpec(
            space=space, profile=rates.RateProfile(family=rates.WAVELET),
            n=n, beta_grid=(1.0,))
        per_seed[n] = []
        for s in range(5):
            data = inference.generate_data(f_star, n=n, seed=s + 1000, input_dim=1)
            cfg = inference.PosteriorConfig(iterations=400, pcn_step=0.9,
                                            structure_move_prob=0.2, seed=s)
            trace = inference.run_mcmc(data, spec, cfg)
            idx = trace.post_burn(trace.structure_idx)
            over = np.array([trace.structures[k].graph.q > 0 for k in idx])
            per_seed[n].append(float(np.mean(over)))
    ok, detail = _mass_trend(per_seed)
    ok = ok and (time.perf_counter() - t0) < 900.0
    _report(10, "model-selection trend", ok, detail, t0)


def test_criterion_10_fails_when_the_mass_rises():
    # over-complex mass that grows with n, in every seed, breaks the trend
    ok, detail = _mass_trend({200: [0.0, 0.1, 0.05, 0.0, 0.2],
                              3200: [0.3, 0.4, 0.25, 0.5, 0.35]})
    assert not ok
    assert "0.0500 at n=200 -> 0.3500 at n=3200" in detail
    # the bound itself: equal masses pass, a rise of 1e-9 fails
    assert _mass_trend({200: [0.2], 3200: [0.2]})[0]
    assert not _mass_trend({200: [0.2], 3200: [0.2 + 1e-9]})[0]


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    g = structure.CompositionGraph(1, [[(1,)]])
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
