"""Checks of the benchmark's own code; no deepgp_lab run is needed.

    python3 perfbench/selftest.py

* Geyer ESS of AR(1) chains is within 10% of n (1 - phi) / (1 + phi), and a
  constant chain gives a defined value (1) rather than an error.
* Self time, covered time and counts from a hand-built span tree.
* Scaling a time by the host-speed meter's summary, and refusing to scale
  without samples.
* BENCHMARK.json lists exactly the per-layer metrics the tracer reports.

Exits 1 and names the failing check if any fails.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from ess import geyer_ess
from layers import PER_LAYER, span_metrics
from meter import NOMINAL_KERNEL_S
from run import speed_scaled

ROOT = Path(__file__).resolve().parent.parent


def _ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / math.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return x


def check_ess():
    failures = []
    n = 100_000
    for phi, seed in ((0.0, 1), (0.5, 2), (0.9, 3), (-0.3, 4)):
        want = n * (1.0 - phi) / (1.0 + phi)
        got = geyer_ess(_ar1(phi, n, seed))
        if abs(got / want - 1.0) > 0.10:
            failures.append(f"AR(1) phi={phi}: ESS {got:.0f}, expected about {want:.0f}")
    for chain in ([3.25] * 500, [0.1] * 7, [2.0]):
        got = geyer_ess(chain)
        if got != 1.0:
            failures.append(f"constant chain of length {len(chain)}: ESS {got}, expected 1")
    return failures


def check_self_time():
    # label, start, end, parent, run_id, note
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["funcspace.conditioning", 1.0, 4.0, 0, 0, False],
        ["funcspace.grid_eval", 1.5, 2.5, 1, 0, None],
        ["funcspace.grid_eval", 5.0, 6.0, 0, 0, None],
    ]
    facts = {"wall_s": 11.0, "traced_wall_s": 12.0, "bytes_written": 0,
             "pcn_acceptance": 0.0, "structure_acceptance": 0.0,
             "ess_log_lik": 0.0, "ess_l2_error": 0.0}
    got, _ = span_metrics(spans, facts)
    want = {"cli.self_s": 6.0, "funcspace.conditioning.self_s": 2.0,
            "funcspace.grid_eval.self_s": 2.0, "funcspace.grid_eval.calls": 2,
            "funcspace.conditioning.rejects": 1, "funcspace.conditioning_grid.share": 0.4,
            "trace.overhead_s": 1.0}
    return [f"{k} = {got[k]}, expected {v}" for k, v in want.items()
            if not math.isclose(got[k], v)]


def check_speed_scaled():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "meter.json"
        # 3.1 s with 0.1 s of meter samples, at half the nominal speed: 1.5 s.
        path.write_text(json.dumps({"n": 1000, "total_s": 0.1,
                                    "mean_s": 2 * NOMINAL_KERNEL_S}))
        got = speed_scaled(3.1, path)
        if not math.isclose(got, 1.5):
            failures.append(f"speed_scaled = {got}, expected 1.5")
        path.write_text(json.dumps({"n": 0, "total_s": 0.0, "mean_s": None}))
        if speed_scaled(3.1, path) is not None:
            failures.append("speed_scaled without samples is not None")
    return failures


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return [] if listed == PER_LAYER else [
        "BENCHMARK.json per_layer differs from layers.PER_LAYER: "
        f"{sorted(set(listed.items()) ^ set(PER_LAYER.items()))}"]


def main():
    failures = check_ess() + check_self_time() + check_speed_scaled() + check_benchmark_json()
    for f in failures:
        print(f"FAIL {f}")
    print("selftest ok" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
