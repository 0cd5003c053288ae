"""Benchmark of the deepgp_lab CLI, run the way users run it.

    python3 perfbench/run.py --workload fit-stationary-n3200 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Each measured invocation is a fresh
Python process that runs ``deepgp_lab.cli.main <command>`` with
``PYTHONPATH=src`` (the package is not installed), one at a time: a closed
loop with a single client.  Untraced processes run the CLI under the
host-speed meter (``meter.py``), and their times are scaled to the meter's
nominal speed (``speed_scaled``).
BLAS and OpenMP are pinned to one thread.  The workload seed makes the config
and the CLI ``--seed`` of every invocation; invocation ``i`` of a run uses CLI
seed ``1000 * seed + i``.  Every invocation's outputs are checked, and their
sha256 digests are printed (not gated on).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over probes of the time from launch until the CLI
  handler is entered (interpreter start, imports, config validation),
  scaled to the meter's nominal speed;
* ``wall_s``: median time from launch to exit of one invocation, scaled to
  the meter's nominal speed;
* ``peak_rss_mb``: median over invocations of the child's maximum RSS.

``--trace 1`` runs pairs of an untraced and a traced invocation of the same
config, and reports the per-layer metrics of ``layers.PER_LAYER`` as medians
over the pairs.  The tracing overhead is the traced minus the untraced wall.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402  (after the thread pinning above)

from checks import bytes_written, check_fit, check_prior, digests  # noqa: E402
from layers import PER_LAYER, span_metrics  # noqa: E402
from meter import NOMINAL_KERNEL_S  # noqa: E402

HARD_LIMIT_S = 170.0  # every run must exit within 180 s
MIN_SETUP_PROBES = 9

SPACE_1D = {"input_dim": 1, "max_q": 1, "max_width": 2, "max_nodes": 16,
            "beta_bounds": [0.5, 1.0]}
SPACE_2D = {"input_dim": 2, "max_q": 2, "max_width": 2, "max_nodes": 16,
            "beta_bounds": [0.5, 1.0]}


def _fit_config(family, n, iterations):
    return {"schema_version": 1, "family": family, "n": n, "space": SPACE_1D,
            "beta_grid": [1.0], "truth": {"type": "prior_draw"},
            "posterior": {"iterations": iterations, "pcn_step": 0.98,
                          "structure_move_prob": 0.1, "burn_in": 0.5}}


# name -> (CLI command, config).  Why each was chosen is in BENCHMARK.json.
WORKLOADS = {
    "fit-wavelet-n1e5": ("fit", _fit_config("wavelet", 100_000, 30)),
    "fit-stationary-n3200": ("fit", _fit_config("stationary", 3200, 2000)),
    "prior-space-d2": ("prior", {"schema_version": 1, "family": "wavelet", "n": 3200,
                                 "space": SPACE_2D, "beta_grid": [0.5, 0.75, 1.0],
                                 "draws": 20}),
}


@dataclass(frozen=True)
class Launch:
    """One finished child process."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def speed_scaled(raw_s, meter_path):
    """``raw_s`` at the meter's nominal speed, or None without meter samples.

    The meter's own time is taken out first; what is left is divided by the
    kernel's mean time during the process, relative to its nominal time.
    """
    try:
        summary = json.loads(meter_path.read_text())
    except (OSError, ValueError):
        return None
    if not summary.get("n"):
        return None
    return (raw_s - summary["total_s"]) * NOMINAL_KERNEL_S / summary["mean_s"]


class Bench:
    def __init__(self, workload, seed, work):
        self.command, self.config = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.hard_deadline = time.monotonic() + HARD_LIMIT_S
        self.env = dict(os.environ, **BLAS_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps(self.config, indent=1) + "\n")
        self.attempted = self.failed = 0
        self.n_structures = None

    def launch(self, script_argv, tag):
        """Run one child to completion; wall time and max RSS come from wait4."""
        out_f, err_f = self.work / f"{tag}.stdout", self.work / f"{tag}.stderr"
        with open(out_f, "w") as out, open(err_f, "w") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen([sys.executable] + script_argv, cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            fd = os.pidfd_open(proc.pid)
            status = None
            try:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
                timeout_ms = max(0.0, self.hard_deadline - time.monotonic()) * 1e3
                if not poller.poll(timeout_ms):
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = time.monotonic()
            finally:
                os.close(fd)
                if status is None:  # interrupted: leave no child behind
                    proc.kill()
                    proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not Popen
        return Launch(proc.returncode, t1 - t0, usage.ru_maxrss / 1024.0,
                      out_f.read_text(), err_f.read_text()), t0

    def cli_args(self, i, out_dir):
        return [self.command, "--config", str(self.cfg_path),
                "--seed", str(1000 * self.seed + i), "--out", str(out_dir)]

    def probe(self, i):
        """Scaled seconds from launch until the handler is entered, or None on failure."""
        meter_path = self.work / f"probe{i}.meter"
        res, t0 = self.launch([str(BENCH / "probe.py"), str(meter_path)]
                              + self.cli_args(i, self.work / "probe"), f"probe{i}")
        try:
            entered = float(res.stdout.strip())
        except ValueError:
            entered = None
        scaled = None if entered is None else speed_scaled(entered - t0, meter_path)
        meter_path.unlink(missing_ok=True)
        self.attempted += 1
        if res.code != 0 or scaled is None:
            self.failed += 1
            print(f"# probe {i} failed: exit {res.code} {res.stderr.strip()[-300:]}")
            return None
        return scaled

    def invoke(self, i, spans_path=None):
        """One CLI invocation, checked; returns (launch, facts, digests) or None.

        Untraced invocations run under the meter; their ``facts["scaled_wall_s"]``
        is the wall time at the meter's nominal speed.
        """
        out_dir = self.work / (f"traced{i}" if spans_path else f"out{i}")
        meter_path = self.work / f"out{i}.meter"
        if spans_path:
            argv = [str(BENCH / "tracer.py"), str(spans_path), str(i)]
        else:
            argv = [str(BENCH / "meter.py"), str(meter_path)]
        res, _ = self.launch(argv + self.cli_args(i, out_dir), out_dir.name)
        scaled = None if spans_path else speed_scaled(res.wall_s, meter_path)
        meter_path.unlink(missing_ok=True)
        self.attempted += 1
        problems = [f"exit {res.code}: {res.stderr.strip()[-300:]}"] if res.code else []
        if not problems and not spans_path and scaled is None:
            problems = ["the meter took no samples"]
        facts, digest = {}, {}
        if not problems:
            try:
                problems, facts = self.check(out_dir)
                digest = digests(out_dir)
                facts["bytes_written"] = bytes_written(out_dir)
                facts["scaled_wall_s"] = scaled
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems = [f"unreadable outputs: {exc!r}"]
        shutil.rmtree(out_dir, ignore_errors=True)
        kind = "traced" if spans_path else "cli"
        if problems:
            self.failed += 1
            print(f"# {kind} {i} FAILED: {'; '.join(problems)}")
            return None
        ess = (f" ess.log_lik={facts['ess_log_lik']:.2f} "
               f"ess.l2_error={facts['ess_l2_error']:.2f}" if self.command == "fit" else "")
        scaled_text = "" if spans_path else f" scaled_wall_s={scaled:.4f}"
        print(f"# {kind} {i} seed={1000 * self.seed + i} wall_s={res.wall_s:.4f}"
              f"{scaled_text} rss_mb={res.rss_mb:.1f}{ess}")
        print("#   sha256 " + " ".join(f"{k}={v}" for k, v in digest.items()))
        return res, facts, digest

    def check(self, out_dir):
        if self.command == "fit":
            return check_fit(out_dir, self.config["posterior"])
        if self.n_structures is None:
            sys.path.insert(0, str(SRC))
            from deepgp_lab.structure import StructureSpace, enumerate_structures
            space = dict(self.config["space"], beta_bounds=tuple(
                self.config["space"]["beta_bounds"]))
            self.n_structures = len(enumerate_structures(StructureSpace(**space),
                                                         self.config["beta_grid"]))
        return check_prior(out_dir, self.n_structures, self.config["draws"])


def _median(values):
    return statistics.median(values) if values else 0.0


def _warm_up(bench):
    """One untimed probe, so that bytecode and page caches are warm, as for users."""
    bench.probe(0)
    bench.attempted = bench.failed = 0


def run_end_to_end(bench, seconds):
    deadline = time.monotonic() + seconds
    _warm_up(bench)
    setups, runs, i = [], [], 0
    while True:
        setups.append(bench.probe(i))
        runs.append(bench.invoke(i))
        i += 1
        walls = [r[0].wall_s for r in runs if r]
        if None in setups or not walls or \
                time.monotonic() + _median(walls) + _median(setups) > deadline:
            break
    while len(setups) < MIN_SETUP_PROBES and None not in setups:
        setups.append(bench.probe(len(setups)))
    ok = [r for r in runs if r]
    if None in setups or not ok:
        return None
    walls = [r[0].wall_s for r in ok]
    scaled_walls = [r[1]["scaled_wall_s"] for r in ok]
    if bench.command == "fit":
        for key in ("log_lik", "l2_error"):
            rates = [f[f"ess_{key}"] / res.wall_s for res, f, _ in ok]
            print(f"# ess_per_s.{key} median {_median(rates):.4f} 1/s over {len(rates)} "
                  f"invocations (min {min(rates, default=0):.4f}, "
                  f"max {max(rates, default=0):.4f}); not gated, see NOTES.md")
    print(f"# setup_s over {len(setups)} probes, wall_s and peak_rss_mb over "
          f"{len(ok)} invocations; failed_frac {bench.failed}/{bench.attempted}; "
          f"unscaled wall median {_median(walls):.4f} s")
    return {
        "setup_s": (_median(setups), "s"),
        "wall_s": (_median(scaled_walls), "s"),
        "peak_rss_mb": (_median([r[0].rss_mb for r in ok]), "MB"),
    }


def run_traced(bench, seconds):
    deadline = time.monotonic() + seconds
    _warm_up(bench)
    per_pair, i = [], 0
    while True:
        plain = bench.invoke(i)
        spans_path = bench.work / f"spans{i}.json"
        traced = bench.invoke(i, spans_path)
        i += 1
        if plain and traced:
            if plain[2] != traced[2]:
                bench.failed += 1
                print(f"# pair {i - 1}: tracing changed the outputs")
            else:
                spans = json.loads(spans_path.read_text())
                facts = dict(plain[1], wall_s=plain[0].wall_s,
                             traced_wall_s=traced[0].wall_s)
                metrics, iters = span_metrics(spans, facts)
                expected = (bench.config["posterior"]["iterations"]
                            if bench.command == "fit" else 0)
                if len(iters) != expected:
                    bench.failed += 1
                    print(f"# pair {i - 1}: traced {len(iters)} iterations, "
                          f"expected {expected}")
                else:
                    per_pair.append(metrics)
        spans_path.unlink(missing_ok=True)
        if not plain or not traced:
            break
        if time.monotonic() + plain[0].wall_s + traced[0].wall_s > deadline:
            break
    if not per_pair:
        return {}
    print(f"# per-layer medians over {len(per_pair)} traced invocations")
    return {name: (_median([m[name] for m in per_pair]), unit)
            for name, unit in PER_LAYER.items()}


def _environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    import scipy
    return (f"python {platform.python_version()} numpy {np.__version__} "
            f"scipy {scipy.__version__} blas {blas} nproc {os.cpu_count()} "
            f"blas_threads {BLAS_ENV['OMP_NUM_THREADS']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "deepgp_lab" / "cli.py").is_file():
        print(f"error: no deepgp_lab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace}")
        print(f"# env {_environment()}")
        bench = Bench(args.workload, args.seed, work)
        measure = run_traced if args.trace else run_end_to_end
        metrics = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        print("error: no invocation completed; no result", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
