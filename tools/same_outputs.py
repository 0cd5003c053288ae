"""Check that this checkout's CLI writes the same bytes as a base commit's.

    python tools/same_outputs.py BASE_REF

BASE_REF is checked out into a temporary git worktree.  The same commands then
run from it and from this checkout's working tree, each at CLI seeds 5, 7 and
12004: the two fit workloads and ``prior-space-d2`` of ``perfbench/run.py``,
a ``prior`` on three inputs whose weights list depth-1 structures and betas
with no exact binary form, a ``prior`` on five inputs whose size term is
e^{e^6}, a 1-D ``prior`` with wide beta bounds whose rate term is about
1e27, a 2-D ``fit`` whose chain switches structure, a 3-D wavelet ``fit``
whose error grid has 17^3 points, a conditioned ``fbm``
``sample``, an unconditioned ``stationary`` ``sample`` on two variables, one
``diagnose``, the README's ``rates``, conditioned wavelet ``sample`` and
posterior (``fit`` with a zero truth) examples and ``verify --suite all``.
Every file they write is compared, except ``manifest.json`` (it holds a
timestamp), and so are their exit codes, standard output and standard error
(``process.txt`` in each run's directory).  Each that differs is listed, and
so is each run that exits nonzero from this checkout.  The exit code is 1 if
any output differs, 2 if BASE_REF cannot be checked out, and 0 otherwise.

Configs are read from this checkout and given to both trees, which run with
BLAS and OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (5, 7, 12004)
ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SKIPPED = {"manifest.json"}


def _readme_example(*fields):
    """The README's first config with every one of fields."""
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return next(c for c in map(json.loads, blocks) if set(fields) <= set(c))


def jobs():
    """name -> (CLI command, config or None)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS  # the benchmark's own configs

    space = {"input_dim": 1, "max_q": 1, "max_width": 1, "beta_bounds": [0.5, 1.0]}
    return {
        **WORKLOADS,
        # fbm beta 0.8 at n 3200 has K below the Hoelder ceiling: its checks read the norm
        "sample-fbm-conditioned": ("sample", {
            "schema_version": 1, "family": "fbm", "beta": 0.8, "r": 1, "n": 3200,
            "count": 3, "conditioned": True}),
        # an unconditioned draw, gp.sample_path
        "sample-stationary-r2": ("sample", {
            "schema_version": 1, "family": "stationary", "beta": 1.0, "r": 2, "n": 200,
            "count": 3}),
        # 1,407 structures of depth 0 and 1, with betas 0.6 and 0.8, which have
        # no exact binary form
        "prior-d3": ("prior", {
            "schema_version": 1, "family": "wavelet", "n": 3200,
            "space": {"input_dim": 3, "max_q": 1, "max_width": 2, "beta_bounds": [0.5, 1.0]},
            "beta_grid": [0.6, 0.8, 1.0], "draws": 5}),
        # every structure has |d|_1 = 6: the rate term beside a size term of e^{e^6}
        "prior-d5": ("prior", {
            "schema_version": 1, "family": "wavelet", "n": 3200,
            "space": {"input_dim": 5, "max_q": 0, "max_width": 1, "beta_bounds": [0.5, 1.0]},
            "beta_grid": [0.5, 1.0], "draws": 3}),
        # a rate term of about 1e27 beside the size gap of about 5.3e8 from depth 0 to 1
        "prior-wide-bounds": ("prior", {
            "schema_version": 1, "family": "wavelet", "n": 3200,
            "space": {"input_dim": 1, "max_q": 1, "max_width": 2, "beta_bounds": [0.5, 2.0]},
            "beta_grid": [1.0, 1.5], "draws": 5}),
        # two one-input structures share the prior's mass; at seeds 5 and 7 the
        # chain visits both, so it reaches a structure's first proposal and a switch
        "fit-stationary-d2": ("fit", {
            "schema_version": 1, "family": "stationary", "n": 400,
            "space": {"input_dim": 2, "max_q": 0, "max_width": 1, "beta_bounds": [0.5, 1.0]},
            "beta_grid": [1.0], "truth": {"type": "prior_draw"},
            "posterior": {"iterations": 300, "pcn_step": 0.98, "structure_move_prob": 0.3,
                          "burn_in": 0.5}}),
        # a 17^3 error grid; the three one-input structures share the prior's
        # mass, and at seeds 5, 7 and 12004 the chain visits 2 or 3 of them
        "fit-wavelet-d3": ("fit", {
            "schema_version": 1, "family": "wavelet", "n": 400,
            "space": {"input_dim": 3, "max_q": 0, "max_width": 1, "beta_bounds": [0.5, 1.0]},
            "beta_grid": [1.0], "truth": {"type": "prior_draw"},
            "posterior": {"iterations": 100, "pcn_step": 0.98, "structure_move_prob": 0.3,
                          "burn_in": 0.5}}),
        "diagnose-stationary": ("diagnose", {
            "schema_version": 1, "family": "stationary", "n": 400, "space": space,
            "beta_grid": [1.0], "truth": {"type": "prior_draw"}, "n_list": [200, 400],
            "C": 2.0, "posterior": {"iterations": 300, "pcn_step": 0.9,
                                    "structure_move_prob": 0.1, "burn_in": 0.5}}),
        "rates-readme": ("rates", _readme_example("structure", "n_list")),
        # wavelet nodes on their knot grids (gp.value_grid)
        "sample-readme": ("sample", _readme_example("conditioned")),
        # truth.type "zero"
        "fit-readme": ("fit", _readme_example("truth")),
        "verify-all": ("verify", None),
    }


def run_all(tree, work, configs, config_dir):
    """Run every job at every seed from ``tree``, writing under ``work``; each
    run's exit code, stdout and stderr go to process.txt in its output directory."""
    env = dict(os.environ, **ENV, PYTHONPATH=str(tree / "src"))
    for name, (command, cfg) in configs.items():
        args = (["--config", str(config_dir / f"{name}.json")] if cfg is not None
                else ["--suite", "all"])
        for seed in SEEDS:
            out = Path(name) / str(seed)  # relative to work: the same text in both trees
            proc = subprocess.run(
                [sys.executable, "-m", "deepgp_lab.cli", command, *args,
                 "--seed", str(seed), "--out", str(out)],
                cwd=work, env=env, capture_output=True, text=True)
            (work / out).mkdir(parents=True, exist_ok=True)
            (work / out / "process.txt").write_text(
                f"{proc.returncode}\n{proc.stdout}\n{proc.stderr}")


def differences(a, b):
    """The files under a or b, relative, whose bytes differ or that only one has."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and p.name not in SKIPPED}
    return sorted(rel for rel in files(a) | files(b)
                  if not ((a / rel).is_file() and (b / rel).is_file()
                          and (a / rel).read_bytes() == (b / rel).read_bytes()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref", help="the commit to compare this checkout with")
    args = parser.parse_args(argv)
    configs = jobs()
    with tempfile.TemporaryDirectory(prefix="same_outputs.") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        if subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                           str(base), args.base_ref]).returncode != 0:
            print(f"cannot check out {args.base_ref!r}", file=sys.stderr)
            return 2
        try:
            config_dir = tmp / "configs"
            config_dir.mkdir()
            for name, (_, cfg) in configs.items():
                if cfg is not None:
                    (config_dir / f"{name}.json").write_text(json.dumps(cfg))
            for label, tree in (("base", base), ("head", ROOT)):
                (tmp / f"out-{label}").mkdir()
                run_all(tree, tmp / f"out-{label}", configs, config_dir)
            diff = differences(tmp / "out-base", tmp / "out-head")
            failed = sorted(str(p.parent.relative_to(tmp / "out-head"))
                            for p in (tmp / "out-head").rglob("process.txt")
                            if p.read_text().split("\n", 1)[0] != "0")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(base)], check=True)
    runs = len(configs) * len(SEEDS)
    for run in failed:
        print(f"note: {run} exits nonzero from this checkout")
    if diff:
        print(f"{len(diff)} outputs differ from {args.base_ref} ({runs} runs, "
              f"seeds {', '.join(map(str, SEEDS))}):")
        for rel in diff:
            print(f"  {rel}")
        return 1
    print(f"every output of {runs} runs (seeds {', '.join(map(str, SEEDS))}) is the same "
          f"as at {args.base_ref}, manifest.json aside")
    return 0


if __name__ == "__main__":
    sys.exit(main())
