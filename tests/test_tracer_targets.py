"""perfbench/tracer.py names the deepgp_lab functions it wraps as strings, so a
rename in the package breaks ``--trace 1`` only when the benchmark runs.  These
tests resolve every name, and run one short traced fit."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("module, attr", [t[1:3] for t in TARGETS],
                         ids=[t[0] for t in TARGETS])
def test_target_resolves_to_a_callable(module, attr):
    obj = importlib.import_module(f"deepgp_lab.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_traced_fit_keeps_the_iteration_contract(tmp_path):
    # perfbench/layers.py counts MCMC iterations by the error-grid compose that
    # ends each one and finds likelihood composes by the design's id; a traced
    # run must also write the bytes of an untraced one.  The tracer rebinds
    # module globals, so it runs in a child process.
    root = TRACER.parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  root / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    space = {"input_dim": 1, "max_q": 1, "max_width": 2, "max_nodes": 16,
             "beta_bounds": [0.5, 1.0]}
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "family": "stationary", "n": 200, "space": space,
        "beta_grid": [1.0], "truth": {"type": "prior_draw"},
        "posterior": {"iterations": 40, "pcn_step": 0.98, "structure_move_prob": 0.1,
                      "burn_in": 0.5}}))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    spans_path = tmp_path / "spans.json"
    fit = ["fit", "--config", str(cfg), "--seed", "5"]
    for argv in ([str(TRACER), str(spans_path), "0"] + fit + ["--out", str(tmp_path / "traced")],
                 ["-m", "deepgp_lab.cli"] + fit + ["--out", str(tmp_path / "plain")]):
        subprocess.run([sys.executable] + argv, cwd=root, env=env, check=True, timeout=300)
    spans = json.loads(spans_path.read_text())
    assert len(layers._iterations(spans)) == 40
    label, parent, note = layers.LABEL, layers.PARENT, layers.NOTE
    run = next(i for i, s in enumerate(spans) if s[label] == "inference.run_mcmc")
    assert any(s[label] == "funcspace.compose" and s[parent] == run
               and s[note] == spans[run][note] for s in spans)
    names = sorted(p.name for p in (tmp_path / "plain").iterdir() if p.name != "manifest.json")
    assert names == ["summary.csv", "trace.csv"]
    for name in names:
        assert (tmp_path / "traced" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()
