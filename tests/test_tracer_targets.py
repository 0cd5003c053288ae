"""perfbench/tracer.py names the deepgp_lab functions it wraps as strings, so a
rename in the package breaks ``--trace 1`` only when the benchmark runs.  This
resolves every name without running anything."""

import importlib
import importlib.util
import pathlib

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
