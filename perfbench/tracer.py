"""Span tracer for deepgp_lab, installed from outside the package.

The tracer rebinds every module-level name across ``deepgp_lab.*`` that is
bound to a traced function (``inference`` imports ``compose``,
``path_from_state`` and ``in_conditioning_set`` by name, so patching only the
defining module would miss those calls) and replaces ``__call__`` on the path
and layer classes.  Spans stay in memory as
``[label, start, end, parent, run_id, note]`` and are written out once, when
the traced command has finished.

Run as a script it stands in for ``python -m deepgp_lab.cli``:

    python perfbench/tracer.py SPANS_JSON RUN_ID fit --config cfg.json --out out/

It exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np


def _n_points(args, result):
    return len(args[1])


def _accepted(args, result):
    return bool(result[0])


def _design_id(args, result):
    return id(args[0].X)


def _points_id(args, result):
    return id(args[1])


def _exhausted(args, result):
    return result is None


def _support_eff(args, result):
    logs = np.array([w.log_value for _, w in result])
    p = np.exp(logs[np.isfinite(logs)])
    p /= p.sum()
    return float(1.0 / np.sum(p * p))


def _count(args, result):
    return len(result)


# (label, module, attribute, note).  The note turns the call's arguments and
# result into the one value per span that the layer metrics need.
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("funcspace.wavelet_eval", "funcspace", "WaveletPath.__call__", _n_points),
    ("funcspace.grid_eval", "funcspace", "GridPath.__call__", None),
    ("funcspace.layer_eval", "funcspace", "LayerFunction.__call__", None),
    ("funcspace.compose", "funcspace", "compose", _points_id),
    ("funcspace.conditioning", "funcspace", "in_conditioning_set", _accepted),
    ("funcspace.holder_norm", "funcspace", "holder_norm_empirical", None),
    ("gp.path_from_state", "gp", "path_from_state", None),
    ("gp.sample_conditioned", "gp", "sample_conditioned", None),
    ("inference.run_mcmc", "inference", "run_mcmc", _design_id),
    ("inference.fresh_state", "inference", "_fresh_state", _exhausted),
    ("prior.weights", "prior", "structure_prior_weights", _support_eff),
    ("prior.sample_dgp", "prior", "sample_dgp", None),
    ("rates.psi_n", "rates", "psi_n", None),
    ("rates.eps_structure", "rates", "eps_structure", None),
    ("structure.enumerate", "structure", "enumerate_structures", _count),
)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, label, fn, note):
        spans, stack, clock, run_id = self.spans, self._stack, time.perf_counter, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, clock(), math.nan, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def install(self):
        """Wrap every target and rebind each name bound to it in deepgp_lab.*."""
        import deepgp_lab.cli  # noqa: F401  (imports every deepgp_lab module)

        modules = [m for name, m in sys.modules.items()
                   if name == "deepgp_lab" or name.startswith("deepgp_lab.")]
        for label, module, attr, note in TARGETS:
            owner = sys.modules[f"deepgp_lab.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(label, getattr(cls, meth), note))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(label, original, note)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, traced)


def main(argv):
    spans_path, run_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(run_id)
    tracer.install()
    from deepgp_lab import cli
    code = cli.main(cli_argv)
    with open(spans_path, "w") as fh:
        fh.write(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
