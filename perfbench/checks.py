"""Output checks for one CLI invocation, plus the digests of its outputs.

Each check returns a list of problems (empty when the outputs are correct)
and the facts the benchmark reports from them.  Digests are reported, never
gated on: they show whether a change kept the outputs byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from ess import geyer_ess


def digests(out_dir):
    """sha256 of every output file except manifest.json (it holds a timestamp)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name != "manifest.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def bytes_written(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir))


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_fit(out_dir, posterior):
    """trace.csv has one row per iteration with finite log_lik and l2_error,
    and the acceptance rates in summary.csv lie in [0, 1].

    The CLI writes structure_acceptance as nan when no structure move was
    proposed; that is accepted only if the chain never changed structure.
    """
    iterations = posterior["iterations"]
    trace = _rows(os.path.join(out_dir, "trace.csv"))
    summary = _rows(os.path.join(out_dir, "summary.csv"))
    problems = []
    if len(trace) != iterations:
        problems.append(f"trace.csv has {len(trace)} rows, expected {iterations}")
    ll = [float(r["log_lik"]) for r in trace]
    l2 = [float(r["l2_error"]) for r in trace]
    if not all(math.isfinite(v) for v in ll + l2):
        problems.append("trace.csv has a non-finite log_lik or l2_error")
    pcn = float(summary[0]["pcn_acceptance"])
    struct = float(summary[0]["structure_acceptance"])
    if not 0.0 <= pcn <= 1.0:
        problems.append(f"pcn_acceptance {pcn} outside [0, 1]")
    if math.isnan(struct):
        if len({r["structure_index"] for r in trace}) > 1:
            problems.append("structure_acceptance is nan but the structure changed")
        struct = 0.0
    elif not 0.0 <= struct <= 1.0:
        problems.append(f"structure_acceptance {struct} outside [0, 1]")
    facts = {"pcn_acceptance": pcn, "structure_acceptance": struct,
             "ess_log_lik": 0.0, "ess_l2_error": 0.0}
    if not problems:
        burn = int(posterior["burn_in"] * iterations)
        facts["ess_log_lik"] = geyer_ess(ll[burn:])
        facts["ess_l2_error"] = geyer_ess(l2[burn:])
    return problems, facts


def check_prior(out_dir, n_structures, draws):
    """One weights.csv row per enumerated structure, weights summing to 1
    within 1e-9, and the requested number of draws in draws.json."""
    weights = _rows(os.path.join(out_dir, "weights.csv"))
    problems = []
    if len(weights) != n_structures:
        problems.append(f"weights.csv has {len(weights)} rows, expected {n_structures}")
    total = math.fsum(float(r["weight"]) for r in weights)
    if not abs(total - 1.0) <= 1e-9:
        problems.append(f"weights sum to {total!r}, not 1 within 1e-9")
    with open(os.path.join(out_dir, "draws.json")) as fh:
        got = len(json.load(fh))
    if got != draws:
        problems.append(f"draws.json holds {got} draws, expected {draws}")
    facts = {"pcn_acceptance": 0.0, "structure_acceptance": 0.0,
             "ess_log_lik": 0.0, "ess_l2_error": 0.0}
    return problems, facts
