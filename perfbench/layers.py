"""Per-layer metrics of one traced CLI invocation, computed from its spans.

A span is ``[label, start, end, parent, run_id, note]`` as written by
``tracer.py``.  Self time is a span's duration minus the durations of its
direct child spans; the traced calls nest strictly, so children never overlap.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LABEL, START, END, PARENT, RUN, NOTE = range(6)

# name -> unit, in report order.  ``share`` metrics divide a layer's time by
# the wall time of ``cli.main``.
PER_LAYER = {
    "funcspace.wavelet_eval.calls": "count",
    "funcspace.wavelet_eval.points": "count",
    "funcspace.wavelet_eval.self_s": "s",
    "funcspace.wavelet_eval.ns_per_point": "ns",
    "funcspace.wavelet_eval.share": "ratio",
    "funcspace.grid_eval.calls": "count",
    "funcspace.grid_eval.self_s": "s",
    "funcspace.conditioning.calls": "count",
    "funcspace.conditioning.rejects": "count",
    "funcspace.conditioning.self_s": "s",
    "funcspace.conditioning_grid.share": "ratio",
    "funcspace.holder_norm.self_s": "s",
    "funcspace.compose.calls": "count",
    "funcspace.compose.self_s": "s",
    "funcspace.layer_eval.self_s": "s",
    "gp.path_from_state.calls": "count",
    "gp.path_from_state.self_s": "s",
    "gp.sample_conditioned.calls": "count",
    "gp.sample_conditioned.attempts": "count",
    "gp.sample_conditioned.accept_ratio": "ratio",
    "gp.sample_conditioned.exhausted": "count",
    "inference.run_mcmc.self_s": "s",
    "inference.iter_ms.samples": "count",
    "inference.iter_ms.p50": "ms",
    "inference.iter_ms.tail": "ms",
    "inference.iter_ms.tail_pct": "%",
    "inference.loglik.calls": "count",
    "inference.loglik.s": "s",
    "inference.pcn.proposed": "count",
    "inference.pcn.left_set": "count",
    "inference.pcn.accept_ratio": "ratio",
    "inference.structure.proposed": "count",
    "inference.structure.exhausted": "count",
    "inference.structure.accept_ratio": "ratio",
    "inference.fresh_state.attempts": "count",
    "inference.ess.log_lik": "count",
    "inference.ess.l2_error": "count",
    "inference.ess_per_s.log_lik": "1/s",
    "inference.ess_per_s.l2_error": "1/s",
    "prior.weights.calls": "count",
    "prior.weights.self_s": "s",
    "prior.weights.s": "s",
    "prior.weights.share": "ratio",
    "prior.sample_dgp.calls": "count",
    "prior.sample_dgp.self_s": "s",
    "prior.support_eff": "count",
    "rates.psi_n.calls": "count",
    "rates.psi_n.self_s": "s",
    "rates.eps_structure.calls": "count",
    "rates.eps_structure.self_s": "s",
    "structure.enumerate.count": "count",
    "structure.enumerate.s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _covered(spans, labels):
    """Wall time covered by spans with these labels, each instant counted once."""
    total = 0.0
    for s in spans:
        if s[LABEL] not in labels:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][LABEL] not in labels:
            p = spans[p][PARENT]
        if p < 0:
            total += s[END] - s[START]
    return total


def _iterations(spans):
    """Per-iteration facts of the (single) MCMC run, from its direct children.

    Each iteration ends with ``compose`` on the evaluation grid; the first
    starts when the initial log-likelihood ``compose`` on the design returns.
    """
    runs = [i for i, s in enumerate(spans) if s[LABEL] == "inference.run_mcmc"]
    if not runs:
        return []
    run = runs[-1]
    design = spans[run][NOTE]
    kids = [s for s in spans if s[PARENT] == run]
    composes = [s for s in kids if s[LABEL] == "funcspace.compose"]
    first_ll = next(s for s in composes if s[NOTE] == design)
    ends = [s[END] for s in composes if s[NOTE] != design and s[START] > first_ll[END]]
    iters, k = [], 0
    kids = [s for s in kids if s[START] > first_ll[END]]
    start = first_ll[END]
    for end in ends:
        fresh, rejected = [], False
        while k < len(kids) and kids[k][START] < end:
            s = kids[k]
            if s[LABEL] == "inference.fresh_state":
                fresh.append(s[NOTE])
            elif s[LABEL] == "funcspace.conditioning" and s[NOTE] is False:
                rejected = True
            k += 1
        iters.append({"ms": (end - start) * 1e3, "structure": bool(fresh),
                      "exhausted": any(fresh), "left_set": not fresh and rejected})
        start = end
    return iters


def span_metrics(spans, facts):
    """Per-layer metrics of one traced invocation.

    ``facts`` carries what the spans cannot show: the summary acceptance rates,
    the ESS of the trace, the untraced and traced wall times, and the bytes
    the CLI wrote.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    child = defaultdict(float)
    notes = defaultdict(list)
    for s in spans:
        dur = s[END] - s[START]
        calls[s[LABEL]] += 1
        incl[s[LABEL]] += dur
        notes[s[LABEL]].append(s[NOTE])
        if s[PARENT] >= 0:
            child[spans[s[PARENT]][LABEL]] += dur
    self_s = defaultdict(float, {k: incl[k] - child[k] for k in incl})
    main = incl["cli.main"]

    by_parent = defaultdict(int)
    for s in spans:
        if s[LABEL] == "funcspace.conditioning" and s[PARENT] >= 0:
            by_parent[spans[s[PARENT]][LABEL]] += 1
    sc_ok = sum(1 for n in notes["gp.sample_conditioned"] if n is None)
    sc_attempts = by_parent["gp.sample_conditioned"]
    points = sum(notes["funcspace.wavelet_eval"])
    weights = notes["prior.weights"]

    iters = _iterations(spans)
    ms = sorted(it["ms"] for it in iters)
    tail_rank = len(ms) - 11  # the highest order statistic with 10 samples above it
    loglik = [s for s in spans if s[LABEL] == "funcspace.compose" and s[PARENT] >= 0
              and spans[s[PARENT]][LABEL] == "inference.run_mcmc"
              and s[NOTE] == spans[s[PARENT]][NOTE]]
    wall = facts["wall_s"]

    m = {
        "funcspace.wavelet_eval.calls": calls["funcspace.wavelet_eval"],
        "funcspace.wavelet_eval.points": points,
        "funcspace.wavelet_eval.self_s": self_s["funcspace.wavelet_eval"],
        "funcspace.wavelet_eval.ns_per_point":
            self_s["funcspace.wavelet_eval"] / points * 1e9 if points else 0.0,
        "funcspace.wavelet_eval.share": self_s["funcspace.wavelet_eval"] / main,
        "funcspace.grid_eval.calls": calls["funcspace.grid_eval"],
        "funcspace.grid_eval.self_s": self_s["funcspace.grid_eval"],
        "funcspace.conditioning.calls": calls["funcspace.conditioning"],
        "funcspace.conditioning.rejects": sum(1 for n in notes["funcspace.conditioning"]
                                              if n is False),
        "funcspace.conditioning.self_s": self_s["funcspace.conditioning"],
        "funcspace.conditioning_grid.share":
            _covered(spans, {"funcspace.conditioning", "funcspace.grid_eval"}) / main,
        "funcspace.holder_norm.self_s": self_s["funcspace.holder_norm"],
        "funcspace.compose.calls": calls["funcspace.compose"],
        "funcspace.compose.self_s": self_s["funcspace.compose"],
        "funcspace.layer_eval.self_s": self_s["funcspace.layer_eval"],
        "gp.path_from_state.calls": calls["gp.path_from_state"],
        "gp.path_from_state.self_s": self_s["gp.path_from_state"],
        "gp.sample_conditioned.calls": calls["gp.sample_conditioned"],
        "gp.sample_conditioned.attempts": sc_attempts,
        "gp.sample_conditioned.accept_ratio": sc_ok / sc_attempts if sc_attempts else 0.0,
        "gp.sample_conditioned.exhausted": calls["gp.sample_conditioned"] - sc_ok,
        "inference.run_mcmc.self_s": self_s["inference.run_mcmc"],
        "inference.iter_ms.samples": len(ms),
        "inference.iter_ms.p50": statistics.median(ms) if ms else 0.0,
        "inference.iter_ms.tail": ms[tail_rank] if tail_rank >= 0 else 0.0,
        "inference.iter_ms.tail_pct": 100.0 * (tail_rank + 1) / len(ms)
                                      if tail_rank >= 0 else 0.0,
        "inference.loglik.calls": len(loglik),
        "inference.loglik.s": sum(s[END] - s[START] for s in loglik),
        "inference.pcn.proposed": sum(1 for it in iters if not it["structure"]),
        "inference.pcn.left_set": sum(1 for it in iters if it["left_set"]),
        "inference.pcn.accept_ratio": facts["pcn_acceptance"],
        "inference.structure.proposed": sum(1 for it in iters if it["structure"]),
        "inference.structure.exhausted": sum(1 for it in iters if it["exhausted"]),
        "inference.structure.accept_ratio": facts["structure_acceptance"],
        "inference.fresh_state.attempts": by_parent["inference.fresh_state"],
        "inference.ess.log_lik": facts["ess_log_lik"],
        "inference.ess.l2_error": facts["ess_l2_error"],
        "inference.ess_per_s.log_lik": facts["ess_log_lik"] / wall,
        "inference.ess_per_s.l2_error": facts["ess_l2_error"] / wall,
        "prior.weights.calls": calls["prior.weights"],
        "prior.weights.self_s": self_s["prior.weights"],
        "prior.weights.s": incl["prior.weights"],
        "prior.weights.share": _covered(spans, {"prior.weights"}) / main,
        "prior.sample_dgp.calls": calls["prior.sample_dgp"],
        "prior.sample_dgp.self_s": self_s["prior.sample_dgp"],
        "prior.support_eff": weights[-1] if weights else 0.0,
        "rates.psi_n.calls": calls["rates.psi_n"],
        "rates.psi_n.self_s": self_s["rates.psi_n"],
        "rates.eps_structure.calls": calls["rates.eps_structure"],
        "rates.eps_structure.self_s": self_s["rates.eps_structure"],
        "structure.enumerate.count": max(notes["structure.enumerate"], default=0),
        "structure.enumerate.s": incl["structure.enumerate"],
        "cli.main_s": main,
        "cli.self_s": self_s["cli.main"],
        "cli.bytes_written": facts["bytes_written"],
        "trace.overhead_s": facts["traced_wall_s"] - wall,
        "trace.spans": len(spans),
    }
    return m, iters
