"""Host-speed meter, run inside a measured child process.

The host gives this benchmark vCPUs whose speed changes within seconds (by up
to about 1.9x for interpreter-bound code), so a wall time alone says as much
about the host as about the program.  The meter measures the host's speed at
the same moments as the program runs: every ``PERIOD_S`` of wall time a
``SIGALRM`` handler runs a fixed interpreter-bound kernel in the main thread,
between two bytecodes of the program, and times it.  The parent divides the
program's wall time by the kernel's mean time over the invocation, which
removes the host's speed, and multiplies by ``NOMINAL_KERNEL_S`` to give
seconds again (``run.speed_scaled``).  The kernel touches no state of the
program, so the outputs stay byte-identical.

Run as a script it stands in for ``python -m deepgp_lab.cli``:

    python perfbench/meter.py METER_JSON fit --config cfg.json --seed 1 --out out/

It writes ``{"n": samples, "total_s": ..., "mean_s": ...}`` to ``METER_JSON``
and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import signal
import sys
import time

PERIOD_S = 0.01
# The kernel's time on an unloaded core of the machine the benchmark was
# defined on (Xeon, 2 vCPUs under KVM): scaled times are seconds at that speed.
NOMINAL_KERNEL_S = 50e-6

_samples = []


def _kernel():
    table, acc = {}, 0
    for i in range(400):
        table[i & 31] = table.get(i & 31, 0) + 3 * i
        acc += i % 7
    return acc


def _sample(signum, frame):
    t0 = time.perf_counter()
    _kernel()
    _samples.append(time.perf_counter() - t0)


def start():
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop(path):
    """Stop sampling and write the summary to ``path``."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    n, total = len(_samples), sum(_samples)
    with open(path, "w") as fh:
        json.dump({"n": n, "total_s": total, "mean_s": total / n if n else None}, fh)


def main(argv):
    start()
    try:
        from deepgp_lab import cli
        return cli.main(argv[1:])
    finally:
        stop(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
