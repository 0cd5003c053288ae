"""Set-up probe: ``python -m deepgp_lab.cli`` that stops when the handler is entered.

    python perfbench/probe.py METER_JSON fit --config cfg.json --seed 1 --out out/

Interpreter start, imports, argument parsing and config validation run as in
the CLI, under the host-speed meter (``meter.py``).  The command handler is
replaced by one that writes the meter's summary to ``METER_JSON``, prints
``time.monotonic()`` (a system-wide clock on Linux, so the parent can subtract
its own launch time) and exits at once.
"""

import os
import sys
import time

import meter


def _entered(cfg, seed, out_dir):
    entered = time.monotonic()
    meter.stop(sys.argv[1])
    sys.stdout.write(f"{entered!r}\n")
    sys.stdout.flush()
    os._exit(0)


if __name__ == "__main__":
    meter.start()
    from deepgp_lab import cli  # imports are measured under the meter

    for name in ("_cmd_rates", "_cmd_sample", "_cmd_prior", "_cmd_fit", "_cmd_diagnose"):
        setattr(cli, name, _entered)
    sys.exit(cli.main(sys.argv[2:]))
