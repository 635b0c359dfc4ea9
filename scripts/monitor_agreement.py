#!/usr/bin/env python3
"""Check that the exhaustive search's checkpointed safety monitor agrees
with a from-scratch `properties.evaluate` on every run it makes.

Each search run resumes the monitor state saved after the shared prefix
and feeds it only the events the run appended.  This script re-evaluates
every run's whole trace from an empty monitor and compares the verdicts
(`to_dict()`) over the full sweep: every variant on sgx 1 and 2, in range
and strict sp-confinement mode.  It prints the number of runs compared and
exits 1 at the first mismatch.

Usage: python scripts/monitor_agreement.py [--variant NAME ...]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from aexlab import adversary, explorer, properties, reporting  # noqa: E402
from aexlab.runtimes import VARIANTS  # noqa: E402


class Mismatch(Exception):
    pass


def checked(resume, counter: list):
    """Wrap `adversary._monitored` so every resumed monitor is compared
    with a from-scratch evaluation of the same trace."""
    def wrapper(checkpoint, trace):
        monitor = resume(checkpoint, trace)
        got = [v.to_dict() for v in monitor.verdicts()]
        want = [v.to_dict() for v in properties.evaluate(
            trace, monitor.image, properties.SAFETY_PROPERTIES,
            sp_mode=monitor.sp_mode)]
        if got != want:
            raise Mismatch(f"resumed {got} != from scratch {want}")
        counter[0] += 1
        return monitor
    return wrapper


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--variant", action="append", choices=VARIANTS,
                    help="restrict the sweep (repeatable); default: all")
    args = ap.parse_args()

    counter = [0]
    adversary._monitored = checked(adversary._monitored, counter)
    for variant in args.variant or VARIANTS:
        for sgx in (1, 2):
            for mode in ("range", "strict"):
                scenario = reporting.normalize_scenario({
                    "variant": variant, "sgx_version": sgx,
                    "adversary": "exhaustive", "sp_confinement_mode": mode})
                before, t0 = counter[0], time.monotonic()
                try:
                    explorer.run(scenario)
                except Mismatch as e:
                    print(f"MISMATCH {variant} sgx{sgx} {mode} after "
                          f"{counter[0]} runs: {e}")
                    return 1
                print(f"{variant} sgx{sgx} {mode}: {counter[0] - before} "
                      f"runs agree ({time.monotonic() - t0:.1f}s)",
                      file=sys.stderr)
    print(f"{counter[0]} runs compared, all agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
