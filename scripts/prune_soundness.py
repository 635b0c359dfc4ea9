#!/usr/bin/env python3
"""Check that every plan the exhaustive search counts without running it
would have repeated its representative's run exactly.

The search runs each plan shape of a (command, rsp) branch under the first
payload binding with labelled payload registers.  When no labelled value
reached an address, a branch, rsp, a control target or an event field, the
same shape under every later binding is counted as covered
(`adversary._covered`) instead of run.  This script runs each covered plan
anyway, next to its representative, and requires the same trace, status,
steps and boundaries, over the same sweep as scripts/monitor_agreement.py:
every variant on sgx 1 and 2, in range and strict sp-confinement mode.  It
prints the number of plans compared and exits 1 at the first mismatch.

Usage: python scripts/prune_soundness.py [--variant NAME ...]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from aexlab import adversary, explorer, reporting  # noqa: E402
from aexlab.harness import run_plan  # noqa: E402
from aexlab.runtimes import VARIANTS  # noqa: E402


class Mismatch(Exception):
    pass


def checked(covered, counter: list):
    """Wrap `adversary._covered` so every covered plan is run and compared
    with a run of its representative."""
    def wrapper(image, snapshot, entry, inject, rep, budget):
        steps, boundaries = covered(image, snapshot, entry, inject, rep,
                                    budget)
        actions = adversary._candidate_actions(entry(), inject)
        got = run_plan(snapshot.clone(), image, actions,
                       max_steps=budget.max_steps)
        want = run_plan(snapshot.clone(), image, rep[0],
                        max_steps=budget.max_steps)
        if got.trace != want.trace:
            diverge = next((i for i, (a, b) in enumerate(zip(got.trace,
                                                             want.trace))
                            if a != b), min(len(got.trace), len(want.trace)))
            raise Mismatch(f"plan {actions} differs from its representative "
                           f"at trace event {diverge}")
        if (got.status, got.steps, got.boundaries) != (
                want.status, steps, boundaries) or want.steps != steps:
            raise Mismatch(f"plan {actions}: status/steps/boundaries "
                           f"{(got.status, got.steps, got.boundaries)}, "
                           f"representative {(want.status, want.steps)}, "
                           f"counted {(steps, boundaries)}")
        counter[0] += 1
        return steps, boundaries
    return wrapper


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--variant", action="append", choices=VARIANTS,
                    help="restrict the sweep (repeatable); default: all")
    args = ap.parse_args()

    counter = [0]
    adversary._covered = checked(adversary._covered, counter)
    for variant in args.variant or VARIANTS:
        for sgx in (1, 2):
            for mode in ("range", "strict"):
                scenario = reporting.normalize_scenario({
                    "variant": variant, "sgx_version": sgx,
                    "adversary": "exhaustive", "sp_confinement_mode": mode})
                before, t0 = counter[0], time.monotonic()
                try:
                    out = explorer.run(scenario)
                except Mismatch as e:
                    print(f"MISMATCH {variant} sgx{sgx} {mode}: {e}")
                    return 1
                print(f"{variant} sgx{sgx} {mode}: {counter[0] - before} "
                      f"covered plans equal their representatives "
                      f"(executed {out.search.executed} of "
                      f"{out.search.runs}; "
                      f"{time.monotonic() - t0:.1f}s)", file=sys.stderr)
    print(f"{counter[0]} covered plans compared, all equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
