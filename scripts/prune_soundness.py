#!/usr/bin/env python3
"""Check that every plan the exhaustive search counts without running it
would have repeated its representative's run exactly.

The search runs each plan shape of a (command, rsp) branch under the first
payload binding with labelled payload registers.  When no labelled value
reached an address, a branch, rsp, a control target or an event field, the
same shape under every later binding is covered: the search counts a
later binding's covered shapes as one group (`adversary._covered_group`,
called once per binding) instead of running them.  This script runs each
plan of every group anyway, next to its representative, and requires the
same trace, status, steps and boundaries, and the group's counted runs,
steps and injected boundaries to equal the sums over its plans.  The
sweep is that of scripts/monitor_agreement.py: every variant on sgx 1 and
2, in range and strict sp-confinement mode.  It prints the number of plans
compared and exits 1 at the first mismatch.

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


def checked(covered_group, counter: list):
    """Wrap `adversary._covered_group` so every plan of each counted group
    is run and compared with a run of its representative, and the group's
    totals with the sums over its representatives."""
    def wrapper(image, snapshot, binding, group, clean, budget):
        runs, steps, boundaries = covered_group(image, snapshot, binding,
                                                group, clean, budget)
        entry = adversary._binding_entry(*binding)
        want_steps = 0
        for shape in group.shapes:
            rep = clean[shape]
            actions = adversary._candidate_actions(entry, shape)
            got = run_plan(snapshot.clone(), image, actions,
                           max_steps=budget.max_steps)
            want = run_plan(snapshot.clone(), image, rep[0],
                            max_steps=budget.max_steps)
            if got.trace != want.trace:
                diverge = next((i for i, (a, b) in enumerate(
                    zip(got.trace, want.trace)) if a != b),
                    min(len(got.trace), len(want.trace)))
                raise Mismatch(f"plan {actions} differs from its "
                               f"representative at trace event {diverge}")
            if (got.status, got.steps, got.boundaries) != (
                    want.status, rep[1], rep[2]) or want.steps != rep[1]:
                raise Mismatch(f"plan {actions}: status/steps/boundaries "
                               f"{(got.status, got.steps, got.boundaries)}, "
                               f"representative {(want.status, want.steps)}"
                               f", kept {rep[1:]}")
            want_steps += want.steps
            counter[0] += 1
        want = (len(group.shapes), want_steps,
                sum(shape is not None for shape in group.shapes))
        if (runs, steps, boundaries) != want:
            raise Mismatch(f"group of {binding}: counted "
                           f"{(runs, steps, boundaries)}, its plans {want}")
        return runs, steps, boundaries
    return wrapper


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--variant", action="append", choices=VARIANTS,
                    help="restrict the sweep (repeatable); default: all")
    args = ap.parse_args()

    counter = [0]
    adversary._covered_group = checked(adversary._covered_group, counter)
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
