#!/usr/bin/env python3
"""Check that every injected plan the exhaustive search resumes from a
point equals a fresh run of the same plan.

A binding's dry run keeps a point (the machine and the run loop's state)
at each instruction boundary of its re-entry window, and each executed
plan that injects at boundary k resumes from point k instead of re-running
the k steps before it from the prefix snapshot.  This script runs each
resumed plan fresh from the prefix snapshot as well and requires the same
trace, status, steps, boundaries, actions applied, payload labels,
`influenced` flag and state digest, over the same sweep as
scripts/monitor_agreement.py: every variant on sgx 1 and 2, in range and
strict sp-confinement mode.  It prints the number of plans compared and
exits 1 at the first mismatch.

Usage: python scripts/resume_agreement.py [--variant NAME ...]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from aexlab import adversary, explorer, reporting  # noqa: E402
from aexlab.harness import Point  # noqa: E402
from aexlab.runtimes import VARIANTS  # noqa: E402


class Mismatch(Exception):
    pass


def _fields(res) -> dict:
    m = res.machine
    return {
        "status": res.status, "steps": res.steps,
        "boundaries": res.boundaries,
        "actions_applied": res.actions_applied,
        "payload": (m.payload, sorted(m.mem.payload),
                    [f.payload for f in m.ssa]),
        "influenced": m.influenced, "digest": m.digest(),
    }


def checked(run_plan, prefix_snapshot, counter: list):
    """Wrap `adversary.run_plan` so every resumed plan is also run fresh
    from the latest prefix snapshot, which `adversary._prefix_snapshot`
    (wrapped too) records."""
    snapshots = []

    def snapshot(*args):
        snapshots.append(prefix_snapshot(*args))
        return snapshots[-1]

    def wrapper(start, image, actions, **kwargs):
        res = run_plan(start, image, actions, **kwargs)
        if not isinstance(start, Point):
            return res
        fresh_kwargs = {k: v for k, v in kwargs.items() if k != "inject"}
        fresh = run_plan(snapshots[-1].clone(), image, actions,
                         **fresh_kwargs)
        if res.trace != fresh.trace:
            diverge = next((i for i, (a, b) in enumerate(zip(res.trace,
                                                             fresh.trace))
                            if a != b), min(len(res.trace), len(fresh.trace)))
            raise Mismatch(f"plan {actions} resumed at boundary "
                           f"{start.window_count} differs from its fresh "
                           f"run at trace event {diverge}")
        got, want = _fields(res), _fields(fresh)
        if got != want:
            diff = {k: (got[k], want[k]) for k in got if got[k] != want[k]}
            raise Mismatch(f"plan {actions} resumed at boundary "
                           f"{start.window_count}: resumed/fresh {diff}")
        counter[0] += 1
        return res
    return wrapper, snapshot


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--variant", action="append", choices=VARIANTS,
                    help="restrict the sweep (repeatable); default: all")
    args = ap.parse_args()

    counter = [0]
    adversary.run_plan, adversary._prefix_snapshot = checked(
        adversary.run_plan, adversary._prefix_snapshot, counter)
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
                      f"resumed plans equal their fresh runs "
                      f"(executed {out.search.executed} of "
                      f"{out.search.runs}, stepped {out.search.stepped}; "
                      f"{time.monotonic() - t0:.1f}s)", file=sys.stderr)
    print(f"{counter[0]} resumed plans compared, all equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
