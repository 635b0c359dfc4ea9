#!/usr/bin/env python3
"""Check that every run resumed from a point equals a fresh run of the
same plan: the exhaustive search's injected plans, and the trials of
counterexample minimization.

A binding's dry run keeps a point (the machine and the run loop's state)
at each instruction boundary of its re-entry window, and each executed
plan that injects at boundary k resumes from point k instead of re-running
the k steps before it from the prefix snapshot.  This script runs each
resumed plan fresh from the prefix snapshot as well and requires the same
trace, status, steps, boundaries, actions applied, label words (secret
taint and payload of registers, cells and saved frames), `influenced`
flag and state digest, over the same sweep as
scripts/monitor_agreement.py: every variant on sgx 1 and 2, in range and
strict sp-confinement mode.

`explorer.minimize` keeps an action point before each action of the plan
it has accepted, and each trial resumes from the point before the action
it changes.  For every counterexample of the benchmark's hunt batches at
seeds 53, 3 and 21 (perfbench/workloads.py), the script runs each
minimization trial fresh as well and requires the same verdict on whether
the property fires, and the same trace, status and steps.

It prints the number of plans and trials compared and exits 1 at the
first mismatch.

Usage: python scripts/resume_agreement.py [--variant NAME ...]
(`--variant` restricts the search sweep only.)
"""

import argparse
import os
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))

from aexlab import adversary, explorer, reporting  # noqa: E402
from aexlab.harness import Point  # noqa: E402
from aexlab.properties import any_violation  # noqa: E402
from aexlab.runtimes import VARIANTS  # noqa: E402
from workloads import Hunt  # noqa: E402

HUNT_SEEDS = (53, 3, 21)


class Mismatch(Exception):
    pass


def _fields(res) -> dict:
    m = res.machine
    return {
        "status": res.status, "steps": res.steps,
        "boundaries": res.boundaries,
        "actions_applied": res.actions_applied,
        "labels": (m.taint, sorted(m.mem.labels.items()),
                   [f.taint for f in m.ssa]),
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


def checked_trials(fires, run_plan, counter: list):
    """Wrap `explorer._fires` so every minimization trial also runs fresh
    through `explorer._execute`, and `explorer.run_plan` so the wrapper
    sees the trial's resumed run."""
    last = []

    def resumed(start, image, actions, **kwargs):
        res = run_plan(start, image, actions, **kwargs)
        if isinstance(start, Point):
            last.append(res)
        return res

    def wrapper(image, scenario, actions, prop, start):
        result = fires(image, scenario, actions, prop, start)
        fired = result is not None
        res = last.pop()
        fresh, _ = explorer._execute(scenario, image, actions)
        fresh_fired = any_violation(explorer._verdicts(
            scenario, image, fresh.trace, (prop,))) is not None
        got = (fired, res.trace, res.status, res.steps)
        want = (fresh_fired, fresh.trace, fresh.status, fresh.steps)
        if got != want:
            what = [k for k, a, b in zip(("fires", "trace", "status",
                                          "steps"), got, want) if a != b]
            raise Mismatch(f"trial {actions} resumed before action "
                           f"{start.idx} differs from its fresh run in "
                           f"{', '.join(what)}")
        counter[0] += 1
        return result
    return wrapper, resumed


def search_sweep(variants) -> int:
    counter = [0]
    saved = adversary.run_plan, adversary._prefix_snapshot
    adversary.run_plan, adversary._prefix_snapshot = checked(
        adversary.run_plan, adversary._prefix_snapshot, counter)
    try:
        for variant in variants:
            for sgx in (1, 2):
                for mode in ("range", "strict"):
                    scenario = reporting.normalize_scenario({
                        "variant": variant, "sgx_version": sgx,
                        "adversary": "exhaustive",
                        "sp_confinement_mode": mode})
                    before, t0 = counter[0], time.monotonic()
                    try:
                        out = explorer.run(scenario)
                    except Mismatch as e:
                        print(f"MISMATCH {variant} sgx{sgx} {mode}: {e}")
                        return 1
                    print(f"{variant} sgx{sgx} {mode}: "
                          f"{counter[0] - before} resumed plans equal their "
                          f"fresh runs (executed {out.search.executed} of "
                          f"{out.search.runs}, stepped "
                          f"{out.search.stepped}; "
                          f"{time.monotonic() - t0:.1f}s)", file=sys.stderr)
    finally:
        adversary.run_plan, adversary._prefix_snapshot = saved
    print(f"{counter[0]} resumed plans compared, all equal")
    return 0


def minimization_sweep() -> int:
    counter = [0]
    explorer._fires, explorer.run_plan = checked_trials(
        explorer._fires, explorer.run_plan, counter)
    minimized = 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in HUNT_SEEDS:
            before, t0 = counter[0], time.monotonic()
            for scenario in Hunt(seed, workdir).batch:
                try:
                    outcome = explorer.run(scenario)
                except AssertionError as e:
                    failure = SimpleNamespace(exc_type=type(e).__name__,
                                              message=str(e))
                    if Hunt.known_defect(scenario, failure):
                        continue
                    raise
                if outcome.trace_lines is None:
                    continue
                actions = [reporting.action_from_line(ln)
                           for ln in outcome.trace_lines
                           if ln.startswith("A ")]
                try:
                    explorer.minimize(scenario, actions)
                except Mismatch as e:
                    print(f"MISMATCH hunt seed {seed} "
                          f"{reporting.scenario_digest(scenario)}: {e}")
                    return 1
                minimized += 1
            print(f"hunt seed {seed}: {counter[0] - before} minimization "
                  f"trials equal their fresh runs "
                  f"({time.monotonic() - t0:.1f}s)", file=sys.stderr)
    print(f"{counter[0]} minimization trials of {minimized} "
          f"counterexamples compared, all equal")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--variant", action="append", choices=VARIANTS,
                    help="restrict the search sweep (repeatable); default: "
                         "all")
    args = ap.parse_args()
    return search_sweep(args.variant or VARIANTS) or minimization_sweep()


if __name__ == "__main__":
    sys.exit(main())
