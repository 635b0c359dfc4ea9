#!/usr/bin/env python3
"""Check that every shortcut of the exhaustive search and of counterexample
minimization gives what the run it stands for gives.

Four agreement oracles, one per shortcut.  Each is a context manager that
wraps one name of the program, restores it on exit, and yields the list of
what it compared.  It raises `Mismatch`, naming itself, at the first
disagreement, and raises at entry when a name it wraps is gone, rather
than silently checking nothing.

- `covered()` wraps `adversary._covered_group`, which counts a later
  binding's covered plans without running them.  It builds and runs every
  plan of each group next to its representative.  The plan must differ
  from its representative, and give the same trace and status and the
  kept steps and boundaries.  The group's counted runs, steps and
  injected boundaries must equal the sums over its plans.  Yields each
  plan's actions.
- `resumed()` wraps `adversary.run_plan` and `adversary._prefix_snapshot`.
  Every plan that resumes from a point of its binding's dry run must
  resume at the boundary where it injects.  It is also run fresh from the
  latest prefix snapshot.  Both runs must give the same trace, status,
  steps, boundaries, actions applied, label words (secret taint and
  payload of registers, cells and saved frames), `influenced` flag and
  state digest.  Yields (the length of the point's trace, the resumed
  RunResult) per plan.
- `monitored()` wraps `adversary._monitored`, which resumes the safety
  monitor saved after the shared prefix.  Every resumed monitor must start
  before the run's end, and its verdicts must equal a from-scratch
  `properties.evaluate` of the whole trace.  Yields whether each run
  violated.
- `trials()` wraps `explorer._fires` and `explorer.run_plan`.  Every
  minimization trial resumed from an action point must equal a fresh run
  of its plan through `explorer._execute`.  Both must agree on whether the
  property fires, and give the same trace, status, steps, boundaries,
  actions applied and digest.  Yields each trial's actions.

The script installs the three search oracles together and runs the
exhaustive search of every variant on sgx 1 and 2, in range and strict
sp-confinement mode.  Then, with only `trials()` installed, it minimizes
every counterexample of the benchmark's hunt batches at seeds 53, 3 and
21 (perfbench/workloads.py).  It prints the counts compared and exits 1 at
the first mismatch.

Usage: python scripts/agreement.py [--variant NAME ...]
(`--variant` restricts the search sweep only.)
"""

import argparse
import contextlib
import os
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from aexlab import (  # noqa: E402
    adversary, explorer, harness, properties, reporting,
)
from aexlab.runtimes import VARIANTS  # noqa: E402

HUNT_SEEDS = (53, 3, 21)


class Mismatch(Exception):
    """A shortcut disagrees with what it stands for; the message starts
    with the oracle's name."""


def _original(owner, name: str):
    """`owner.name`, which an oracle is about to wrap; a missing name
    raises, since wrapping nothing would check nothing."""
    try:
        return getattr(owner, name)
    except AttributeError:
        raise AttributeError(f"{owner.__name__}.{name} is gone: its "
                             f"agreement oracle has nothing to wrap") from None


@contextlib.contextmanager
def _installed(owner, **wrappers):
    saved = {name: getattr(owner, name) for name in wrappers}
    for name, fn in wrappers.items():
        setattr(owner, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(owner, name, fn)


def _require_same(oracle: str, what: str, got: dict, want: dict) -> None:
    """Raise Mismatch naming each field where `got` differs from `want`; a
    trace names the first event where it diverges."""
    diff = []
    for key, b in want.items():
        a = got[key]
        if a == b:
            continue
        if key == "trace":
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                      min(len(a), len(b)))
            diff.append(f"trace from event {at}")
        else:
            diff.append(f"{key} {a!r}, want {b!r}")
    if diff:
        raise Mismatch(f"{oracle}: {what}: {'; '.join(diff)}")


def _counts(res) -> dict:
    return {"trace": res.trace, "status": res.status, "steps": res.steps,
            "boundaries": res.boundaries}


def run_fields(res) -> dict:
    """What two runs of one plan from equal states share."""
    return dict(_counts(res), actions_applied=res.actions_applied,
                digest=res.machine.digest())


def _labelled(res) -> dict:
    """`run_fields`, with the label words and the `influenced` flag."""
    m = res.machine
    return dict(run_fields(res), influenced=m.influenced,
                labels=(m.taint, sorted(m.mem.labels.items()),
                        [f.taint for f in m.ssa]))


@contextlib.contextmanager
def covered():
    real = _original(adversary, "_covered_group")
    compared = []

    def wrapper(image, snapshot, binding, group, clean, budget):
        runs, steps, boundaries = real(image, snapshot, binding, group,
                                       clean, budget)
        entry = adversary._binding_entry(*binding)
        want_steps = 0
        for shape in group.shapes:
            rep = clean[shape]
            actions = adversary._candidate_actions(entry, shape)
            if actions == rep[0]:
                raise Mismatch(f"covered: plan {actions} of {binding} is "
                               f"its own representative")
            got = harness.run_plan(snapshot.clone(), image, actions,
                                   max_steps=budget.max_steps)
            want = harness.run_plan(snapshot.clone(), image, rep[0],
                                    max_steps=budget.max_steps)
            kept = dict(_counts(want), steps=rep[1], boundaries=rep[2])
            _require_same("covered", f"representative {rep[0]}",
                          _counts(want), kept)
            _require_same("covered", f"plan {actions}", _counts(got), kept)
            want_steps += want.steps
            compared.append(actions)
        got = {"runs": runs, "steps": steps, "boundaries": boundaries}
        want = {"runs": len(group.shapes), "steps": want_steps,
                "boundaries": sum(s is not None for s in group.shapes)}
        _require_same("covered", f"group of {binding}", got, want)
        return runs, steps, boundaries

    with _installed(adversary, _covered_group=wrapper):
        yield compared


@contextlib.contextmanager
def resumed():
    real = _original(adversary, "run_plan")
    snapshot_of = _original(adversary, "_prefix_snapshot")
    snapshots = []
    compared = []

    def snapshot(*args):
        snapshots.append(snapshot_of(*args))
        return snapshots[-1]

    def wrapper(start, image, actions, **kwargs):
        if not isinstance(start, harness.Point):
            return real(start, image, actions, **kwargs)
        at, boundary = len(start.machine.trace), start.window_count
        res = real(start, image, actions, **kwargs)
        what = f"plan {actions} resumed at boundary {boundary}"
        inject = kwargs.pop("inject", None)
        if inject is None or inject.boundary != boundary:
            raise Mismatch(f"resumed: {what} injects {inject}")
        fresh = real(snapshots[-1].clone(), image, actions, **kwargs)
        _require_same("resumed", what, _labelled(res), _labelled(fresh))
        compared.append((at, res))
        return res

    with _installed(adversary, run_plan=wrapper, _prefix_snapshot=snapshot):
        yield compared


@contextlib.contextmanager
def monitored():
    real = _original(adversary, "_monitored")
    compared = []

    def wrapper(checkpoint, trace):
        if checkpoint.position >= len(trace):
            raise Mismatch(f"monitored: checkpoint at event "
                           f"{checkpoint.position} of a {len(trace)}-event "
                           f"run")
        monitor = real(checkpoint, trace)
        got = [v.to_dict() for v in monitor.verdicts()]
        want = [v.to_dict() for v in properties.evaluate(
            trace, monitor.image, properties.SAFETY_PROPERTIES,
            sp_mode=monitor.sp_mode)]
        _require_same("monitored", "resumed monitor", {"verdicts": got},
                      {"verdicts": want})
        compared.append(monitor.violated)
        return monitor

    with _installed(adversary, _monitored=wrapper):
        yield compared


@contextlib.contextmanager
def trials():
    real = _original(explorer, "_fires")
    run_plan = _original(explorer, "run_plan")
    last = []
    compared = []

    def resumed_run(start, image, actions, **kwargs):
        res = run_plan(start, image, actions, **kwargs)
        if isinstance(start, harness.Point):
            last.append(res)
        return res

    def wrapper(image, scenario, actions, prop, start):
        result = real(image, scenario, actions, prop, start)
        res = last.pop()
        fresh, _ = explorer._execute(scenario, image, actions)
        fresh_fires = properties.any_violation(explorer._verdicts(
            scenario, image, fresh.trace, (prop,))) is not None
        _require_same("trials", f"trial {actions} resumed before action "
                                f"{start.idx}",
                      dict(run_fields(res), fires=result is not None),
                      dict(run_fields(fresh), fires=fresh_fires))
        compared.append(list(actions))
        return result

    with _installed(explorer, _fires=wrapper, run_plan=resumed_run):
        yield compared


def search_sweep(variants) -> int:
    names = ("covered plans", "resumed plans", "monitored runs")
    totals = [0] * len(names)
    with covered() as plans, resumed() as resumes, monitored() as runs:
        for variant in variants:
            for sgx in (1, 2):
                for mode in ("range", "strict"):
                    scenario = reporting.normalize_scenario({
                        "variant": variant, "sgx_version": sgx,
                        "adversary": "exhaustive",
                        "sp_confinement_mode": mode})
                    t0 = time.monotonic()
                    try:
                        out = explorer.run(scenario)
                    except Mismatch as e:
                        print(f"MISMATCH {variant} sgx{sgx} {mode}: {e}")
                        return 1
                    counts = [len(c) for c in (plans, resumes, runs)]
                    for c in (plans, resumes, runs):
                        c.clear()
                    totals = [t + n for t, n in zip(totals, counts)]
                    print(f"{variant} sgx{sgx} {mode}: " + ", ".join(
                        f"{n} {name}" for n, name in zip(counts, names))
                        + f" agree (executed {out.search.executed} of "
                        f"{out.search.runs}; {time.monotonic() - t0:.1f}s)",
                        file=sys.stderr)
    for n, name in zip(totals, names):
        print(f"{n} {name} compared, all agree")
    return 0


def minimization_sweep() -> int:
    sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
    from workloads import Hunt

    total = minimized = 0
    with trials() as tried, tempfile.TemporaryDirectory() as workdir:
        for seed in HUNT_SEEDS:
            t0 = time.monotonic()
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
            print(f"hunt seed {seed}: {len(tried)} minimization trials "
                  f"agree ({time.monotonic() - t0:.1f}s)", file=sys.stderr)
            total += len(tried)
            tried.clear()
    print(f"{total} minimization trials of {minimized} counterexamples "
          f"compared, all agree")
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
