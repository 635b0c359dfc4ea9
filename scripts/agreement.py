#!/usr/bin/env python3
"""Check that every shortcut of the exhaustive search, of counterexample
minimization and of the state digest gives what the computation it stands
for gives.

Eight agreement oracles, one per shortcut.  Each is a context manager that
wraps names of the program, restores them on exit, and yields the list of
what it compared.  It raises `Mismatch`, naming itself, at the first
disagreement, and raises at entry when a name it wraps is gone, rather
than silently checking nothing.  A ninth, `emulation_differential()`,
checks critical-span completion against native execution.

- `covered()` wraps `adversary._count_covered`, which adds later
  bindings' covered plans to the search's counts without running them:
  one binding's, or, once a binding whose dry run is covered schedules
  nothing to run, every remaining binding of the branch in one call.  It
  builds and runs every plan of the group under every binding the call
  adds, next to its representative, the same shape of the branch's first
  binding.  The plan must differ from its representative, and give the
  same trace and status and the kept status, steps and boundaries.  The
  runs, steps and injected boundaries added must equal the sums over all
  those plans.  Yields each plan's actions.
- `classes()` wraps `adversary._rsp_class`, which decides from a
  branch's command and staged rsp word, before any plan of the branch is
  built, whether an earlier branch's rsp class counts the branch's first
  binding instead of running it.  For every branch a class counts, it
  walks that binding plan by plan from `space.root`, next to the same
  plan of the class's representative.  Each plan must give the status,
  steps and boundaries the class counts for it and the representative's
  safety verdicts (outcome and witness index), and a trace whose fields
  differ from the representative's only by the difference of the two rsp
  words.  The branch's plan shapes must be those the class counts.
  Yields the (command, rsp word) branches and the plans compared.
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
- `trials()` wraps `explorer._fires`, `explorer._unread` and
  `explorer._repeated`.  The monitor checkpoint a trial resumes must equal
  a fresh monitor fed its point's trace.  Every minimization trial
  resumed from an action point is run fresh through `explorer._execute`,
  which keeps its point there.  When the two points are equal (the loop
  state and the digest), both runs must agree on whether the property
  fires (the trial's judged from its point's monitor checkpoint, the
  fresh run's over its whole trace), and give the same trace, status,
  steps, boundaries, actions applied and digest.  A point that differs
  is a stale one, kept from a plan before an accepted zeroing: both runs
  must agree on all of that but the digest, which differs on the zeroed
  words' planes, and give the same `influenced` planes.  A stale trial
  whose run disagrees must be run again at once, from a rebuilt point;
  the trial run again counts once in the trial list.  Every zeroing
  trial decided by labels is run fresh: the property must fire, and the
  run must give the trace, status, steps, boundaries and actions applied
  of a fresh run of the plan it came from (digests differ: the zeroed
  word is in the state).  Every trial rejected again without a run, as a
  plan the same minimization rejected before, is run fresh: the property
  must not fire.  Yields the list of every trial's actions, run or
  decided, in order, the list of those decided by labels, of those
  rejected again, of those whose run from a stale point stood, and of
  those run again from a rebuilt point.
- `digests()` wraps `Machine.digest`, which splices its text from cached
  segments, and `explorer.replay`, to tell the replay phase from the
  record phase.  Every digest must equal `canonical_digest`, its
  specification: the SHA-256 of the `repr` of `Machine.canonical()`.  A
  mismatch names the phase and the index of the last event the digest
  covers.  Yields each digest.
- `roots()` wraps `explorer._execute` and `harness.Root.start`, which
  starts each scenario run from a copy of a point of its image's root:
  after the shared prefix, whose trace lines the root keeps, or before
  any action.  Every run that resumed after the prefix is run again from
  a fresh `runtimes.build_machine` machine, recorded when it was.  Both
  runs must give the same trace lines, trace, status, steps, boundaries,
  actions applied, `influenced` flag and digest, and keep the same points
  (index, steps, boundaries and digest of each).  Yields each resumed
  RunResult.
- `recalled()` wraps `explorer._recall`, which hands `minimize` the run
  `explorer.run` recorded of an exhaustive counterexample, in place of a
  run of its own.  Every run a minimization takes is run again through
  `explorer._execute`, keeping action points from index 0 and labelling
  the staged registers, as a minimization without it does.  Both runs
  must give what `roots()` compares (trace, status, steps, boundaries,
  actions applied, `influenced` flag, digest and points), and the same
  verdicts.  Yields each run taken.
- `emulation_differential(image)` checks `interp.complete_critical`, which
  completes an interrupted critical span by emulation, against native
  execution.  At every reachable interruption offset inside every critical
  span of the image, it runs the machine natively to the span end, takes
  the same asynchronous exit, and compares the saved frame and memory with
  the emulated completion's.  It returns the offsets in the spans, those
  reached, those never reached and those that mismatch.

The script installs the four search oracles together and runs the
exhaustive search of every variant on sgx 1 and 2, in range and strict
sp-confinement mode.  Then, with only `trials()` and `recalled()`
installed, it minimizes every counterexample of the benchmark's hunt
batches at seeds 53, 3 and 21 (perfbench/workloads.py), each right after
`explorer.run` recorded it.  Then, with only `digests()` installed, it
records and replays the trace-producing scenarios below.  Then, with
`roots()` and `recalled()` installed, it records and replays them again,
along with the scripted attack on `sdk_style` sgx 2 under step budgets
around its 35-step prefix (34, 35 and 36), `benign_critical` on
`hw_irq_quota` under three grants, and minimizes every counterexample of
the scripted and exhaustive scenarios.  Last, it runs the emulation differential of every variant with
critical spans, on sgx 1 and 2, for both injected classes.  The scenarios
the digest sweep records:

- every canonical scenario fixture (golden, benign, exhaustive, ASLR);
- the benign, benign_nested and benign_critical runs of every variant on
  sgx 1 and 2 (entries, exits, atomic sections, the re-entry mask), and
  graphene_emulated's benign_critical at boundaries 1-23, each of which
  completes an interrupted critical span;
- every scripted variant x route x vector (sdk on sgx 2, oe on sgx 1 with
  its timer, enarx on both);
- the multi-round ASLR sweep at stack offsets 300, 812, 1749 and 1237.

It prints the counts compared, per sweep and in total, on stdout, and
each sweep's wall time on stderr alone, so the stdout of two trees
compares with diff; it exits 1 at the first mismatch.

Usage: python scripts/agreement.py [--variant NAME ...]
(`--variant` restricts the search sweep only.)
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
import time
from types import SimpleNamespace
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from aexlab import (  # noqa: E402
    adversary, explorer, harness, interp, isa, machine, properties,
    reporting, runtimes,
)
from aexlab.runtimes import VARIANTS  # noqa: E402

HUNT_SEEDS = (53, 3, 21)
BENIGN = ("benign", "benign_nested", "benign_critical")
CRITICAL_BOUNDARIES = range(1, 24)
SCRIPTED = (("sdk_style", 2, "scripted_sdk_sgx2"),
            ("open_enclave_style", 1, "scripted_oe_sgx1_timer"),
            ("enarx_style", 1, "scripted_sdk_sgx2"),
            ("enarx_style", 2, "scripted_sdk_sgx2"))
ASLR_OFFSETS = (300, 812, 1749, 1237)


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
    trace names the first event where it diverges, trace lines the first
    line."""
    diff = []
    for key, b in want.items():
        a = got[key]
        if a == b:
            continue
        if key in ("trace", "lines") and a is not None and b is not None:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                      min(len(a), len(b)))
            diff.append(f"{key} from {'event' if key == 'trace' else 'line'} "
                        f"{at}")
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
    real = _original(adversary, "_count_covered")
    compared = []

    def wrapper(space, cmd, rsp, payloads, group, clean, stats):
        before = {k: getattr(stats, k) for k in ("runs", "steps",
                                                 "boundaries")}
        real(space, cmd, rsp, payloads, group, clean, stats)
        first = space.entry(cmd, rsp, space.words[0])
        max_steps = space.max_steps
        kept = {}       # shape -> what its representative's run gave
        for shape in group.shapes:
            rep = clean[shape]
            rep_actions = adversary._candidate_actions(first, shape)
            want = harness.run_plan(space.root.clone(), space.image,
                                    rep_actions, max_steps=max_steps)
            kept[shape] = dict(_counts(want), status=rep[0], steps=rep[1],
                               boundaries=rep[2])
            _require_same("covered", f"representative {rep_actions}",
                          _counts(want), kept[shape])
        sums = {"runs": 0, "steps": 0, "boundaries": 0}
        for payload in payloads:
            entry = space.entry(cmd, rsp, payload)
            for shape in group.shapes:
                actions = adversary._candidate_actions(entry, shape)
                if actions == adversary._candidate_actions(first, shape):
                    raise Mismatch(f"covered: plan {actions} of "
                                   f"{(cmd, rsp, payload)} is its own "
                                   f"representative")
                got = harness.run_plan(space.root.clone(), space.image,
                                       actions, max_steps=max_steps)
                _require_same("covered", f"plan {actions}", _counts(got),
                              kept[shape])
                sums["runs"] += 1
                sums["steps"] += kept[shape]["steps"]
                sums["boundaries"] += shape is not None
                compared.append(actions)
        got = {k: getattr(stats, k) - n for k, n in before.items()}
        _require_same("covered", f"group of {len(payloads)} bindings of "
                                 f"{(cmd, rsp)}", got, sums)

    with _installed(adversary, _count_covered=wrapper):
        yield compared


def _row(res) -> dict:
    return {"status": res.status, "steps": res.steps,
            "boundaries": res.boundaries}


def shifted_from(got: list, want: list, offset: int) -> int:
    """The index of the first event of `got` that differs from `want`'s
    other than in fields that differ by exactly `offset` (mod 2**64), or
    -1 when none does."""
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b and (len(a) != len(b) or any(
                x != y and (x - y) & machine.MASK64 != offset
                for x, y in zip(a, b))):
            return i
    return -1 if len(got) == len(want) else min(len(got), len(want))


def _verdicts(trace: list, space) -> list:
    """The safety verdicts of a whole trace, without their details, which
    quote addresses."""
    return [(v.property_id, v.outcome, v.witness_index)
            for v in properties.evaluate(trace, space.image,
                                         properties.SAFETY_PROPERTIES,
                                         sp_mode=space.checkpoint.sp_mode)]


@contextlib.contextmanager
def classes():
    real = _original(adversary, "_rsp_class")
    branches = []
    compared = []

    def walk(space, cmd, word, cls):
        entry = space.entry(cmd, word, space.words[0])
        first = space.entry(cmd, cls.word, space.words[0])
        offset = (word - cls.word) & machine.MASK64
        max_steps = space.max_steps
        what = f"rsp {word:#x} of command {cmd} in the class of {cls.word:#x}"
        shapes = [None]
        for shape in shapes:
            actions = adversary._candidate_actions(entry, shape)
            got = harness.run_plan(space.root.clone(), space.image, actions,
                                   max_steps=max_steps)
            want = harness.run_plan(space.root.clone(), space.image,
                                    adversary._candidate_actions(first, shape),
                                    max_steps=max_steps)
            row = cls.shapes.get(shape)
            if row is None:
                raise Mismatch(f"classes: {what}: plan {actions} has no row "
                               "in its class")
            kept = {"status": row[0], "steps": row[1], "boundaries": row[2]}
            plan = f"{what}: plan {actions}"
            _require_same("classes", plan, _row(want), kept)
            _require_same("classes", plan, _row(got), kept)
            _require_same("classes", plan,
                          {"verdicts": _verdicts(got.trace, space)},
                          {"verdicts": _verdicts(want.trace, space)})
            at = shifted_from(got.trace, want.trace, offset)
            if at >= 0:
                raise Mismatch(f"classes: {plan}: trace from event {at} "
                               f"differs by other than {offset:#x}")
            compared.append(actions)
            if shape is None:
                cap = min(got.boundaries, space.budget.boundary_cap)
                inside = tuple(v for v in space.classes
                               if v != machine.VEC_PAGE_FAULT)
                shapes += [(vec, k) for k in range(cap + 1)
                           for vec in (space.classes if k == 0 else inside)]
        if shapes != list(cls.shapes):
            raise Mismatch(f"classes: {what}: the branch has the shapes "
                           f"{shapes}, its class counts {list(cls.shapes)}")
        branches.append((cmd, word))

    def wrapper(space, cmd, word):
        cls, counted = real(space, cmd, word)
        if counted:
            walk(space, cmd, word, cls)
        return cls, counted

    with _installed(adversary, _rsp_class=wrapper):
        yield branches, compared


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


def _monitor_state(monitor) -> dict:
    """All a safety monitor carries: the events it read, the anchor
    save-stack and the witnesses."""
    return {"position": monitor.position, "saves": monitor.saves,
            "witnesses": monitor.witnesses}


def _point_state(p) -> tuple:
    """All a run resumed from action point `p` reads of it, labels aside."""
    return (p.idx, p.staged, p.armed, p.live, p.window_count, p.steps,
            p.boundaries, p.machine.digest())


@contextlib.contextmanager
def trials():
    real = _original(explorer, "_fires")
    decide = _original(explorer, "_unread")
    known = _original(explorer, "_repeated")
    compared = []
    decided = []
    repeated = []
    stale = []
    fell = []
    last = []   # the trial run last: [plan, Mismatch or None, stood]

    def follow(actions):
        """The entry of the trial run last when `actions` is that trial
        run again, else None; raises that trial's Mismatch when it had to
        run again and `actions` is another."""
        prev = last[:]
        last.clear()
        if prev and prev[0] == actions:
            return prev
        if prev and prev[1] is not None:
            raise prev[1]
        return None

    def wrapper(image, scenario, actions, prop, start, checkpoint, origins):
        plan = list(actions)
        prev = follow(plan)
        want = properties.SafetyMonitor(checkpoint.image, checkpoint.sp_mode)
        want.feed(start.machine.trace)
        _require_same("trials", f"checkpoint before action {start.idx}",
                      _monitor_state(checkpoint), _monitor_state(want))
        res, fires = real(image, scenario, actions, prop, start, checkpoint,
                          origins)
        fresh, _ = explorer._execute(scenario, image, actions,
                                     keep_from=start.idx, payload=origins)
        fresh_fires = properties.any_violation(explorer._verdicts(
            scenario, image, fresh.trace, (prop,))) is not None
        kept = next((p for p in fresh.points if p.idx == start.idx), None)
        pending = None
        stood = False
        if kept is not None and _point_state(kept) == _point_state(start):
            _require_same("trials", f"trial {actions} resumed before action "
                                    f"{start.idx}",
                          dict(run_fields(res), fires=fires),
                          dict(run_fields(fresh), fires=fresh_fires))
        else:
            try:
                _require_same("trials", f"trial {actions} resumed from a "
                                        f"stale point before action "
                                        f"{start.idx}, and not run again",
                              dict(_counts(res), fires=fires,
                                   actions_applied=res.actions_applied,
                                   influenced=res.machine.influenced),
                              dict(_counts(fresh), fires=fresh_fires,
                                   actions_applied=fresh.actions_applied,
                                   influenced=fresh.machine.influenced))
                stood = True
            except Mismatch as e:
                pending = e
        if prev is None:
            compared.append(plan)
        else:
            fell.append(plan)
            if prev[2]:
                stale.pop()
        if stood:
            stale.append(plan)
        last[:] = [plan, pending, stood]
        return res, fires

    def again(image, scenario, actions, prop, rejected):
        follow(None)
        result = known(image, scenario, actions, prop, rejected)
        if result:
            fresh, _ = explorer._execute(scenario, image, actions)
            fires = properties.any_violation(explorer._verdicts(
                scenario, image, fresh.trace, (prop,))) is not None
            _require_same("trials", f"trial {actions} rejected again",
                          {"fires": fires}, {"fires": False})
            compared.append(list(actions))
            repeated.append(list(actions))
        return result

    def unread(image, scenario, actions, prop, accepted, influenced, name):
        follow(None)
        result = decide(image, scenario, actions, prop, accepted, influenced,
                        name)
        if result:
            got, _ = explorer._execute(scenario, image, actions)
            want, _ = explorer._execute(scenario, image, accepted)
            fires = properties.any_violation(explorer._verdicts(
                scenario, image, got.trace, (prop,))) is not None
            _require_same("trials", f"trial {actions} decided by labels "
                                    f"({name} unread)",
                          dict(_counts(got), fires=fires,
                               actions_applied=got.actions_applied),
                          dict(_counts(want), fires=True,
                               actions_applied=want.actions_applied))
            compared.append(list(actions))
            decided.append(list(actions))
        return result

    with _installed(explorer, _fires=wrapper, _unread=unread,
                    _repeated=again):
        yield compared, decided, repeated, stale, fell
    follow(None)


def _rooted(res, lines) -> dict:
    """What two runs of one plan from equal states share, with the trace
    lines of a recorded run and the points the run kept."""
    return dict(run_fields(res), lines=lines,
                influenced=res.machine.influenced,
                points=[(p.idx, p.steps, p.boundaries, p.machine.digest())
                        for p in res.points])


@contextlib.contextmanager
def roots():
    real = _original(explorer, "_execute")
    start_of = _original(harness.Root, "start")
    starts = []
    compared = []

    def start(root, program, actions, max_steps):
        starts.append(start_of(root, program, actions, max_steps))
        return starts[-1]

    def wrapper(scenario, image, actions, record=False, keep_from=None,
                payload=()):
        starts.clear()
        res, lines = real(scenario, image, actions, record, keep_from,
                          payload)
        if not starts[-1].idx:
            return res, lines
        hw_ext = scenario["hw_ext"]
        m = runtimes.build_machine(image, scenario["sgx_version"],
                                   (hw_ext["allowed"], hw_ext["window"]))
        rec = reporting.TraceRecorder(m) if record else None
        fresh = harness.run_plan(
            m, image, actions, max_steps=scenario["budgets"]["max_steps"],
            on_action=rec.on_action if rec else None,
            after_events=rec.after_events if rec else None,
            keep_from=keep_from, payload=payload)
        if rec is not None:
            rec.flush()
        _require_same("roots", f"plan {actions} resumed from its root",
                      _rooted(res, lines),
                      _rooted(fresh, rec.lines if rec else None))
        compared.append(res)
        return res, lines

    with _installed(explorer, _execute=wrapper), \
            _installed(harness.Root, start=start):
        yield compared


@contextlib.contextmanager
def recalled():
    real = _original(explorer, "_recall")
    compared = []

    def wrapper(scenario, image, actions):
        recorded = real(scenario, image, actions)
        if recorded is None:
            return None
        res, verdicts = recorded
        fresh, _ = explorer._execute(scenario, image, actions, keep_from=0,
                                     payload=explorer._staged(actions))
        want, _ = explorer._judged(scenario, image, fresh)
        _require_same("recalled", f"plan {actions} kept from its recorded "
                                  f"run",
                      dict(_rooted(res, None),
                           verdicts=[v.to_dict() for v in verdicts]),
                      dict(_rooted(fresh, None),
                           verdicts=[v.to_dict() for v in want]))
        compared.append(res)
        return recorded

    with _installed(explorer, _recall=wrapper):
        yield compared


def canonical_digest(m) -> str:
    """The specification of `Machine.digest`: the first 16 hex digits of
    the SHA-256 of the `repr` of the canonical state."""
    return hashlib.sha256(repr(m.canonical()).encode()).hexdigest()[:16]


@contextlib.contextmanager
def digests():
    real = _original(machine.Machine, "digest")
    replay = _original(explorer, "replay")
    phase = ["record"]
    compared = []

    def wrapper(m):
        got = real(m)
        want = canonical_digest(m)
        if got != want:
            raise Mismatch(f"digests: {phase[0]}, event {len(m.trace) - 1}: "
                           f"digest {got}, canonical {want}")
        compared.append(got)
        return got

    def replaying(*args, **kwargs):
        phase[0] = "replay"
        try:
            return replay(*args, **kwargs)
        finally:
            phase[0] = "record"

    with _installed(machine.Machine, digest=wrapper), \
            _installed(explorer, replay=replaying):
        yield compared


class EmulationDifferential(NamedTuple):
    range_pcs: int          # instruction offsets inside the spans
    covered: int            # offsets some driver plan reached
    missing: list
    mismatches: list

    @property
    def clean(self) -> bool:
        return not self.missing and not self.mismatches


def emulation_differential(image, sgx_version: int = 2,
                           vector: int = machine.VEC_EXT_INT
                           ) -> EmulationDifferential:
    """Interrupt the image at every offset of its critical spans that the
    benign plan, an invalid command or an ocall return reaches, and compare
    the emulated completion of the span with a native run to its end
    followed by the same asynchronous exit: the saved frame and memory must
    be identical."""
    program = image.program
    wanted = {pc for lo, hi in image.crit_ranges for pc in range(lo, hi)
              if pc in program.code}
    snapshots = {}
    drivers = [
        harness.benign_plan(),
        [harness.Eenter.of(runtimes.CMD_INVALID, regs={"rsp": 0, "rsi": 0})],
        [harness.Eenter.of(runtimes.CMD_ORET, regs={"rsp": 0, "rsi": 0})],
    ]
    for actions in drivers:
        m = runtimes.build_machine(image, sgx_version)

        def collect() -> None:
            # the state the next instruction starts from: in the enclave,
            # with no fault awaiting its async exit
            pc = m.regs[machine.RIP]
            if (m.mode == machine.MODE_ENCLAVE and m.pending_fault < 0
                    and pc in wanted and pc not in snapshots):
                snapshots[pc] = m.clone()

        harness.run_plan(m, image, actions, after_events=collect)

    mismatches = []
    for pc, snap in sorted(snapshots.items()):
        interrupted = snap.clone()
        if not interrupted.aex(vector):
            continue
        frame = interrupted.ssa[interrupted.tcs.cssa - 1]
        emu_machine = interrupted.clone()
        emulated = interp.complete_critical(emu_machine, program, frame)

        native = snap.clone()
        while True:
            npc = native.regs[machine.RIP]
            ins = program.code.get(npc)
            if ins is None or not interp.in_crit_ranges(program, npc):
                break
            if ins[0] in (isa.OP_EEXIT_R, isa.OP_EEXIT_I):
                break
            sig = interp.step(native, program)
            if sig != "ok":
                raise RuntimeError(f"oracle run faulted at {npc:#x}: {sig}")
        native.aex(vector)
        oracle = native.ssa[native.tcs.cssa - 1]
        if (emulated.canonical() != oracle.canonical()
                or emu_machine.mem.canonical() != native.mem.canonical()):
            mismatches.append(pc)

    return EmulationDifferential(len(wanted), len(snapshots),
                                 sorted(wanted - set(snapshots)), mismatches)


def _agreed(name: str, counts: str, t0: "float | None" = None) -> None:
    """One sweep's counts on stdout and, from `t0` on, its wall time on
    stderr."""
    print(f"{name}: {counts}")
    if t0 is not None:
        print(f"{name}: {time.monotonic() - t0:.1f}s", file=sys.stderr)


def search_sweep(variants) -> int:
    names = ("covered plans", "resumed plans", "monitored runs")
    totals = [0] * len(names)
    classed = walked = 0
    with covered() as plans, resumed() as resumes, monitored() as runs, \
            classes() as (branches, counted):
        for variant in variants:
            for sgx in (1, 2):
                for mode in ("range", "strict"):
                    scenario = reporting.normalize_scenario({
                        "variant": variant, "sgx_version": sgx,
                        "adversary": "exhaustive",
                        "sp_confinement_mode": mode})
                    t0 = time.monotonic()
                    try:
                        _, out, _ = explorer.certify(scenario)
                    except Mismatch as e:
                        print(f"MISMATCH {variant} sgx{sgx} {mode}: {e}")
                        return 1
                    counts = [len(c) for c in (plans, resumes, runs)]
                    _agreed(f"{variant} sgx{sgx} {mode}", ", ".join(
                        f"{n} {name}" for n, name in zip(counts, names))
                        + f", {len(branches)} covered rsp branches "
                        f"({len(counted)} plans) agree (executed "
                        f"{out.stats.executed} of {out.stats.runs})", t0)
                    totals = [t + n for t, n in zip(totals, counts)]
                    classed += len(branches)
                    walked += len(counted)
                    for c in (plans, resumes, runs, branches, counted):
                        c.clear()
    for n, name in zip(totals, names):
        print(f"{n} {name} compared, all agree")
    print(f"{classed} covered rsp branches ({walked} plans) compared, all "
          f"agree")
    return 0


def minimization_sweep() -> int:
    sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
    from workloads import Hunt

    total = by_labels = again = from_stale = rebuilt = minimized = 0
    with trials() as (tried, decided, repeated, stale, fell), \
            recalled() as taken, \
            tempfile.TemporaryDirectory() as workdir:
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
            _agreed(f"hunt seed {seed}",
                    f"{len(tried)} minimization trials ({len(decided)} "
                    f"decided by labels, {len(repeated)} rejected again, "
                    f"{len(stale)} from stale points, {len(fell)} run "
                    f"again) agree", t0)
            total += len(tried)
            by_labels += len(decided)
            again += len(repeated)
            from_stale += len(stale)
            rebuilt += len(fell)
            for c in (tried, decided, repeated, stale, fell):
                c.clear()
    print(f"{total} minimization trials ({by_labels} decided by labels, "
          f"{again} rejected again without a run, {from_stale} resumed "
          f"from stale points, {rebuilt} run again from a rebuilt point) of "
          f"{minimized} counterexamples compared, all agree")
    print(f"{len(taken)} minimizations from the recorded run compared, all "
          f"agree")
    return 0


def canonical(name: str) -> dict:
    """The canonical scenario fixture `name`."""
    path = runtimes.fixture_path(os.path.join("scenarios", name + ".json"))
    with open(path) as fh:
        return reporting.loads_scenario(fh.read())


def aslr_sweep(offset: int) -> tuple[str, dict]:
    doc = canonical("aslr_multi_round")
    doc["toggles"] = dict(doc["toggles"], aslr_stack_offset=offset)
    return f"aslr_multi_round@{offset}", reporting.normalize_scenario(doc)


def traced_scenarios() -> list[tuple[str, dict]]:
    """(name, scenario) of every scenario the digest sweep records."""
    names = sorted(f[:-len(".json")] for f in os.listdir(
        runtimes.fixture_path("scenarios")) if f.endswith(".json"))
    named = [(name, canonical(name)) for name in names]
    for variant in VARIANTS:
        for sgx in (2, 1):
            for mode in BENIGN:
                named.append((f"{mode}_{variant}_sgx{sgx}",
                              reporting.normalize_scenario(
                                  {"variant": variant, "sgx_version": sgx,
                                   "adversary": mode})))
    for sgx in (2, 1):
        for boundary in CRITICAL_BOUNDARIES:
            named.append((f"benign_critical_graphene_sgx{sgx}_b{boundary}",
                          reporting.normalize_scenario(
                              {"variant": "graphene_emulated",
                               "sgx_version": sgx,
                               "adversary": "benign_critical",
                               "boundary": boundary})))
    for variant, sgx, base in SCRIPTED:
        for route in (None, "private", "public"):
            for vector in (None, "page_fault", "external_interrupt"):
                doc = dict(canonical(base), variant=variant, sgx_version=sgx,
                           route=route, vector=vector)
                named.append((f"scripted_{variant}_sgx{sgx}_{route}_{vector}",
                              reporting.normalize_scenario(doc)))
    return named + [aslr_sweep(offset) for offset in ASLR_OFFSETS]


def digest_sweep() -> int:
    with digests() as compared:
        for name, scenario in traced_scenarios():
            t0 = time.monotonic()
            try:
                lines = explorer.run(scenario).trace_lines
                if lines is None:
                    _agreed(name, "no plan, no trace")
                    continue
                replayed = explorer.replay(scenario, lines, len(lines))
            except Mismatch as e:
                print(f"MISMATCH {name}: {e}")
                return 1
            if not replayed.ok:
                print(f"REPLAY DIVERGED {name}: {replayed.detail}")
                return 1
            _agreed(name, f"{len(lines)} lines agree", t0)
    print(f"{len(compared)} digests compared, all agree")
    return 0


PREFIX_BUDGETS = (34, 35, 36)
QUOTA_GRANTS = ((100, 10000), (64, 5000), (20, 5000))


def rooted_scenarios() -> list[tuple[str, dict]]:
    """(name, scenario) of every scenario the root sweep records: those of
    the digest sweep, then budgets and grants that start runs fresh and
    resumed."""
    named = traced_scenarios()
    for max_steps in PREFIX_BUDGETS:
        named.append((f"scripted_sdk_sgx2_s{max_steps}",
                      reporting.normalize_scenario(dict(
                          canonical("scripted_sdk_sgx2"),
                          budgets={"max_steps": max_steps}))))
    for allowed, window in QUOTA_GRANTS:
        named.append((f"benign_critical_hw_irq_quota_a{allowed}_w{window}",
                      reporting.normalize_scenario({
                          "variant": "hw_irq_quota",
                          "adversary": "benign_critical",
                          "hw_ext": {"allowed": allowed,
                                     "window": window}})))
    return named


def root_sweep() -> int:
    recorded = minimized = 0
    with roots() as compared, recalled() as taken:
        for name, scenario in rooted_scenarios():
            try:
                outcome = explorer.run(scenario)
                lines = outcome.trace_lines
                if lines is None:
                    continue
                explorer.replay(scenario, lines, len(lines))
                recorded += 1
                if (scenario["adversary"] in ("scripted", "exhaustive")
                        and outcome.exit_code == explorer.EXIT_VIOLATION):
                    explorer.minimize(scenario, [
                        reporting.action_from_line(ln) for ln in lines
                        if ln.startswith("A ")])
                    minimized += 1
            except Mismatch as e:
                print(f"MISMATCH {name}: {e}")
                return 1
    print(f"{len(compared)} runs resumed from a root ({recorded} scenarios "
          f"recorded and replayed, {minimized} counterexamples minimized, "
          f"{len(taken)} of them from the recorded run) compared, all agree")
    return 0


def emulation_sweep() -> int:
    total = 0
    for variant in VARIANTS:
        image = runtimes.build_runtime(variant)
        if not image.crit_ranges:
            continue
        for sgx in (1, 2):
            for vector in (machine.VEC_PAGE_FAULT, machine.VEC_EXT_INT):
                diff = emulation_differential(image, sgx, vector)
                name = (f"{variant} sgx{sgx} "
                        f"{machine.VECTOR_NAMES[vector]}")
                if not diff.clean:
                    print(f"MISMATCH emulation {name}: offsets not reached "
                          f"{diff.missing}, mismatched {diff.mismatches}")
                    return 1
                _agreed(name, f"{diff.covered} critical-span offsets agree")
                total += diff.covered
    print(f"{total} critical-span offsets compared, all agree")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--variant", action="append", choices=VARIANTS,
                    help="restrict the search sweep (repeatable); default: "
                         "all")
    args = ap.parse_args()
    return (search_sweep(args.variant or VARIANTS) or minimization_sweep()
            or digest_sweep() or root_sweep() or emulation_sweep())


if __name__ == "__main__":
    sys.exit(main())
