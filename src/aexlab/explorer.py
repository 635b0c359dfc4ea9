"""Scenario orchestration: drive the adversary against the machine under
budgets, evaluate detectors, minimize counterexamples, and produce the
runtime-survey matrix."""

from __future__ import annotations

import json
import os
import random
from typing import NamedTuple, Optional, Sequence

from . import adversary, reporting
from .harness import (
    BUDGET_EXCEEDED, FlipPerms, Point, PrepareRegs, Root, RunResult,
    SeedRefused, Stop,
    benign_critical_exception_plan, benign_nested_plan, benign_plan,
    prefix_plan, run_plan,
)
from .isa import Program, render
from .machine import ORIGINS, REG_IDS, VECTOR_IDS, UnknownPage
from .properties import (
    SafetyMonitor, Verdict, any_violation, evaluate, milestones,
)
from .runtimes import (
    VARIANTS, EnclaveImage, Layout, Toggles, build_runtime, fixture_path,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_DIGEST_MISMATCH = 3
EXIT_VIOLATION = 10


class FixtureMissing(Exception):
    pass


class Outcome(NamedTuple):
    scenario: dict
    status: str                      # ok | budget_exceeded
    verdicts: list[Verdict]
    milestones: tuple[str, ...]
    stats: dict
    trace_lines: Optional[list[str]]
    exit_code: int
    # the search's work (plans run, instructions stepped); None: no search
    search: Optional[adversary.SearchStats] = None

    def report(self, trace_file: Optional[str]) -> dict:
        return reporting.render_report(
            self.scenario, self.status, self.verdicts, self.milestones,
            self.stats, trace_file, self.exit_code)


def _image_for(scenario: dict) -> EnclaveImage:
    """The scenario's image.  `build_runtime`'s program cache makes a
    repeat cheap: a run and the replay or minimization of its trace, and
    scenarios that differ only in layout fields the program never reads
    (the public buffer, the ASLR shift), share one assembled program."""
    toggles = Toggles(**scenario["toggles"])
    if scenario["adversary"] == "multi_round_aslr" \
            and toggles.aslr_stack_offset == 0 and scenario["seed"]:
        toggles = toggles._replace(aslr_stack_offset=random.Random(
            scenario["seed"]).randint(1, 2048))
    layout = Layout(**scenario["layout"]) if scenario["layout"] else None
    return build_runtime(scenario["variant"], layout=layout, toggles=toggles)


def _classes_for(scenario: dict) -> tuple[int, ...]:
    return tuple(VECTOR_IDS[c] for c in scenario["inject_classes"])


def _execute(scenario: dict, image: EnclaveImage, actions: list,
             record: bool = False, keep_from: Optional[int] = None,
             payload: tuple[str, ...] = ()):
    """The one grant -> run path: the actions run under the scenario's
    step budget from a copy of a point of the image's root for the
    scenario's platform and grant (``Root.start``): after the prefix when
    the actions begin with it and the budget covers it, else before any
    action.  Either way the run, its kept points included, equals a run
    of the actions from a fresh machine.  With `record`, the trace lines
    with per-event digests come back too (a run from `after` starts from
    the lines its root recorded as it ran the prefix, and its machine from
    its own copy of the root's digest text); with `keep_from`,
    the run keeps action points from that index on; `payload` names the
    staged registers to label (see ``run_plan``).  Neither changes the
    trace lines: digests and events carry only the secret label plane, so
    `run` records an exhaustive counterexample with both, for `minimize`
    to start from."""
    hw_ext = scenario["hw_ext"]
    root = adversary.image_root(image, scenario["sgx_version"],
                                (hw_ext["allowed"], hw_ext["window"]))
    max_steps = scenario["budgets"]["max_steps"]
    start = root.start(image.program, actions, max_steps)
    rec = None
    if record:
        lines = None
        if start.idx:
            start.machine.seed_digest_text(root.text)
            lines = root.lines
        rec = reporting.TraceRecorder(start.machine, lines)
    res = run_plan(start, image, actions, max_steps=max_steps,
                   on_action=rec.on_action if rec else None,
                   after_events=rec.after_events if rec else None,
                   keep_from=keep_from, payload=payload)
    if keep_from is not None and keep_from < start.idx:
        # the point before the prefix, which the resumed run did not pass
        res = res._replace(points=[Root.copy(root.fresh, image.program)]
                           + res.points)
    if rec is not None:
        rec.flush()
    return res, rec.lines if rec else None


def _verdicts(scenario: dict, image: EnclaveImage, trace: list,
              props: Optional[tuple[str, ...]] = None) -> list[Verdict]:
    """The scenario's verdicts over a trace.  Only the benign modes run
    under a cooperative host."""
    if props is None:
        props = tuple(scenario["properties"])
    return evaluate(trace, image, props,
                    sp_mode=scenario["sp_confinement_mode"],
                    cooperative=scenario["adversary"].startswith("benign"))


def _judged(scenario: dict, image: EnclaveImage,
            res: RunResult) -> tuple[list[Verdict], int]:
    """The verdicts and exit code of a recorded run, for `run` and
    `replay` alike.  A safety violation the run witnessed is exit 10, even
    when the step budget then cut the run.  A cut run without one claims
    nothing: no verdicts and exit 2, as a certification that the budget
    cut."""
    verdicts = _verdicts(scenario, image, res.trace)
    if any_violation(verdicts):
        return verdicts, EXIT_VIOLATION
    if res.status == BUDGET_EXCEEDED:
        return [], EXIT_BUDGET
    return verdicts, EXIT_OK


def _staged(actions: list) -> tuple[str, ...]:
    """The registers a `PrepareRegs` of `actions` stages: the payload a
    counterexample's recorded run and its minimization label."""
    return tuple(name for action in actions
                 if isinstance(action, PrepareRegs)
                 for name, _ in action.regs)


class _Recorded(NamedTuple):
    """The recorded run of an exhaustive counterexample, kept for
    `minimize`: with an action point before every action and the staged
    registers labelled, and the verdicts `run` judged it by.  `key` is the
    scenario's repr, which a scenario changed after the run no longer
    matches, and the plan."""

    key: tuple
    run: RunResult
    verdicts: list


# the one recorded run kept process-wide, until `minimize` takes it
_recorded: Optional[_Recorded] = None


def _remember(scenario: dict, actions: list, res: RunResult,
              verdicts: list) -> None:
    """Keep `res`, the recorded run of `actions`, for a `minimize` of the
    same scenario and plan, in place of the run kept before.  Its machines
    drop ``fetch_program``, as a root's points do, so that the kept run
    holds no program alive."""
    global _recorded
    for m in [res.machine] + [p.machine for p in res.points]:
        m.mem.fetch_program = None
    _recorded = _Recorded((repr(scenario), tuple(actions)), res, verdicts)


def _recall(scenario: dict, image: EnclaveImage,
            actions: list) -> Optional[tuple[RunResult, list]]:
    """Take the kept run, leaving none: the run and its verdicts when it
    is the recorded run of `actions` under `scenario`, else None.  Its
    points fetch from `image`'s program again, where they hold its fetch
    table."""
    global _recorded
    kept, _recorded = _recorded, None
    if kept is None or kept.key != (repr(scenario), tuple(actions)):
        return None
    for p in kept.run.points:
        if p.machine.mem.fetch is not None:
            p.machine.mem.fetch_program = image.program
    return kept.run, kept.verdicts


class Certification(NamedTuple):
    """The image searched, the search's outcome (Counterexample, NoneFound
    or BudgetExceeded) and its stats as reports give them, with a
    counterexample's branch."""

    image: EnclaveImage
    outcome: object
    stats: dict


def certify(scenario: dict, workers: int = 1) -> Certification:
    """The exhaustive search of an exhaustive scenario's image, with its
    classes, budget, grant and sp mode, and `workers` processes searching
    its branches.  The verdict rests on the search alone: a Counterexample
    violates a safety property (an exhaustive scenario checks every one),
    NoneFound covered the whole bounded space, BudgetExceeded did not: the
    run budget ran out, or the step budget cut a plan the search ran."""
    image = _image_for(scenario)
    out = adversary.exhaustive_attacker(
        image, scenario["sgx_version"], classes=_classes_for(scenario),
        budget=adversary.SearchBudget(**scenario["budgets"]),
        grant=(scenario["hw_ext"]["allowed"], scenario["hw_ext"]["window"]),
        workers=workers, sp_mode=scenario["sp_confinement_mode"])
    stats = out.stats.to_dict()
    if isinstance(out, adversary.Counterexample):
        stats["branch"] = list(out.branch)
    return Certification(image, out, stats)


def run(scenario: dict, workers: int = 1) -> Outcome:
    """Execute one scenario to a deterministic report.  Each mode computes
    its stats and the actions of its outcome; those actions then run once,
    recorded, and the verdicts, milestones and exit code all describe that
    recorded run (`_judged`): a run that `max_steps` cut before any safety
    violation has status budget_exceeded and exit code 2.  An exhaustive
    scenario is certified (`certify`); only a counterexample is then re-run
    from a fresh machine and recorded, for the report's verdicts and the
    trace.  That run also keeps an action point before every action and
    labels the staged registers, which changes no byte of the outcome, and
    is kept (`_remember`) until a `minimize` of the same scenario and
    plan starts from it instead of running the plan again.  A monte_carlo
    scenario reads no image, so none is built."""
    mode = scenario["adversary"]
    if mode == "exhaustive":
        image, out, stats = certify(scenario, workers)
    elif mode != "monte_carlo":
        image = _image_for(scenario)
    sgx = scenario["sgx_version"]
    actions = None
    search = None

    if mode == "monte_carlo":
        rate = adversary.estimate_single_shot_rate(scenario["trials"],
                                                   scenario["seed"])
        stats = {"trials": scenario["trials"], "rate": rate,
                 "exact_rate": adversary.exact_single_shot_rate()}
    elif mode == "multi_round_aslr":
        res = adversary.multi_round_aslr(image, scenario["max_rounds"])
        # set from the recorded run of the sweep, if it runs
        stats = {"rounds_needed": res.rounds_needed,
                 "success": False, "exhausted": res.exhausted,
                 "stack_shift": image.layout.stack_base - image.stack_base}
        if res.plan is not None:
            actions = prefix_plan() + res.plan.actions
    elif mode.startswith("benign"):
        boundary = scenario["boundary"]
        if mode == "benign":
            actions = benign_plan()
        elif mode == "benign_nested":
            actions = benign_nested_plan(
                15 if boundary is None else boundary)
        else:
            actions = benign_critical_exception_plan(
                5 if boundary is None else boundary)
        stats = {}
    elif mode == "scripted":
        try:
            plan = adversary.scripted_attack(
                image, sgx, vector=(VECTOR_IDS[scenario["vector"]]
                                    if scenario["vector"] else None),
                classes=_classes_for(scenario), route=scenario["route"])
        except adversary.PlanInfeasible as e:
            stats = {"plan": "infeasible", "reason": e.reason}
        else:
            actions = prefix_plan() + plan.actions
            stats = {"expected_milestones": list(plan.expected_milestones)}
    else:   # exhaustive, certified above
        search = out.stats
        if isinstance(out, adversary.BudgetExceeded):
            return Outcome(scenario, "budget_exceeded", [], (), stats,
                           None, EXIT_BUDGET, search)
        if isinstance(out, adversary.NoneFound):
            verdicts = [Verdict(p, "no_violation_found", stats=stats)
                        for p in scenario["properties"]]
            return Outcome(scenario, "ok", verdicts, (), stats, None,
                           EXIT_OK, search)
        actions = prefix_plan() + out.plan.actions

    if actions is None:
        return Outcome(scenario, "ok", [], (), stats, None, EXIT_OK)
    if mode == "exhaustive":
        res, lines = _execute(scenario, image, actions, record=True,
                              keep_from=0, payload=_staged(actions))
    else:
        res, lines = _execute(scenario, image, actions, record=True)
    if mode == "scripted" or mode.startswith("benign"):
        stats.update(steps=res.steps, status=res.status)
    reached = milestones(res.trace, image)
    if mode == "multi_round_aslr":
        stats["success"] = "anchor_written" in reached
    verdicts, code = _judged(scenario, image, res)
    if mode == "exhaustive":
        _remember(scenario, actions, res, verdicts)
    status = "budget_exceeded" if code == EXIT_BUDGET else "ok"
    return Outcome(scenario, status, verdicts, reached, stats, lines, code,
                   search)


# ---------------------------------------------------------------------------
# Counterexample minimization
# ---------------------------------------------------------------------------

def _fires(image: EnclaveImage, scenario: dict, actions: list, prop: str,
           start: Point, checkpoint: SafetyMonitor,
           staged: tuple[str, ...]) -> tuple[RunResult, bool]:
    """One minimization trial: run `actions` from a copy of `start`, an
    action point of a plan that shares the actions before it, with the
    registers `staged` labelled, keeping no points.  `checkpoint` is a
    safety monitor that has read the point's trace; a clone of it reads
    only the events the run added (``adversary._monitored``), and reaches
    the verdicts a fresh monitor over the whole trace would.  Returns the
    run and whether `prop` fires on it."""
    res = run_plan(start.copy(), image, actions,
                   max_steps=scenario["budgets"]["max_steps"],
                   payload=staged)
    return res, adversary._monitored(checkpoint,
                                     res.trace).verdict(prop).violated


def _unread(image: EnclaveImage, scenario: dict, actions: list, prop: str,
            accepted: list, influenced: int, name: str) -> bool:
    """Whether a zeroing trial is decided without a run.  `actions` is the
    accepted plan `accepted` with one staged word of register `name`
    zeroed, and `influenced` holds the payload planes that reached a sink
    in the accepted plan's run.  When `name`'s plane is not among them, no
    staged value of `name` reached a sink, so the trial's run gives the
    accepted run's trace, status, steps, boundaries and actions applied
    (noninterference): `prop` fires on it, and the trial is accepted."""
    return not influenced & ORIGINS[REG_IDS[name]]


def _repeated(image: EnclaveImage, scenario: dict, actions: list, prop: str,
              rejected: set) -> bool:
    """Whether a trial is decided without a run because the same
    minimization rejected the same plan before: `rejected` holds the
    plans it rejected, as tuples.  A trial gives what a fresh run of its
    plan gives, so its outcome depends on the plan alone, and `actions`
    is rejected again."""
    return tuple(actions) in rejected


def minimize(scenario: dict, actions: list) -> list:
    """Greedy removal of host actions and zeroing of staged payload words
    while the same property still fires on replay.  Deterministic and
    idempotent; raises ValueError when the input does not violate.

    The reduction starts from a run of the input that keeps an action
    point before every action.  The first call after `run` recorded an
    exhaustive counterexample takes that recorded run (`_recall`) when
    its input is the same scenario and plan, with the property its
    verdicts found violated, and steps no instruction before its first
    trial; any other call runs the input once more to keep the points.
    Either way the trials and the result are the same.

    Every run labels the value of each register a `PrepareRegs` of the
    input stages with that register's own payload plane, so the accepted
    plan's run tells which staged registers reached a sink.  Zeroing a
    staged word of any other register is decided by labels (`_unread`):
    accepted without a run.  A plan this call rejected before is rejected
    again without a run (`_repeated`); the plans rejected are kept only
    for the call.

    The accepted plan keeps an action point before each action its run
    reached, and a safety-monitor checkpoint per point, built when a trial
    first resumes there from the one below it.  A trial that changes
    action i shares the accepted plan's first i actions, so it resumes
    from the point before action i, or from the last point when the
    accepted run ended earlier, and keeps no points.  Its verdict resumes
    the point's checkpoint over the events the trial added (`_fires`).

    A change accepted from the point before action i, by a trial or by
    labels, leaves the points after i stale.  After a zeroing they differ
    from the accepted plan's own points only in staged values on the
    zeroed registers' payload planes.  A later zeroing from that point
    or after it adds its planes; one from an earlier point j first drops
    the points after i, so that those after j differ on its planes alone.
    After a removal the planes are unknown.  A trial from a stale point
    whose run lets none of those planes reach a sink gives the trace,
    status, steps, boundaries, actions applied, `influenced` and verdict
    of its run from the accepted plan's own point (noninterference, as
    for `_unread`); only its final state differs, on those planes.
    Otherwise, or when the planes are unknown, the accepted plan is
    re-run from the last exact point to keep the points again, up to the
    point before its last action, the last any trial resumes from; the
    stale checkpoints are dropped, and the trial runs again from its
    rebuilt point."""
    image = _image_for(scenario)
    staged = _staged(actions)
    recorded = _recall(scenario, image, actions)
    if recorded is None:
        base, _ = _execute(scenario, image, actions, keep_from=0,
                           payload=staged)
        verdicts = _verdicts(scenario, image, base.trace)
    else:
        base, verdicts = recorded
    hit = any_violation(verdicts)
    if hit is None:
        raise ValueError("not a violation")
    prop = hit.property_id
    max_steps = scenario["budgets"]["max_steps"]
    sp_mode = scenario["sp_confinement_mode"]

    current = list(actions)
    points = base.points        # points[j]: `current` before action j
    checks = []     # checks[j]: a monitor that has read points[j]'s trace
    influenced = base.machine.influenced    # planes of `current`'s run
    stale = None    # points after this index predate an accepted change
    dirty = 0       # the planes on which they differ; None: unknown
    rejected = set()    # the plans a trial rejected

    def checkpoint(at: int) -> SafetyMonitor:
        while len(checks) <= at:
            below = checks[-1] if checks else SafetyMonitor(image, sp_mode)
            checks.append(adversary._monitored(
                below, points[len(checks)].machine.trace))
        return checks[at]

    def mark(at: int, planes: Optional[int]) -> None:
        """Note a change accepted from the point before action `at`: a
        zeroing of staged words on `planes`, or with None a removal."""
        nonlocal points, stale, dirty
        if stale is not None and at < stale:
            points = points[:stale + 1]
            stale = None
        if stale is None:
            stale, dirty = at, 0
        dirty = None if planes is None or dirty is None else dirty | planes

    def accepted(candidate: list, i: int, planes: Optional[int]) -> bool:
        nonlocal current, points, influenced, stale, dirty
        if _repeated(image, scenario, candidate, prop, rejected):
            return False
        at = min(i, len(points) - 1)
        exact = stale is None or at <= stale
        if exact or dirty is not None:
            res, fires = _fires(image, scenario, candidate, prop, points[at],
                                checkpoint(at), staged)
        if not exact and (dirty is None or res.machine.influenced & dirty):
            rebuilt = run_plan(points[stale].copy(), image,
                               current[:-1] + [Stop()], max_steps=max_steps,
                               payload=staged, keep_from=stale + 1)
            points = points[:stale + 1] + rebuilt.points
            del checks[stale + 1:]
            stale, dirty = None, 0
            at = min(i, len(points) - 1)    # the rebuilt run may end earlier
            res, fires = _fires(image, scenario, candidate, prop, points[at],
                                checkpoint(at), staged)
        if not fires:
            rejected.add(tuple(candidate))
            return False
        current = candidate
        influenced = res.machine.influenced
        mark(at, planes)
        return True

    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(current):
            if accepted(current[:i] + current[i + 1:], i, None):
                changed = True
            else:
                i += 1
        for i, action in enumerate(current):
            if not isinstance(action, PrepareRegs):
                continue
            regs = list(action.regs)
            for j, (name, val) in enumerate(regs):
                if val == 0:
                    continue
                trial = list(regs)
                trial[j] = (name, 0)
                candidate = list(current)
                candidate[i] = PrepareRegs(tuple(trial))
                planes = ORIGINS[REG_IDS[name]]
                if _unread(image, scenario, candidate, prop, current,
                           influenced, name):
                    current = candidate
                    mark(i, planes)
                elif not accepted(candidate, i, planes):
                    continue
                regs = trial
                changed = True
    return current


def evaluate_with_scenario(scenario: dict, image: EnclaveImage,
                           actions: list) -> list[Verdict]:
    res, _ = _execute(scenario, image, actions)
    return _verdicts(scenario, image, res.trace)


# ---------------------------------------------------------------------------
# Trace replay
# ---------------------------------------------------------------------------

class ReplayResult(NamedTuple):
    ok: bool
    divergence_line: int = -1
    detail: str = ""
    verdicts: Sequence[Verdict] = ()
    exit_code: int = EXIT_OK


# event kinds whose first field is the pc of the instruction that emitted it
_PC_EVENTS = frozenset({"retire", "store", "sp_assign", "ctrl", "fault",
                        "leak", "exit", "halt", "memr", "memcpy"})


def _divergence(body_lines: list[str], i: int, got: str,
                program: Program) -> str:
    """Name what diverged at body line `i`: the last action applied before
    it (0-based, with its line), the kind of the expected line and, for an
    event emitted by an instruction, that instruction disassembled."""
    applied = [ln for ln in body_lines[:i] if ln.startswith("A ")]
    where = (f"after action {len(applied) - 1} ({applied[-1]})" if applied
             else "before the first action")
    want = body_lines[i]
    if not want.startswith("E "):
        return (f"{where}, expected an action line: expected {want!r}, "
                f"got {got!r}")
    try:
        reporting.event_from_line(want)
    except (ValueError, KeyError):
        return (f"{where}, expected a well-formed event line: expected "
                f"{want!r}, got {got!r}")
    parts = want.split()
    detail = (f"{where}, expected event kind {parts[1]}: expected {want!r}, "
              f"got {got!r}")
    if parts[1] in _PC_EVENTS:
        pc = int(parts[2], 16)
        ins = program.code.get(pc)
        text = render(ins) if ins is not None else "not in the program"
        detail += f"; instruction {pc:#x}: {text}"
    return detail


def replay(scenario: dict, body_lines: list[str],
           declared_lines: int) -> ReplayResult:
    """Re-execute the recorded actions and re-check every event digest;
    the verdicts and exit code are judged as `run` judges them.
    A flip of a page the layout does not map, or a seed of other than
    aligned public words, raises TraceFileError naming its line."""
    if len(body_lines) != declared_lines:
        return ReplayResult(False, len(body_lines),
                            "trace truncated or padded",
                            exit_code=EXIT_DIGEST_MISMATCH)
    action_lines = [ln for ln in body_lines if ln.startswith("A ")]
    actions = [reporting.action_from_line(ln) for ln in action_lines]
    image = _image_for(scenario)
    try:
        res, lines = _execute(scenario, image, actions, record=True)
    except UnknownPage as e:
        # the first flip of that base is the one that failed
        line = next(ln for ln, a in zip(action_lines, actions)
                    if isinstance(a, FlipPerms) and hex(a.page_base) == str(e))
        raise reporting.TraceFileError(
            f"{line!r} flips page {e}, which the layout does not map"
        ) from None
    except SeedRefused as e:        # the first equal seed was refused
        line = action_lines[actions.index(e.args[0])]
        raise reporting.TraceFileError(
            f"{line!r} seeds other than aligned public words") from None
    if lines != body_lines:
        # walk the lines only to name the first mismatch
        for i, (want, got) in enumerate(zip(body_lines, lines)):
            if want != got:
                detail = _divergence(body_lines, i, got, image.program)
                return ReplayResult(False, i, detail,
                                    exit_code=EXIT_DIGEST_MISMATCH)
        return ReplayResult(False, min(len(lines), len(body_lines)),
                            "replay produced a different number of lines",
                            exit_code=EXIT_DIGEST_MISMATCH)
    verdicts, code = _judged(scenario, image, res)
    return ReplayResult(True, verdicts=verdicts, exit_code=code)


# ---------------------------------------------------------------------------
# Runtime-survey matrix
# ---------------------------------------------------------------------------

class MatrixCell(NamedTuple):
    runtime: str
    variant: str
    exception_handling: bool
    verdict: str                    # VULN | SAFE | BUDGET
    stats: dict
    # the certification's search work; None on a row that reuses the
    # certification of an earlier row
    search: Optional[adversary.SearchStats] = None


_MAPPING_ROW_KEYS = {"runtime", "variant", "exception_handling", "toggles",
                     "alt_variant"}


def load_mapping(path: Optional[str] = None) -> list[dict]:
    """The survey rows of the mapping file at `path` (default: the
    fixture), all checked before anything is certified: a malformed
    mapping raises ScenarioError naming the row and the field."""
    path = path or fixture_path("runtime_matrix.json")
    if not os.path.exists(path):
        raise FixtureMissing(path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("runtimes"), list):
        raise reporting.ScenarioError("the document must be an object whose "
                                      "runtimes is a list")
    unknown = set(doc) - {"comment", "runtimes"}
    if unknown:
        raise reporting.ScenarioError(f"unknown keys: {sorted(unknown)}")
    if not doc["runtimes"]:
        raise reporting.ScenarioError("runtimes must list at least one row")
    for i, row in enumerate(doc["runtimes"]):
        try:
            _check_row(row)
        except reporting.ScenarioError as e:
            raise reporting.ScenarioError(f"runtimes[{i}]: {e}") from None
    return doc["runtimes"]


def _check_row(row) -> None:
    if not isinstance(row, dict):
        raise reporting.ScenarioError(f"row must be an object, got {row!r}")
    unknown = set(row) - _MAPPING_ROW_KEYS
    if unknown:
        raise reporting.ScenarioError(f"unknown keys: {sorted(unknown)}")
    runtime = row.get("runtime")
    if not isinstance(runtime, str) or not runtime:
        raise reporting.ScenarioError(f"runtime must be a non-empty string, "
                                      f"got {runtime!r}")
    if not isinstance(row.get("exception_handling", True), bool):
        raise reporting.ScenarioError(
            f"exception_handling must be true or false, got "
            f"{row['exception_handling']!r}")
    if "alt_variant" in row and row["alt_variant"] not in VARIANTS:
        raise reporting.ScenarioError(
            f"unknown alt_variant: {row['alt_variant']!r}")
    # the variant and toggles the row's certification runs under
    reporting.normalize_scenario({"variant": row.get("variant"),
                                  "toggles": row.get("toggles")})


_MATRIX_VERDICTS = {adversary.Counterexample: "VULN",
                    adversary.NoneFound: "SAFE",
                    adversary.BudgetExceeded: "BUDGET"}


def run_matrix(mapping: list[dict], sgx_version: int,
               workers: int = 1) -> list[MatrixCell]:
    """Per-runtime vulnerable/safe verdicts via the exhaustive oracle.
    Each distinct (variant, toggles) is certified once (`certify`), in
    mapping order, when a row first names it, with `workers` processes
    searching that certification's branches; later rows reuse its verdict
    and stats.  A cell's verdict and stats come from the search itself: a
    counterexample is not re-run or recorded (`aexlab run` does that for
    its report and trace)."""
    certified = {}
    cells = []
    for row in mapping:
        toggles = row.get("toggles") or {}
        key = (row["variant"], tuple(sorted(toggles.items())))
        search = None
        if key not in certified:
            _, out, stats = certify(reporting.normalize_scenario({
                "variant": row["variant"], "sgx_version": sgx_version,
                "adversary": "exhaustive", "toggles": toggles}), workers)
            certified[key] = (_MATRIX_VERDICTS[type(out)], stats)
            search = out.stats
        verdict, stats = certified[key]
        cells.append(MatrixCell(row["runtime"], row["variant"],
                                row.get("exception_handling", True),
                                verdict, stats, search))
    return cells


def render_matrix(cells: list[MatrixCell], sgx_version: int) -> str:
    name_w = max([len(c.runtime) for c in cells] + [len("runtime")])
    var_w = max([len(c.variant) for c in cells] + [len("modeled as")])
    lines = [f"runtime survey (sgx{sgx_version}, exhaustive certification)"]
    header = (f"{'runtime':<{name_w}}  {'modeled as':<{var_w}}  "
              f"exception-handling  verdict")
    lines.append(header)
    lines.append("-" * len(header))
    vuln = safe = budget = 0
    for c in cells:
        eh = "yes" if c.exception_handling else "no"
        lines.append(f"{c.runtime:<{name_w}}  {c.variant:<{var_w}}  "
                     f"{eh:<18}  {c.verdict}")
        if c.verdict == "VULN":
            vuln += 1
        elif c.verdict == "SAFE":
            safe += 1
        else:
            budget += 1
    total = len(cells)
    summary = f"totals: {vuln} vulnerable, {safe} safe"
    if budget:
        summary += f", {budget} budget-exceeded"
    lines.append(summary + f" (of {total})")
    return "\n".join(lines) + "\n"
