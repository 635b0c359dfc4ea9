"""Drives an adversary (or cooperative host) plan against a machine.

A plan is a static, replayable list of host-side actions.  The harness
alternates between applying actions in OS mode and stepping the enclave,
firing armed asynchronous exits at the requested instruction boundary.
Because the machine is deterministic, reactive host behavior (answer an
ocall, deliver an exception, resume) can be written down as a fixed action
sequence; an action that the hardware refuses (denied entry or resume)
terminates the run with the refusal on the trace.  A run can keep points
(the machine and the run's own state at instruction boundaries of an
entered window, or in OS mode before an action), and a later run can
resume from one instead of repeating the steps before it.  A run can also
give staged registers payload labels (``payload``), each its own origin
plane; the same program steps either way.

Every run of a scenario starts from a copy of a point of a ``Root``: the
one machine built for an image on a platform, kept before any action and
after ``prefix_plan()``, which the plans of a search and the recorded runs
of the image share.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional

from .interp import fetch_table, run_steps
from .machine import (
    E_ADV_SEED, EntryDenied, MASK64, MODE_ENCLAVE, NREGS, ORIGINS,
    PAYLOADS, RDI, REG_IDS, RSI, RSP, ResumeDenied, Machine,
)
from .runtimes import (
    CMD_ECALL_COMPUTE, CMD_ECALL_FAULTING, CMD_EXCEPTION, CMD_ORET,
    EnclaveImage,
)

# Run end statuses.
DONE = "done"               # plan exhausted with the platform quiescent
STOPPED = "stopped"         # explicit stop action
HALTED = "halted"           # enclave executed a halt (or aborted)
ENTRY_DENIED = "entry_denied"
RESUME_DENIED = "resume_denied"
STALLED = "stalled"         # fault undeliverable inside an atomic window
BUDGET_EXCEEDED = "budget_exceeded"

DEFAULT_MAX_STEPS = 20000

# Actions in an injected candidate plan: PrepareRegs, InjectAex, Eenter and
# the shared delivery tail.  A dry run omits the injection and the tail.
CANDIDATE_DEPTH = 6

# Distinct payload tuples, and (register tuple, command) pairs of entries,
# whose run setup is kept resolved per process: at seed 53, a hunt pass of
# the benchmark enters with 242 distinct pairs, a survey pass with 17.
PAYLOAD_CACHE_SIZE = 16
ENTRY_CACHE_SIZE = 512


class SearchBudget(NamedTuple):
    max_runs: int = 200000
    max_steps: int = DEFAULT_MAX_STEPS    # per run from a fresh machine
    boundary_cap: int = 160
    depth: int = CANDIDATE_DEPTH    # actions per candidate plan


# Actions are values.  Those with fields are named tuples that compare
# equal only to an action of the same kind, so InjectAex(32, 5) is not
# FlipPerms(32, 5); tuple hashing is kept.
def _same_kind(self, other) -> bool:
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _other_kind(self, other) -> bool:
    return other.__class__ is not self.__class__ or tuple.__ne__(self, other)


class PrepareRegs(NamedTuple):
    """Stage register values for the next synchronous entry."""
    regs: tuple[tuple[str, int], ...]

    __eq__, __ne__ = _same_kind, _other_kind

    @staticmethod
    def of(**kv: int) -> "PrepareRegs":
        return PrepareRegs(tuple(sorted((k, v & MASK64) for k, v in kv.items())))


class Eenter(NamedTuple):
    cmd: int
    regs: Optional[tuple[tuple[str, int], ...]] = None  # None: use staged
    aep: Optional[int] = None

    __eq__, __ne__ = _same_kind, _other_kind

    @staticmethod
    def of(cmd: int, regs: Optional[dict[str, int]] = None,
           aep: Optional[int] = None) -> "Eenter":
        packed = None if regs is None else tuple(
            sorted((k, v & MASK64) for k, v in regs.items()))
        return Eenter(cmd & MASK64, packed, aep)


class _Bare:
    """An action without fields: equal to every action of its kind."""
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return True

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}()"


class Eresume(_Bare):
    __slots__ = ()


class InjectAex(NamedTuple):
    """Arm an asynchronous exit of class `vector` for the next entered
    window, to fire after `boundary` retired instructions."""
    vector: int
    boundary: int

    __eq__, __ne__ = _same_kind, _other_kind


class FlipPerms(NamedTuple):
    page_base: int
    perms: int

    __eq__, __ne__ = _same_kind, _other_kind


class SeedPublic(NamedTuple):
    """Host-side preparation of public memory (e.g. a gadget stack)."""
    addr: int
    words: tuple[int, ...]

    __eq__, __ne__ = _same_kind, _other_kind


class SeedRefused(Exception):
    """A SeedPublic (the argument) of other than aligned public words."""


class Stop(_Bare):
    __slots__ = ()


class AttackPlan(NamedTuple):
    """Ordered host actions plus the value bindings that shaped them."""

    name: str
    actions: list
    bindings: Optional[dict] = None
    expected_milestones: tuple[str, ...] = ()


class Point:
    """Where a run can resume: a clone of the machine and all of the run
    loop's own state at one place of a run.  A window point is kept at one
    instruction boundary of the window the run's first entry opened, the
    clone taken right after the instruction that retired there; an action
    point in OS mode, right before action `idx` is applied.  `run_plan`
    keeps points on request and resumes from them.  A resume takes the
    point's machine, so a point resumed more than once is resumed through
    `copy()`."""

    __slots__ = ("machine", "idx", "staged", "armed", "live", "window_count",
                 "steps", "boundaries")

    def __init__(self, machine: Machine, idx: int, staged: tuple,
                 armed: Optional[InjectAex], live: Optional[InjectAex],
                 window_count: int, steps: int, boundaries: int):
        self.machine = machine
        self.idx = idx                  # next action index
        self.staged = staged            # the last PrepareRegs' regs
        self.armed = armed              # pending for the next window
        self.live = live                # counting in the current window
        self.window_count = window_count
        self.steps = steps
        self.boundaries = boundaries

    def copy(self) -> "Point":
        """The same point with its own clone of the machine."""
        return Point(self.machine.clone(), self.idx, self.staged, self.armed,
                     self.live, self.window_count, self.steps,
                     self.boundaries)


class RunResult(NamedTuple):
    status: str
    steps: int
    boundaries: int          # instruction boundaries seen in entered windows
    machine: Machine
    actions_applied: int
    points: list             # kept points, in order

    @property
    def trace(self) -> list[tuple]:
        return self.machine.trace


@functools.lru_cache(maxsize=PAYLOAD_CACHE_SIZE)
def _payload_masks(payload: tuple[str, ...]) -> tuple[int, int]:
    """The label mask that gives each register of `payload` its own origin
    plane, and the planes of it that an entry sinks: rsp is a sink, rsi a
    field of the eenter event."""
    labels = 0
    for name in payload:
        r = REG_IDS[name]
        labels |= ORIGINS[r] << r
    return labels, (labels >> RSP | labels >> RSI) & PAYLOADS


@functools.lru_cache(maxsize=ENTRY_CACHE_SIZE)
def _entry_regs(regs: tuple[tuple[str, int], ...], cmd: int) -> tuple:
    """The registers an entry with `regs` and command `cmd` (rdi) loads."""
    os_regs = [0] * NREGS
    for name, val in regs:
        os_regs[REG_IDS[name]] = val & MASK64
    os_regs[RDI] = cmd & MASK64
    return tuple(os_regs)


def run_plan(machine: "Machine | Point", image: EnclaveImage, actions: list,
             max_steps: int = DEFAULT_MAX_STEPS,
             on_action: Optional[Callable[[int, object], None]] = None,
             after_events: Optional[Callable[[], None]] = None,
             payload: tuple[str, ...] = (), keep: int = -1,
             inject: Optional[InjectAex] = None,
             keep_from: Optional[int] = None) -> RunResult:
    """Execute `actions` to completion.  `on_action` is called before each
    action is applied (for trace serialization); `after_events` after every
    atomic machine transition (for digest recording and state collection),
    each instruction included: the enclave steps through one
    ``interp.run_steps`` call per stretch of a window up to the next thing
    the run acts on (the live injection's boundary, the step budget, the
    end of an open irq-quota window, the last boundary it keeps points
    at), which calls it after each instruction.  What a run sets up from
    its arguments, the label masks of `payload` and the registers of each
    entry, is resolved once per distinct value (``_payload_masks``,
    ``_entry_regs``).

    `payload` names the staged registers that carry the attacker's
    payload: at an entry that uses the staged registers, the staged value
    of each gets that register's own origin plane (``ORIGINS``).
    ``machine.influenced`` ends up holding the planes that reached a sink;
    the run's trace, status and steps do not depend on the staged values
    of registers whose planes it does not hold.

    The run keeps points in ``RunResult.points``, in the order it reaches
    them.  With `keep` >= 0 it keeps a window point at the first visit of
    each boundary 0..keep of the window its first entry opened: the
    boundaries up to `keep` step in one stretch, whose hook (``_keeper``)
    clones the machine after each instruction that retires and then calls
    `after_events`.  With `keep_from` it keeps an action point each time
    it is about to apply an action with index `keep_from` or later.  A run
    that keeps no points pays nothing for them per step.

    Given a Point instead of a machine, the run resumes from it, taking the
    point's machine.  From an action point, `actions` is any plan whose
    first `point.idx` actions are those of the plan the point was kept
    from; the resumed run equals a fresh run of `actions` exactly: its
    trace, status, steps, boundaries, actions applied, labels and digest.
    From a window point, `inject` goes live at the point: `actions` is the
    plan the point was kept from with `inject` inserted right before the
    entry that opened the window.  When that plan had no injection live in
    the window and `inject` fires at the point's boundary or later, the
    resumed run equals a fresh run of `actions` in the same way."""
    program = image.program
    labels, entry_sunk = _payload_masks(payload)
    points: list[Point] = []
    keep_until = -1     # the last boundary of the current window to keep
    keep_window = keep  # keep points in the next entered window: -1 none
    act_from = len(actions) if keep_from is None else keep_from
    if isinstance(machine, Point):
        start = machine
        machine = start.machine
        staged = start.staged
        armed = start.armed
        live = start.live
        window_count = start.window_count
        steps = start.steps
        boundaries = start.boundaries
        idx = start.idx
        if inject is not None:
            live = inject
            idx += 1                      # the injection was applied too
    else:
        staged = ()
        armed = None
        live = None
        window_count = 0
        steps = 0
        boundaries = 0
        idx = 0
    status = DONE

    def notify():
        if after_events is not None:
            after_events()

    while True:
        if machine.halted:
            status = HALTED
            break
        if steps >= max_steps:
            status = BUDGET_EXCEEDED
            break

        if machine.mode == MODE_ENCLAVE:
            # fire an armed injection at its boundary
            if live is not None and window_count == live.boundary:
                vec = live.vector
                live = None
                machine.aex(vec)    # False: deferred into the atomic window
                notify()
                continue
            # expire a cycle-bounded atomic window
            hw = machine.hw
            if hw.atomic and machine.cycle >= hw.atomic_until:
                vec = machine.end_atomic()
                if vec is not None:
                    if not machine.aex(vec):
                        raise AssertionError("deferred delivery re-deferred")
                    notify()
                    continue
            # step to the next thing this loop acts on: the live
            # injection's boundary, the step budget, the open atomic
            # window's end cycle (an instruction that retires counts one),
            # or the last boundary the window keeps points at
            limit = max_steps - steps
            if live is not None and live.boundary > window_count:
                limit = min(limit, live.boundary - window_count)
            if hw.atomic:
                limit = min(limit, hw.atomic_until - machine.cycle)
            if window_count < keep_until:
                limit = min(limit, keep_until - window_count)
                clones: list[Machine] = []
                stepped, sig = run_steps(machine, program, limit,
                                         _keeper(machine, clones,
                                                 after_events))
                for n, clone in enumerate(clones, 1):
                    points.append(Point(clone, idx, staged, armed, live,
                                        window_count + n, steps + n,
                                        boundaries + n))
            else:
                stepped, sig = run_steps(machine, program, limit,
                                         after_events)
            steps += stepped
            if sig == "ok":
                window_count += stepped
                boundaries += stepped
                continue
            # the last instruction did not retire
            window_count += stepped - 1
            boundaries += stepped - 1
            if sig == "fault":
                delivered = machine.aex(machine.pending_fault)
                notify()
                if not delivered:
                    status = STALLED
                    break
                live = None
                continue
            if sig == "exit":
                live = None
                continue
            if sig == "halt":
                status = HALTED
                break
            raise AssertionError(sig)

        # OS mode: apply the next action; the kept window, if any, is over
        keep_until = -1
        if idx >= len(actions):
            status = DONE
            break
        if idx >= act_from:
            points.append(Point(machine.clone(), idx, staged, armed, live,
                                window_count, steps, boundaries))
        action = actions[idx]
        if on_action is not None:
            on_action(idx, action)
        idx += 1

        if isinstance(action, PrepareRegs):
            staged = action.regs
        elif isinstance(action, Eenter):
            aep = action.aep if action.aep is not None else image.layout.aep
            try:
                machine.eenter(_entry_regs(staged if action.regs is None
                                           else action.regs, action.cmd), aep)
                if labels and action.regs is None:
                    machine.taint |= labels
                    machine.influenced |= entry_sunk
                notify()
            except EntryDenied:
                notify()
                status = ENTRY_DENIED
                break
            live = armed
            armed = None
            window_count = 0
            if keep_window >= 0:
                keep_until = keep_window
                keep_window = -1
                points.append(Point(machine.clone(), idx, staged, armed,
                                    live, 0, steps, boundaries))
        elif isinstance(action, Eresume):
            try:
                machine.eresume()
                notify()
            except ResumeDenied:
                notify()
                status = RESUME_DENIED
                break
            if armed is not None:
                live = armed
                armed = None
                window_count = 0
        elif isinstance(action, InjectAex):
            armed = action
        elif isinstance(action, FlipPerms):
            machine.os_set_page_perms(action.page_base, action.perms)
            notify()
        elif isinstance(action, SeedPublic):
            addrs = range(action.addr, action.addr + 8 * len(action.words), 8)
            if action.addr % 8 or not all(map(machine.mem.is_public, addrs)):
                raise SeedRefused(action)
            for addr, w in zip(addrs, action.words):
                machine.mem.write(addr, w & MASK64, False)
            machine.emit(E_ADV_SEED, 0, action.addr, len(action.words))
            notify()
        elif isinstance(action, Stop):
            status = STOPPED
            break
        else:
            raise TypeError(f"unknown action {action!r}")

    return RunResult(status=status, steps=steps, boundaries=boundaries,
                     machine=machine, actions_applied=idx, points=points)


def _keeper(machine: Machine, clones: list,
            after_events: Optional[Callable[[], None]]) -> Callable[[], None]:
    """The `after` hook of a stretch that keeps window points: it appends a
    clone of `machine` to `clones` after each instruction that retired,
    then calls `after_events`.  An instruction that did not retire faulted
    (a pending fault), left the enclave or halted."""
    def keep() -> None:
        if (machine.pending_fault < 0 and machine.mode == MODE_ENCLAVE
                and not machine.halted):
            clones.append(machine.clone())
        if after_events is not None:
            after_events()
    return keep


class Root:
    """Where every run of one image on one platform starts: the machine
    ``runtimes.build_machine`` builds for the image under an sgx version
    and an irq grant (``key``), kept as two points.  `fresh` is the point
    before any action; `after` the action point right after
    ``prefix_plan()``, or None when the prefix does not run to it.  One
    run of the prefix from a copy of `fresh` gives `after`, `ended` and
    `lines`: how a run of ``prefix_plan()`` ends, (status, steps, retired
    instructions), the trace lines that `recorder(machine)`, a
    ``reporting.TraceRecorder``, recorded up to `after`, and `text`, the
    digest text that recording left on its machine, in `after`'s state
    (``Machine.digest_text``), taken without a digest of its own (both
    None with `after`).  A recorded run from `after` starts from the
    lines and from its own copy of the text (``Machine.seed_digest_text``),
    so that its first digest re-formats only what the run changed.

    A program holds its roots (``Program.roots``).  The points' machines
    are plain state, without digest text (see ``Machine.clone``), and so
    is every copy `copy` and `start` give.  They keep their fetch table,
    but not ``fetch_program``, so that nothing the program holds refers
    back to it; `copy` sets it on each copy, so that no run from a root
    fetches its table again."""

    __slots__ = ("fresh", "after", "lines", "text", "ended")

    def __init__(self, machine: Machine, image: EnclaveImage,
                 recorder: Callable):
        fetch_table(machine.mem, image.program)
        self.fresh = Point(machine, 0, (), None, None, 0, 0, 0)
        start = self.copy(self.fresh, image.program)
        rec = recorder(start.machine)
        res = run_plan(start, image, prefix_plan() + [Stop()], keep_from=1,
                       on_action=rec.on_action, after_events=rec.after_events)
        self.ended = (DONE if res.status == STOPPED else res.status,
                      res.steps, res.machine.cycle)
        self.after = self.lines = self.text = None
        if res.status == STOPPED:
            self.after = res.points[0]
            self.after.machine.mem.fetch_program = None
            # the recorder's last line is the stop's, applied after the
            # point; the stop changes no state, so the recorder's machine
            # is in the point's state
            self.lines = tuple(rec.lines[:-1])
            self.text = res.machine.digest_text()
        machine.mem.fetch_program = None

    @staticmethod
    def key(image: EnclaveImage, sgx_version: int,
            grant: Optional[tuple[int, int]]) -> tuple:
        """What a root of `image`'s program depends on: every field of the
        image ``build_machine`` reads, the sgx version and the grant."""
        return (image.variant, image.layout, image.stack_base,
                image.entry_atomic_cycles, sgx_version, grant)

    @staticmethod
    def copy(point: Point, program) -> Point:
        """A copy of `point`, one of a root's, that a run of `program` can
        take."""
        start = point.copy()
        start.machine.mem.fetch_program = program
        return start

    def start(self, program, actions: list, max_steps: int) -> Point:
        """A copy of the point a run of `actions` under `max_steps` starts
        from: `after` when `actions` begin with ``prefix_plan()`` and the
        budget covers the prefix's steps, else `fresh`.  Either way the
        run equals a run of `actions` from a fresh machine."""
        after = self.after
        if (after is not None and after.steps <= max_steps
                and actions[:1] == prefix_plan()):
            return self.copy(after, program)
        return self.copy(self.fresh, program)


# ---------------------------------------------------------------------------
# Canonical host scripts
# ---------------------------------------------------------------------------

BENIGN_OCALL_RESULT = 42
BENIGN_REGS = {"rsp": 0, "rsi": 0}


def prefix_plan() -> list:
    """Drive the compute ecall up to its pending ocall: the state every
    ocall-return scenario starts from."""
    return [Eenter.of(CMD_ECALL_COMPUTE, regs=dict(BENIGN_REGS))]


def benign_plan() -> list:
    """Cooperative host: run the faulting ecall (deliver its exception,
    resume), then the compute ecall with a served ocall."""
    return [
        Eenter.of(CMD_ECALL_FAULTING, regs=dict(BENIGN_REGS)),
        Eenter.of(CMD_EXCEPTION, regs=dict(BENIGN_REGS)),
        Eresume(),
        Eenter.of(CMD_ECALL_COMPUTE, regs=dict(BENIGN_REGS)),
        Eenter.of(CMD_ORET, regs={"rsp": 0, "rsi": BENIGN_OCALL_RESULT}),
        Stop(),
    ]


def benign_nested_plan(handler_boundary: int = 15) -> list:
    """Cooperative host that lets a second exception land while the first
    is being handled, then attempts to deliver it."""
    return [
        Eenter.of(CMD_ECALL_FAULTING, regs=dict(BENIGN_REGS)),
        InjectAex(32, handler_boundary),
        Eenter.of(CMD_EXCEPTION, regs=dict(BENIGN_REGS)),
        Eenter.of(CMD_EXCEPTION, regs=dict(BENIGN_REGS)),
        Eresume(),
        Eresume(),
        Stop(),
    ]


def benign_critical_exception_plan(boundary: int, vector: int = 32) -> list:
    """Cooperative host that delivers an exception landing inside the
    ocall-return window, then serves the ocall to completion."""
    return [
        Eenter.of(CMD_ECALL_COMPUTE, regs=dict(BENIGN_REGS)),
        InjectAex(vector, boundary),
        Eenter.of(CMD_ORET, regs={"rsp": 0, "rsi": BENIGN_OCALL_RESULT}),
        Eenter.of(CMD_EXCEPTION, regs=dict(BENIGN_REGS)),
        Eresume(),
        Stop(),
    ]
