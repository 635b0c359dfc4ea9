"""The malicious host: scripted anchor-hijack plans, the exhaustive
injection-point attacker used as the certification oracle, and the
randomized-stack bypass experiments.

The scripted attacker knows the image layout (no randomization by
default): it crafts entry registers so that the exception flow's context
copy lands on the ocall return-address anchor, points the restored stack
at a gadget chain, and drives the block-copy helper to exfiltrate the
secret region.  The exhaustive attacker rediscovers violations from a
plan template with holes, enumerating injection boundaries, exception
classes, re-entry commands, and register bindings from a finite domain.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .harness import (
    AttackPlan, BENIGN_OCALL_RESULT, BENIGN_REGS, BUDGET_EXCEEDED,
    CANDIDATE_DEPTH, DONE, Eenter, Eresume, InjectAex, PrepareRegs, Root,
    RunResult, SearchBudget, SeedPublic, Stop, run_plan,
)
from .interp import RspPath
from .machine import (
    DEFAULT_IRQ_GRANT, MASK64, ORIGINS, RSP, SCRUB_VALUES, SGX2,
    VEC_EXT_INT, VEC_PAGE_FAULT, Machine, reports_to_enclave,
)
from .properties import SafetyMonitor
from .reporting import TraceRecorder
from .runtimes import (
    ASLR_RANGE, CMD_EXCEPTION, CMD_INVALID, CMD_ORET, ECALL0_FRAME,
    EnclaveImage, INFO_FIELDS, INFO_FREE_WINDOW, INFO_SIZE, build_machine,
)


class PlanInfeasible(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# Register crafting
# ---------------------------------------------------------------------------

class Craft(NamedTuple):
    """Solution of the variant's stack-pointer arithmetic: entering with
    rsp = crafted makes the handler's context copy start at info_base, so
    the word at `anchor` receives the register at field index lander."""

    crafted_rsp: int
    info_base: int
    lander_index: int


def craft_sp(image: EnclaveImage) -> Craft:
    """Pick the crafted stack pointer for this variant so that the copy
    span starts at the anchor (or one word below, preserving the 16-byte
    struct alignment) and never touches the checked context fields."""
    anchor = image.anchor_addr
    base16 = anchor & ~0xF
    lander = (anchor - base16) // 8          # 0 or 1
    if "red_zone_skip" in image.design.exc_flow:
        # red-zone skip then align-down then struct allocation
        want = base16 + INFO_SIZE            # (crafted-128) & ~15 must equal
        crafted = want + 128
        if want % 16:
            crafted += 8
        info_base = ((crafted - 128) & ~0xF) - INFO_SIZE
    else:
        # struct allocation then align-down; crafted stays 16-aligned so the
        # handler's own alignment check passes
        crafted = base16 + INFO_SIZE + 8
        if crafted % 16:
            crafted += 8
        info_base = (crafted - INFO_SIZE) & ~0xF
    lander = (anchor - info_base) // 8
    assert 0 <= lander <= 1, "crafting drifted off the anchor"
    return Craft(crafted, info_base, lander)


def _memcpy_chain(image: EnclaveImage, leak_dst: int) -> list[int]:
    g = image.gadgets
    lay = image.layout
    return [g["pop_rdx"], lay.secret_len, g["pop_rsi"], lay.secret_base,
            g["pop_rdi"], leak_dst, g["memcpy"], g["halt"]]


def _feasibility(image: EnclaveImage, sgx_version: int,
                 classes: tuple[int, ...]) -> int:
    """Return the exception class the scripted attack should use, or raise
    PlanInfeasible with the blocking reason."""
    design = image.design
    if design.blocked is not None:
        raise PlanInfeasible(design.blocked)
    if (design.validity_before_copy
            and not image.toggles.sgx1_valid_check_removed):
        usable = [c for c in classes if reports_to_enclave(c, sgx_version)]
        if not usable:
            raise PlanInfeasible(
                "no injectable class reports to the enclave as valid")
        return usable[0]
    # copy-before-check orderings work with any injectable class
    return classes[0] if classes else VEC_EXT_INT


def scripted_attack(image: EnclaveImage, sgx_version: int = SGX2,
                    vector: Optional[int] = None,
                    classes: tuple[int, ...] = (VEC_PAGE_FAULT, VEC_EXT_INT),
                    route: Optional[str] = None) -> AttackPlan:
    """The end-to-end anchor-hijack plan: corrupt the anchor through the
    exception flow's context copy, pivot the restored stack onto a gadget
    chain, and copy the secret region out.  `route` picks where the chain
    lives: "private" reuses the copied-register region on the enclave
    stack, "public" а host-prepared buffer."""
    if vector is None:
        vector = _feasibility(image, sgx_version, classes)
    if route is None:
        route = image.design.route
    craft = craft_sp(image)
    lay = image.layout
    anchor = image.anchor_addr
    chain = _memcpy_chain(image, lay.pubbuf_base + 0x200)

    regs: dict[str, int] = {"rsp": craft.crafted_rsp, "rsi": 0}
    actions: list = []
    if route == "private":
        # the chain rides in the copied registers right above the anchor
        lander_reg = INFO_FIELDS[craft.lander_index]
        chain_addr = anchor + 8
        regs[lander_reg] = image.gadgets["pivot"]
        for fld, word in zip(INFO_FIELDS[craft.lander_index + 1:], chain):
            regs[fld] = word
        regs["rcx"] = chain_addr
    else:
        # the chain sits in host-prepared public memory
        lander_reg = INFO_FIELDS[craft.lander_index]
        regs[lander_reg] = image.gadgets["pivot"]
        regs["rcx"] = lay.pubbuf_base
        actions.append(SeedPublic(lay.pubbuf_base, tuple(chain)))

    actions += [
        PrepareRegs.of(**regs),
        InjectAex(vector, 0),
        Eenter.of(CMD_ORET),
        Eenter.of(CMD_EXCEPTION, regs=dict(BENIGN_REGS)),
        Eresume(),
        Stop(),
    ]
    return AttackPlan(
        name=f"scripted/{image.variant}/sgx{sgx_version}",
        actions=actions,
        bindings={
            "anchor": anchor,
            "crafted_rsp": craft.crafted_rsp,
            "pivot_target": regs["rcx"],
            "chain": tuple(chain),
            "vector": vector,
            "route": route,
        },
        expected_milestones=("anchor_written", "pivoted", "leaked"),
    )


# ---------------------------------------------------------------------------
# The search space and the exhaustive attacker
# ---------------------------------------------------------------------------

PAYLOAD_REGS = ("r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
                "rax", "rbx", "rcx")


class SearchStats:
    """Plans covered (`runs`), with their steps and injected boundaries.
    A plan covered by its clean representative, or counted by its rsp
    class, counts its representative's steps, and a resumed plan all of
    its steps.  `executed` counts the plans actually run and `stepped` the
    instructions they stepped, a resumed plan only those after its point;
    `branches` counts the (command, rsp) branches searched and `classed`
    those of them whose first binding its rsp class counted; `cut` counts
    the executed plans the step budget ended.  These five depend on how
    the space was searched, not on the space, so reports leave them out.
    Stats are equal when all eight counters are."""

    __slots__ = ("runs", "steps", "boundaries", "executed", "stepped",
                 "branches", "classed", "cut")

    def __init__(self, runs: int = 0, steps: int = 0, boundaries: int = 0,
                 executed: int = 0, stepped: int = 0, branches: int = 0,
                 classed: int = 0, cut: int = 0):
        self.runs = runs
        self.steps = steps
        self.boundaries = boundaries
        self.executed = executed
        self.stepped = stepped
        self.branches = branches
        self.classed = classed
        self.cut = cut

    def _counters(self) -> tuple:
        return (self.runs, self.steps, self.boundaries, self.executed,
                self.stepped, self.branches, self.classed, self.cut)

    def __eq__(self, other):
        if other.__class__ is not SearchStats:
            return NotImplemented
        return self._counters() == other._counters()

    def __repr__(self) -> str:
        return (f"SearchStats(runs={self.runs}, steps={self.steps}, "
                f"boundaries={self.boundaries}, executed={self.executed}, "
                f"stepped={self.stepped}, branches={self.branches}, "
                f"classed={self.classed}, cut={self.cut})")

    def merge(self, other: "SearchStats") -> None:
        self.runs += other.runs
        self.steps += other.steps
        self.boundaries += other.boundaries
        self.executed += other.executed
        self.stepped += other.stepped
        self.branches += other.branches
        self.classed += other.classed
        self.cut += other.cut

    def to_dict(self) -> dict:
        return {"runs": self.runs, "steps": self.steps,
                "boundaries": self.boundaries}


class Counterexample(NamedTuple):
    branch: tuple
    plan: AttackPlan
    trace: list
    verdicts: list
    stats: SearchStats


class NoneFound(NamedTuple):
    stats: SearchStats


class BudgetExceeded(NamedTuple):
    stats: SearchStats
    reason: str = ""


# deliver the injected exception, resume, then serve the pending ocall
_INJECTED_TAIL = (
    Eenter.of(CMD_EXCEPTION, regs=dict(BENIGN_REGS)),
    Eresume(),
    Eenter.of(CMD_ORET, regs={"rsp": 0, "rsi": BENIGN_OCALL_RESULT}),
)


def _candidate_actions(entry: tuple[PrepareRegs, Eenter],
                       inject: Optional[tuple[int, int]]) -> list:
    prepare, enter = entry
    if inject is None:
        return [prepare, enter]
    return [prepare, InjectAex(*inject), enter, *_INJECTED_TAIL]


def image_root(image: EnclaveImage, sgx_version: int,
               grant: Optional[tuple[int, int]]) -> Root:
    """The root of `image` on this platform (see ``harness.Root``), which
    its program holds from the first run on: the one caller of
    ``build_machine``.  Every root records its prefix lines as it builds
    `after`, whoever asks for it first."""
    roots = image.program.roots
    key = Root.key(image, sgx_version, grant)
    root = roots.get(key)
    if root is None:
        root = roots[key] = Root(build_machine(image, sgx_version, grant),
                                 image, TraceRecorder)
    return root


class PrefixFailed(Exception):
    """The prefix every plan shares does not reach its pending ocall."""


def _prefix_snapshot(image: EnclaveImage, sgx_version: int,
                     grant: Optional[tuple[int, int]]) -> Machine:
    """A copy of the machine after the prefix every plan shares, under
    `grant`: its root's `after` point.  Every step of the prefix retires,
    so its steps are the machine's cycles; PrefixFailed, worded from the
    root's one prefix run (``Root.ended``), when it ends otherwise."""
    root = image_root(image, sgx_version, grant)
    status, steps, retired = root.ended
    if status != DONE or steps != retired:
        raise PrefixFailed(f"scenario prefix does not reach its ocall: "
                           f"{status} after {steps} steps, {retired} retired")
    return Root.copy(root.after, image.program).machine


class RspClass:
    """A class of rsp words of one re-entry command, found by its
    representative: the first binding of the branch (command, `word`) ran
    every plan shape with the staged rsp on its own plane, recording
    `path`.  `shapes` maps each shape, in plan order, to what its run
    gave, (status, steps, boundaries), and `clean` the shapes whose run no
    payload value influenced.  `totals`, set once that binding completes,
    sums its rows: (runs, steps, injected boundaries), which a branch the
    class counts adds to its stats.  `schedules` holds the later bindings'
    schedules (see `_schedule`), which depend on `clean` only.  `path` is
    None once no branch can read it (`_path_unread`): the plans of the
    representative's first binding after that record none."""

    __slots__ = ("word", "path", "shapes", "clean", "totals", "schedules")

    def __init__(self, word: int):
        self.word = word
        self.path = RspPath(word)
        self.shapes: dict = {}
        self.clean: dict = {}
        self.totals: Optional[tuple[int, int, int]] = None
        self.schedules: dict = {}


class SearchSpace(NamedTuple):
    """What a SAFE verdict covers.  From `root`, the machine after the
    shared prefix (a copy of its image root's `after` point) whose trace
    `checkpoint` has read, each of `commands`
    re-enters with rsp = each of `words` and the `payload_regs` = each of
    `words`, dry and injecting each of `classes` at boundary 0 and each of
    `inside` at each later boundary up to `budget.boundary_cap`: permission
    faults realize at the entry fetch, so a page fault only at boundary 0.
    A Counterexample's branch indexes it.  A plan
    runs from `root` for at most `max_steps` steps: the budget's, less the
    prefix's, so that it is cut where a run of the prefix and the plan
    from a fresh machine is.  `rsp_classes` is the one part a search
    writes: per command, the rsp classes found so far, in the order their
    representatives ran."""

    image: EnclaveImage
    root: Machine
    checkpoint: SafetyMonitor
    commands: tuple[int, ...]
    words: tuple[int, ...]
    payload_regs: tuple[str, ...]
    classes: tuple[int, ...]
    inside: tuple[int, ...]
    budget: SearchBudget
    max_steps: int
    rsp_classes: dict[int, list[RspClass]]

    def entry(self, cmd: int, rsp: int,
              payload: int) -> tuple[PrepareRegs, Eenter]:
        """The staged registers and re-entry every plan of a binding shares."""
        regs = {"rsp": rsp, "rsi": 0}
        for r in self.payload_regs:
            regs[r] = payload
        return PrepareRegs.of(**regs), Eenter.of(cmd)


def search_space(image: EnclaveImage, sgx_version: int = SGX2,
                 classes: tuple[int, ...] = (VEC_PAGE_FAULT, VEC_EXT_INT),
                 budget: Optional[SearchBudget] = None,
                 grant: Optional[tuple[int, int]] = DEFAULT_IRQ_GRANT,
                 sp_mode: str = "range") -> SearchSpace:
    """The space `exhaustive_attacker` enumerates; its words come from the
    crafted stack pointer, the anchor, the layout and the gadgets."""
    crafted = craft_sp(image).crafted_rsp
    budget = budget or SearchBudget()
    if budget.depth != CANDIDATE_DEPTH:
        # a SAFE verdict must not claim a depth the template does not reach
        raise ValueError(f"the candidate template has {CANDIDATE_DEPTH} "
                         f"actions; budget depth {budget.depth} is not "
                         "enumerated")
    lay = image.layout
    anchor = image.anchor_addr
    words = (
        crafted, (crafted + 8) & MASK64, (crafted - 8) & MASK64,
        anchor, (anchor + 8) & MASK64,
        image.stack_base, lay.stack_limit, lay.pubbuf_base,
        image.gadgets["pivot"], image.gadgets["pop_rdi"],
        SCRUB_VALUES[RSP], 0,
    )
    root = _prefix_snapshot(image, sgx_version, grant)
    checkpoint = SafetyMonitor(image, sp_mode)
    checkpoint.feed(root.trace)
    return SearchSpace(image, root, checkpoint,
                       (CMD_ORET, CMD_INVALID, CMD_EXCEPTION), words,
                       PAYLOAD_REGS, classes,
                       tuple(v for v in classes if v != VEC_PAGE_FAULT),
                       budget, budget.max_steps - root.cycle, {})


def _monitored(checkpoint: SafetyMonitor, trace: list) -> SafetyMonitor:
    """Resume a checkpoint over the events a run appended to the trace it
    read: the search's prefix checkpoint, or a minimization's checkpoint
    at an action point."""
    monitor = checkpoint.clone()
    monitor.feed(trace[checkpoint.position:])
    return monitor


class CoveredGroup(NamedTuple):
    """Plan shapes of one binding that are counted, not run, in plan
    order: each has a clean representative under the branch's first
    payload binding.  `steps` is the sum of their representatives' steps
    and `boundaries` the number of injected ones."""

    shapes: tuple
    steps: int
    boundaries: int


def _group(shapes: list, steps: int) -> CoveredGroup:
    """The group of `shapes`, whose representatives step `steps`; only a
    dry run (None, always first) injects at no boundary."""
    dry = bool(shapes) and shapes[0] is None
    return CoveredGroup(tuple(shapes), steps, len(shapes) - dry)


class _Schedule(NamedTuple):
    """What a binding runs and counts.  `runs` lists, in plan order, each
    injected shape without a clean representative, whether its run takes
    its point's machine, and the group of covered shapes before it in the
    binding; `covered` is the binding's whole group."""

    runs: tuple
    covered: CoveredGroup


def _schedule(clean: dict, n_boundaries: int, at_entry: tuple,
              inside: tuple) -> _Schedule:
    """The schedule of a binding that injects the classes `at_entry` at
    boundary 0 and `inside` at boundaries 1..`n_boundaries`, where `clean`
    maps shapes to their clean representatives.  A covered dry run leads
    the covered shapes; an uncovered one runs before the schedule, since
    its boundaries decide which schedule applies.  The last class run at a
    boundary takes the point its binding's dry run kept there; earlier
    ones resume from a copy."""
    shapes: list = [None] if None in clean else []
    steps = clean[None][1] if shapes else 0
    runs = []
    for k in range(n_boundaries + 1):
        vecs = at_entry if k == 0 else inside
        for n, vec in enumerate(vecs):
            rep = clean.get((vec, k))
            if rep is None:
                take = all((v, k) in clean for v in vecs[n + 1:])
                runs.append(((vec, k), take, _group(shapes, steps)))
            else:
                shapes.append((vec, k))
                steps += rep[1]
    return _Schedule(tuple(runs), _group(shapes, steps))


def _count_covered(space: SearchSpace, cmd: int, rsp: int, payloads: tuple,
                   group: CoveredGroup, clean: dict,
                   stats: SearchStats) -> None:
    """Add the runs, steps and injected boundaries of the plans of `group`
    under each binding (`cmd`, `rsp`, payload) of `payloads` (the
    arguments of `space.entry`) to `stats`, without building or running
    them.  No payload value reached a sink in any of their
    representatives, the same shapes of the branch's first binding
    (`clean[shape]`: status, steps, boundaries), so each plan would repeat
    its representative's run.  The search calls this once per payload
    binding that runs a plan, and once for all the bindings after the
    last one that does; a representative's first binding has an empty
    group.  The `covered` oracle of scripts/agreement.py wraps it to build
    and run every plan of the group under each binding next to its
    representative and compare."""
    n = len(payloads)
    stats.runs += n * len(group.shapes)
    stats.steps += n * group.steps
    stats.boundaries += n * group.boundaries


def _rsp_class(space: SearchSpace, cmd: int,
               word: int) -> tuple[RspClass, bool]:
    """The rsp class of the branch (`cmd`, `word`), decided from the
    command and the staged rsp word alone, before any plan or entry of the
    branch is built: the first class of the command, in the order found,
    that admits the word, which then counts the branch's first binding
    (True).  A word no class admits starts a class of its own, whose
    representative the branch's first binding is (False).  A class admits
    a word its representative's path admits (``interp.RspPath.admits``).
    Search plans never change a page's permissions, so the root's pages
    are those of every run, and never seed memory, so only instructions
    write it.  The `classes` oracle of scripts/agreement.py wraps this to
    run every first-binding plan of a counted branch next to its
    representative's and compare."""
    found = space.rsp_classes.setdefault(cmd, [])
    for cls in found:
        if cls.path.admits(word, space.root.mem, space.checkpoint.stack_ok):
            return cls, True
    cls = RspClass(word)
    found.append(cls)
    return cls, False


def _kept_boundaries(space: SearchSpace) -> int:
    """The last boundary at which a dry run keeps a window point: its
    binding's plans inject at boundaries up to `boundary_cap`, or, when a
    page fault is the only class (no ``SearchSpace.inside``), at boundary
    0 alone."""
    return space.budget.boundary_cap if space.inside else 0


def _path_unread(space: SearchSpace, spent: int, n_boundaries: int) -> bool:
    """Whether no branch reads the rsp path of the class whose
    representative's dry run just ran clean over `n_boundaries` injectable
    boundaries, after the command's earlier branches covered `spent` runs.
    A clean dry run is covered in every later binding, so every binding of
    the branch has its shapes: the dry run, each class at boundary 0 and
    each of `inside` at the boundaries after it, and the branch covers
    that many runs per payload word unless it finds a counterexample.
    When those reach the run budget, the search stops after this branch
    (``exhaustive_attacker``, and ``_branches`` in a worker), so no later
    ``_rsp_class`` reads the class."""
    shapes = 1 + len(space.classes) + len(space.inside) * n_boundaries
    return spent + len(space.words) * shapes >= space.budget.max_runs


def _attempt(space: SearchSpace, entry: tuple[PrepareRegs, Eenter],
             inject: Optional[tuple[int, int]], points: list, take: bool,
             cls: Optional[RspClass],
             stats: SearchStats) -> tuple[list, RunResult]:
    """Run one candidate plan: the binding's staged registers and re-entry
    `entry`, injecting `inject` (None: the dry run).  A dry run keeps its
    window points up to `_kept_boundaries`; a plan injecting at boundary k
    resumes from `points[k]` when its binding's dry run kept one, taking
    the point's machine with `take`, else from a copy.  Given the rsp
    class `cls`, the plan is of the first binding of the class's
    representative: it runs with labelled payload registers and rsp,
    records its path conditions into the class's path while it has one
    (a resumed plan through its point's machine) and its row into the
    class's `shapes`, and into its `clean` when no payload value
    influenced it.  Returns the actions and the RunResult."""
    actions = _candidate_actions(entry, inject)
    payload, path = (), None
    if cls is not None:
        payload = space.payload_regs + ("rsp",)
        path = cls.path
    if inject is not None and inject[1] < len(points):
        point = points[inject[1]]
        if not take:
            point = point.copy()
        res = run_plan(point, space.image, actions, max_steps=space.max_steps,
                       payload=payload, inject=actions[1])  # the InjectAex
        resumed_at = point.steps
    else:
        machine = space.root.clone()
        if path is not None:
            machine.path = path.fork()
        res = run_plan(machine, space.image, actions,
                       max_steps=space.max_steps, payload=payload,
                       keep=_kept_boundaries(space) if inject is None else -1)
        resumed_at = 0
    stats.runs += 1
    stats.executed += 1
    stats.steps += res.steps
    stats.stepped += res.steps - resumed_at
    stats.cut += res.status == BUDGET_EXCEEDED
    if cls is not None:
        row = cls.shapes[inject] = (res.status, res.steps, res.boundaries)
        # clean: no payload register's plane, only rsp's, reached a sink
        if not res.machine.influenced & ~ORIGINS[RSP]:
            cls.clean[inject] = row
    return actions, res


def _search_branch(space: SearchSpace, cmd_i: int, rsp_i: int,
                   stats: SearchStats, spent: int) -> Optional[Counterexample]:
    """Enumerate the plans of one (command, rsp) branch, payload binding by
    payload binding, once its rsp class is decided (`_rsp_class`).  The
    first binding of a class's representative runs every plan shape; its
    plans are the representatives.  A later binding's plan whose
    representative ran clean would repeat that run exactly, so it is
    counted, not run.  Every binding runs its dry run unless that is
    covered, then the shapes its schedule lists, and counts the rest as
    one group.  A later binding whose dry run is covered shares its
    schedule with every binding after it, so once that schedule lists
    nothing to run, one count adds all the remaining bindings and the
    branch ends; only a binding that runs a plan builds its `entry`.  A
    covered plan can only violate where its representative, searched
    first, already did; at a counterexample the stats count the covered
    plans before it and none after it, as a plan-by-plan walk would.  An
    executed injected plan resumes from its binding's dry run, at the
    boundary where it injects, instead of re-running the steps before it.

    The first binding of a branch whose rsp word an earlier branch's rsp
    class admits is not run either: every plan of it would take its
    representative's decisions, so it is counted with its
    representative's rows, and the class's clean shapes cover the later
    bindings.  The representative violated nothing, so neither does the
    counted binding.

    A representative whose dry run is clean stops recording its path
    there when `_path_unread` finds, from the runs `spent` by the
    command's earlier branches, that the search ends with this branch."""
    cmd = space.commands[cmd_i]
    rsp_bind = space.words[rsp_i]
    cap = space.budget.boundary_cap
    # the classes injected at boundary 0 and at a later one
    at_entry = space.classes
    inside = space.inside

    def found(pay_i: int, inject: Optional[tuple[int, int]], actions: list,
              res: RunResult) -> Optional[Counterexample]:
        monitor = _monitored(space.checkpoint, res.trace)
        if not monitor.violated:
            return None
        vec, k = inject if inject is not None else (-1, -1)
        return Counterexample((cmd_i, rsp_i, pay_i, k, vec),
                              AttackPlan("exhaustive", actions), res.trace,
                              monitor.verdicts(), stats)

    cls, counted = _rsp_class(space, cmd, rsp_bind)
    stats.branches += 1
    stats.classed += counted
    if counted:
        runs, steps, boundaries = cls.totals
        stats.runs += runs
        stats.steps += steps
        stats.boundaries += boundaries
    clean = cls.clean       # plan shape -> clean representative
    words = space.words

    for pay_i in range(counted, len(words)):
        # the representative's first binding runs every shape, labelled
        rep = cls if pay_i == 0 else None
        entry = None
        points = ()
        if None in clean:
            n_boundaries = min(clean[None][2], cap)
        else:
            entry = space.entry(cmd, rsp_bind, words[pay_i])
            actions, res = _attempt(space, entry, None, (), True, rep, stats)
            ce = found(pay_i, None, actions, res)
            if ce is not None:
                return ce
            points = res.points
            n_boundaries = min(res.boundaries, cap)
            if (rep is not None and None in clean
                    and _path_unread(space, spent, n_boundaries)):
                rep.path = None
                for point in points:
                    point.machine.path = None
        if rep is not None:     # its class's clean shapes are not known yet
            schedule = _schedule({}, n_boundaries, at_entry, inside)
        else:
            schedule = cls.schedules.get(n_boundaries)
            if schedule is None:
                schedule = cls.schedules[n_boundaries] = _schedule(
                    clean, n_boundaries, at_entry, inside)
            if entry is None and not schedule.runs:
                # every later binding has this covered dry run and schedule
                _count_covered(space, cmd, rsp_bind, words[pay_i:],
                               schedule.covered, clean, stats)
                return None
        if entry is None:
            entry = space.entry(cmd, rsp_bind, words[pay_i])
        for inject, take, before in schedule.runs:
            actions, res = _attempt(space, entry, inject, points, take, rep,
                                    stats)
            stats.boundaries += 1
            ce = found(pay_i, inject, actions, res)
            if ce is not None:
                _count_covered(space, cmd, rsp_bind,
                               words[pay_i:pay_i + 1], before, clean, stats)
                return ce
        _count_covered(space, cmd, rsp_bind, words[pay_i:pay_i + 1],
                       schedule.covered, clean, stats)
        if rep is not None:
            rows = rep.shapes.values()
            # every shape but the dry run injects
            rep.totals = (len(rows), sum(row[1] for row in rows),
                          len(rows) - 1)
    return None


def _branches(space: SearchSpace, cmd_i: int):
    """The (stats, counterexample or None) of each branch of one command,
    in order, up to its first counterexample, or up to the branch whose
    runs bring the command's to the run budget, after which the search
    stops.  The branches of a command share its rsp classes, so one
    process searches them all."""
    spent = 0
    for rsp_i in range(len(space.words)):
        stats = SearchStats()
        ce = _search_branch(space, cmd_i, rsp_i, stats, spent)
        yield stats, ce
        spent += stats.runs
        if ce is not None or spent >= space.budget.max_runs:
            return


# the space being searched by a pool: set in the parent, which forked pool
# workers inherit
_space: Optional[SearchSpace] = None


def _worker_command(cmd_i: int) -> list:
    return list(_branches(_space, cmd_i))


def exhaustive_attacker(image: EnclaveImage, sgx_version: int = SGX2,
                        classes: tuple[int, ...] = (VEC_PAGE_FAULT,
                                                    VEC_EXT_INT),
                        budget: Optional[SearchBudget] = None,
                        grant: Optional[tuple[int, int]] = DEFAULT_IRQ_GRANT,
                        workers: int = 1, sp_mode: str = "range"):
    """Depth-first enumeration of the `search_space` of these arguments.
    Returns the first (lowest-lexicographic-branch) Counterexample, or
    NoneFound with visited statistics only when the full bounded space was
    enumerated and the step budget cut none of the plans run; else
    BudgetExceeded.  A plan counted, not run, repeats the run of a
    representative that was run, so the plans run decide it."""
    global _space
    space = search_space(image, sgx_version, classes, budget, grant, sp_mode)
    commands = range(len(space.commands))

    # The run budget is enforced between branches (each branch is small and
    # always completes) and branches are consumed in order, so stats and
    # outcomes are identical regardless of worker count: workers only
    # compute the branches of whole commands.
    total = SearchStats()
    outcome = NoneFound(total)
    pool = None
    try:
        if workers <= 1:
            results = (r for c in commands for r in _branches(space, c))
        else:
            import multiprocessing      # only a parallel search pays for it
            _space = space
            n = min(workers, len(commands))
            pool = multiprocessing.get_context("fork").Pool(n)
            # One batch of n commands at a time, so that no worker is busy
            # when the search stops early and the pool can be closed: a
            # worker killed by `terminate` while it sends a result leaves
            # the result queue's lock held, and the pool's shutdown hangs.
            results = (r for i in range(0, len(commands), n)
                       for rs in pool.map(_worker_command, commands[i:i + n])
                       for r in rs)
        for stats, ce in results:
            total.merge(stats)
            if ce is not None:
                outcome = ce._replace(stats=total)
                break
            if total.runs >= space.budget.max_runs:
                outcome = BudgetExceeded(total, "run budget exhausted")
                break
        else:
            if total.cut:
                outcome = BudgetExceeded(
                    total, f"max_steps cut {total.cut} plans")
        if pool is not None:
            pool.close()
            pool.join()
    finally:
        if pool is not None:
            pool.terminate()        # does work only when the search raised
        _space = None
    return outcome


# ---------------------------------------------------------------------------
# Randomized-stack (ASLR) experiments
# ---------------------------------------------------------------------------

def exact_single_shot_rate(window: int = INFO_FREE_WINDOW,
                           span: int = ASLR_RANGE) -> float:
    """Enumerate every offset: the controlled window covers exactly
    `window` of the `span` possible placements."""
    hits = sum(1 for off in range(1, span + 1) if off <= window)
    return hits / span


def estimate_single_shot_rate(trials: int, seed: int,
                              window: int = INFO_FREE_WINDOW,
                              span: int = ASLR_RANGE) -> float:
    """Monte Carlo over fresh offsets, deterministic for a given seed."""
    import random
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        if rng.randint(1, span) <= window:
            hits += 1
    return hits / trials


class MultiRoundResult(NamedTuple):
    rounds_needed: int
    exhausted: bool
    plan: Optional[AttackPlan]


def multi_round_aslr(image: EnclaveImage,
                     max_rounds: int = 32) -> MultiRoundResult:
    """The plan that iterates the corruption steps with invalid ecall
    commands so the enclave exits before using the planted values,
    sweeping one 64-byte window per round across the randomization range;
    the final round enters with the real ocall-return command.

    The attacker only knows the nominal layout; the image carries the true
    randomized base, from which `rounds_needed` is worked out.  The sweep
    covers the true anchor unless it needs more than `max_rounds` rounds
    (`exhausted`, and no plan).  Whether the plan corrupts the anchor is
    for a run of it to show."""
    lay = image.layout
    nominal_anchor = lay.stack_base - ECALL0_FRAME - 8
    shift = lay.stack_base - image.stack_base       # ground truth, quantized
    needed = shift // INFO_FREE_WINDOW + 1
    if needed > max_rounds:
        return MultiRoundResult(needed, True, None)

    # The attacker cannot observe which round hit, so every round in the
    # budget runs; the sweep moves downward so rounds before the hit write
    # only caller-stack junk above the true anchor.
    marker = image.gadgets["pivot"]
    rounds = []
    for r in range(1, max_rounds + 1):
        band_base = nominal_anchor - INFO_FREE_WINDOW * (r - 1) - 56
        crafted = band_base + INFO_SIZE + 8
        regs = {"rsp": crafted, "rsi": 0}
        for reg in INFO_FIELDS[:8]:          # the freely-valued window
            regs[reg] = marker
        rounds += [
            PrepareRegs.of(**regs),
            InjectAex(VEC_PAGE_FAULT, 0),
            Eenter.of(CMD_INVALID),
            Eenter.of(CMD_EXCEPTION, regs=dict(BENIGN_REGS)),
            Eresume(),
        ]
    rounds += [Eenter.of(CMD_ORET,
                         regs={"rsp": 0, "rsi": BENIGN_OCALL_RESULT})]
    plan = AttackPlan(name=f"multi_round/{image.variant}", actions=rounds,
                      bindings={"shift": shift, "rounds": needed,
                                "marker": marker})
    return MultiRoundResult(needed, False, plan)
