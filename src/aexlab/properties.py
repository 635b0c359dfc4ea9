"""Safety and functionality detectors evaluated over traces.

The four safety properties are checked by one fused online monitor,
`SafetyMonitor`; `evaluate` feeds a fresh one a whole stored trace, and
adds `check_functionality` when asked for it, so every verdict is a pure
function of (trace, image).
A Violated verdict carries the global index of the witnessing event so the
trace prefix up to it replays the issue.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .machine import (
    CTRL_CALL, CTRL_RET, E_ADV_SEED, E_CTRL, E_EXIT, E_HW_AEX, E_HW_DENIED,
    E_HW_EENTER, E_HW_ERESUME, E_LEAK, E_MEMCPY, E_MEMR, E_RETIRE,
    E_SP_ASSIGN, E_STORE, DENY_NO_FREE_SLOT, MASK64,
)
from .runtimes import (
    CMD_ECALL_FAULTING, CMD_EXCEPTION, CMD_ORET, ECALL0_RESULT_DELTA,
    ECALL1_RESULT, EnclaveImage, ST_EXC_IGNORED, ST_UNHANDLED, TD_EXC_FLAG,
)

VIOLATED = "violated"
NO_VIOLATION = "no_violation_found"
FUNCTIONALITY_BROKEN = "functionality_broken"
DESIGN_LIMITATION = "design_limitation"

SAFETY_PROPERTIES = ("sp_confinement", "anchor_integrity", "cfi",
                     "confidentiality")
ALL_PROPERTIES = SAFETY_PROPERTIES + ("functionality",)


class Verdict(NamedTuple):
    property_id: str
    outcome: str
    witness_index: int = -1
    detail: str = ""
    stats: Optional[dict] = None

    @property
    def violated(self) -> bool:
        return self.outcome == VIOLATED

    def to_dict(self) -> dict:
        d = {"property": self.property_id, "outcome": self.outcome}
        if self.witness_index >= 0:
            d["witness_index"] = self.witness_index
        if self.detail:
            d["detail"] = self.detail
        if self.stats:
            d["stats"] = dict(sorted(self.stats.items()))
        return d


class SafetyMonitor:
    """The four safety properties as one online monitor (a runtime-
    verification monitor in the sense of Havelund & Rosu, "Synthesizing
    Monitors for Safety Properties", TACAS 2002).

    `feed` makes one pass over the events, dispatching on the event kind
    first, and keeps the first witness of each property.  Witness indices
    are global trace indices: a monitor fed a prefix and then the rest of a
    trace reaches the same verdicts as one fed the whole trace.  The only
    carried state is the anchor save-stack and the witnesses found so far,
    so `clone` is cheap and a monitor can be checkpointed together with the
    machine snapshot it has seen.

    sp_confinement: stack accesses outside the declared sanitization
    windows must go through a stack pointer inside a trusted stack range.
    In "strict" mode any stack-pointer assignment outside the windows is
    also flagged (that is the pivot itself, even when the new value lands
    in range).

    anchor_integrity: the word popped by the ocall-return `ret` must equal
    the return address recorded when the matching ocall saved its context.

    cfi: return targets must stay inside the legitimate target set.  The
    declared context-restore site transfers to whatever address the
    interrupted context held, so it is checked only against the code
    region.

    confidentiality: any leak event, or any synchronous exit that leaves a
    secret-tainted register visible to the OS, is a violation.
    """

    __slots__ = ("image", "sp_mode", "position", "saves", "witnesses")

    def __init__(self, image: EnclaveImage, sp_mode: str = "range"):
        self.image = image
        self.sp_mode = sp_mode
        self.position = 0                 # global index of the next event
        self.saves: list[int] = []        # anchor save-stack
        self.witnesses: dict[str, tuple[int, str]] = {}

    def clone(self) -> "SafetyMonitor":
        m = SafetyMonitor.__new__(SafetyMonitor)
        m.image = self.image
        m.sp_mode = self.sp_mode
        m.position = self.position
        m.saves = list(self.saves)
        m.witnesses = dict(self.witnesses)
        return m

    @property
    def violated(self) -> bool:
        return bool(self.witnesses)

    def feed(self, events: list[tuple]) -> None:
        """Consume the trace events that follow the ones already seen."""
        img = self.image
        windows = img.sp_window_pcs
        trusted = img.trusted_stack_ranges
        strict = self.sp_mode == "strict"
        code_lo = img.program.base
        code_hi = img.program.end
        saves = self.saves
        found = self.witnesses
        for i, ev in enumerate(events, self.position):
            kind = ev[0]
            if kind == E_RETIRE:
                continue
            if kind == E_CTRL:
                pc, target, ctrl = ev[1], ev[2], ev[3]
                if ctrl == CTRL_RET:
                    if pc in img.restore_ret_pcs:
                        if not code_lo <= target < code_hi:
                            found.setdefault(
                                "cfi", (i, f"context restore to {target:#x}"))
                    elif target not in img.legit_ret_targets:
                        found.setdefault(
                            "cfi", (i, f"ret at {pc:#x} to {target:#x}"))
                    if pc == img.oret_ret_pc:
                        if not saves:
                            found.setdefault("anchor_integrity", (
                                i, "ocall return with no recorded save"))
                        else:
                            expected = saves.pop()
                            if target != expected:
                                found.setdefault("anchor_integrity", (
                                    i, f"anchor popped {target:#x}, "
                                       f"recorded {expected:#x}"))
                elif ctrl == CTRL_CALL:
                    if pc in img.ocall_call_sites:
                        saves.append(pc + 1)
                sp = ev[4]
            elif kind == E_MEMR:
                if not ev[3]:
                    continue
                pc, sp = ev[1], ev[2]
            elif kind == E_STORE:
                if not ev[4]:
                    continue
                pc, sp = ev[1], ev[2]
            elif kind == E_SP_ASSIGN:
                if strict and ev[1] not in windows:
                    found.setdefault("sp_confinement", (
                        i, f"sp assigned {ev[2]:#x} at {ev[1]:#x}"))
                continue
            elif kind == E_LEAK:
                found.setdefault("confidentiality",
                                 (i, f"{ev[4]} bytes to {ev[3]:#x}"))
                continue
            elif kind == E_EXIT:
                if ev[3]:
                    found.setdefault("confidentiality", (
                        i, f"tainted registers {ev[3]:#x} at exit"))
                continue
            else:
                continue
            # a stack access: call, ret, or a flagged load or store, tested
            # as `stack_ok` tests it, inline since every one is tested
            if pc in windows:
                continue
            for lo, hi in trusted:
                if lo <= sp <= hi:
                    break
            else:
                found.setdefault("sp_confinement",
                                 (i, f"stack access via {sp:#x} at {pc:#x}"))
        self.position += len(events)

    def stack_ok(self, pc: int, sp: int) -> bool:
        """Whether a stack access at `pc` through stack pointer `sp`
        keeps sp confinement, the test `feed` makes of each: it is inside
        a declared window, or goes through a trusted stack."""
        if pc in self.image.sp_window_pcs:
            return True
        for lo, hi in self.image.trusted_stack_ranges:
            if lo <= sp <= hi:
                return True
        return False

    def verdict(self, prop: str) -> Verdict:
        hit = self.witnesses.get(prop)
        if hit is None:
            return Verdict(prop, NO_VIOLATION)
        return Verdict(prop, VIOLATED, hit[0], hit[1])

    def verdicts(self) -> list[Verdict]:
        return [self.verdict(p) for p in SAFETY_PROPERTIES]


def check_functionality(trace: list[tuple], image: EnclaveImage,
                        cooperative: bool = True) -> Verdict:
    """Under a cooperative host: every delivered benign exception is
    handled exactly once per delivery, and the ocall returns the expected
    value.  Variants that decline rather than corrupt report a design
    limitation, not a break."""
    if not cooperative:
        return Verdict("functionality", NO_VIOLATION, detail="adversarial run")
    td_flag_addr = image.layout.td_base + TD_EXC_FLAG  # exception counter
    handler_runs = 0
    aex_count = 0
    denied_delivery = False
    pending_exception_entry = False
    unhandled_exit = False
    ignored_exit = False
    oret_expected: Optional[int] = None
    last_done_rax: Optional[int] = None
    ecall1_seen = False
    for ev in trace:
        kind = ev[0]
        if kind == E_STORE and ev[2] == td_flag_addr:
            handler_runs += 1
        elif kind == E_HW_AEX:
            aex_count += 1
        elif kind == E_HW_EENTER:
            cmd = ev[2]
            if cmd == CMD_EXCEPTION:
                pending_exception_entry = True
            elif cmd == CMD_ORET:
                oret_expected = (ev[3] + ECALL0_RESULT_DELTA) & MASK64
            elif cmd == CMD_ECALL_FAULTING:
                ecall1_seen = True
        elif kind == E_HW_DENIED and ev[2] == DENY_NO_FREE_SLOT:
            denied_delivery = True
        elif kind == E_EXIT:
            if ev[4] == ST_UNHANDLED:
                unhandled_exit = True
            elif ev[4] == ST_EXC_IGNORED:
                ignored_exit = True
            if ev[2] == image.layout.host_done:
                last_done_rax = ev[4]

    if denied_delivery:
        return Verdict("functionality", DESIGN_LIMITATION,
                       detail="entry_denied")
    if unhandled_exit:
        return Verdict("functionality", DESIGN_LIMITATION, detail="no_nesting")
    if ignored_exit and handler_runs == 0:
        return Verdict("functionality", FUNCTIONALITY_BROKEN,
                       detail="lost_exception")
    if aex_count and pending_exception_entry and handler_runs == 0:
        return Verdict("functionality", FUNCTIONALITY_BROKEN,
                       detail="lost_exception")
    if oret_expected is not None and last_done_rax != oret_expected:
        return Verdict("functionality", FUNCTIONALITY_BROKEN,
                       detail=f"ocall result {last_done_rax!r}, "
                              f"expected {oret_expected:#x}")
    if ecall1_seen and oret_expected is None and last_done_rax != ECALL1_RESULT:
        return Verdict("functionality", FUNCTIONALITY_BROKEN,
                       detail="faulting ecall did not complete")
    return Verdict("functionality", NO_VIOLATION,
                   stats={"handler_runs": handler_runs})


def evaluate(trace: list[tuple], image: EnclaveImage,
             properties: tuple[str, ...],
             sp_mode: str = "range", cooperative: bool = True) -> list[Verdict]:
    """Verdicts for `properties`, in order, over a stored trace: one fused
    safety-monitor pass, plus the functionality check when asked for."""
    monitor = None
    out = []
    for prop in properties:
        if prop == "functionality":
            out.append(check_functionality(trace, image, cooperative))
            continue
        if prop not in SAFETY_PROPERTIES:
            raise KeyError(prop)
        if monitor is None:
            monitor = SafetyMonitor(image, sp_mode)
            monitor.feed(trace)
        out.append(monitor.verdict(prop))
    return out


def any_violation(verdicts: list[Verdict]) -> Optional[Verdict]:
    for v in verdicts:
        if v.violated:
            return v
    return None


# ---------------------------------------------------------------------------
# Milestones
# ---------------------------------------------------------------------------

MILESTONES = ("anchor_written", "pivoted", "leaked")


def milestones(trace: list[tuple], image: EnclaveImage) -> tuple[str, ...]:
    """Attack progress markers derived from the trace alone: a later write
    to the recorded anchor slot, a stack-pointer assignment outside the
    sanitization windows, and a leak event."""
    anchor_addr = None
    reached = []
    for ev in trace:
        kind = ev[0]
        if kind == E_CTRL and ev[3] == CTRL_CALL and ev[1] in image.ocall_call_sites:
            anchor_addr = ev[4]
        elif (kind == E_STORE and anchor_addr is not None
                and ev[2] == anchor_addr and "anchor_written" not in reached):
            reached.append("anchor_written")
        elif (kind == E_SP_ASSIGN and "pivoted" not in reached
                and ev[1] not in image.sp_window_pcs):
            reached.append("pivoted")
        elif kind == E_LEAK and "leaked" not in reached:
            reached.append("leaked")
    return tuple(reached)


# ---------------------------------------------------------------------------
# Shadow taint oracle
# ---------------------------------------------------------------------------

class ShadowUnsupported(Exception):
    """The trace uses a construct the shadow derivation does not model."""


def shadow_taint_leaks(trace: list[tuple], image: EnclaveImage):
    """Brute-force re-derivation of information flow from the full trace.

    Walks the recorded events with an independent taint state (a set of
    secret registers, a set of secret cells, saved-frame taint sets) using
    only the program text and the addresses recorded in the trace.  Returns
    (leaks, exit_masks): the leak runs and per-exit visible taint masks the
    trace *should* contain if the interpreter's taint logic is sound.
    """
    from .isa import (
        OP_CALL, OP_DECLASSIFY, OP_EEXIT_I, OP_EMULATE_CRITICAL,
        OP_LOAD, OP_MEMCPY, OP_MOV_RI, OP_MOV_RR, OP_POP, OP_PUSH,
        OP_READ_SSA, OP_SCRUB, OP_STORE, OP_WRITE_SSA,
    )
    from .machine import NREGS, RIP

    code = image.program.code
    secret_cells = set()
    lay = image.layout
    for i in range(lay.secret_len // 8):
        secret_cells.add(lay.secret_base + 8 * i)
    public = lambda addr: any(
        base <= addr < base + 0x1000
        for base in (lay.host_base, lay.pubbuf_base))

    reg_secret: set[int] = set()
    frames: list[set[int]] = [set() for _ in range(8)]
    cssa = 0
    leaks: list[tuple[int, int, int]] = []
    exit_masks: list[int] = []

    def write_cell(addr: int, sec: bool, src_hint: int = 0) -> None:
        if sec:
            secret_cells.add(addr)
            if public(addr):
                leaks.append((src_hint, addr, 8))
        else:
            secret_cells.discard(addr)

    for ev in trace:
        kind, pc = ev[0], ev[1]
        if kind == E_HW_EENTER:
            reg_secret = set()
            continue
        if kind == E_HW_AEX:
            frames[cssa] = set(reg_secret)
            cssa += 1
            reg_secret = set()
            continue
        if kind == E_HW_ERESUME:
            cssa -= 1
            reg_secret = set(frames[cssa])
            continue
        if kind == E_ADV_SEED:
            for i in range(ev[3]):
                secret_cells.discard(ev[2] + 8 * i)
            continue
        if kind not in (E_RETIRE, E_MEMR, E_STORE, E_SP_ASSIGN, E_CTRL,
                        E_EXIT, E_MEMCPY):
            continue
        ins = code.get(pc)
        if ins is None:
            continue
        op, a, b, c = ins
        if op == OP_MOV_RR:
            if b in reg_secret:
                reg_secret.add(a)
            else:
                reg_secret.discard(a)
        elif op == OP_MOV_RI or op == OP_DECLASSIFY:
            reg_secret.discard(a)
        elif op == OP_LOAD:
            if kind == E_MEMR:
                if ev[2] in secret_cells:
                    reg_secret.add(a)
                else:
                    reg_secret.discard(a)
            else:  # load straight into the stack pointer
                reg_secret.discard(a)
        elif op == OP_POP:
            if kind == E_MEMR and ev[2] in secret_cells:
                reg_secret.add(a)
            else:
                reg_secret.discard(a)
        elif op == OP_STORE:
            write_cell(ev[2], c in reg_secret)
        elif op == OP_PUSH:
            write_cell(ev[2], a in reg_secret)
        elif op == OP_CALL:
            write_cell(ev[4], False)
        elif op == OP_SCRUB:
            for r in range(NREGS):
                if a & (1 << r):
                    reg_secret.discard(r)
        elif op == OP_READ_SSA:
            if b < NREGS and b in frames[cssa - 1]:
                reg_secret.add(a)
            else:
                reg_secret.discard(a)
        elif op == OP_WRITE_SSA:
            if b in reg_secret:
                frames[cssa - 1].add(a)
            else:
                frames[cssa - 1].discard(a)
        elif op == OP_MEMCPY:
            if kind == E_MEMCPY:
                dst, src, nbytes = ev[2], ev[3], ev[4]
                run_len = 0
                run_src = run_dst = 0
                for i in range(nbytes // 8):
                    sec = (src + 8 * i) in secret_cells
                    if sec:
                        secret_cells.add(dst + 8 * i)
                    else:
                        secret_cells.discard(dst + 8 * i)
                    if sec and public(dst + 8 * i):
                        if run_len == 0:
                            run_src, run_dst = src + 8 * i, dst + 8 * i
                        run_len += 1
                    elif run_len:
                        leaks.append((run_src, run_dst, run_len * 8))
                        run_len = 0
                if run_len:
                    leaks.append((run_src, run_dst, run_len * 8))
        elif op == OP_EEXIT_I:
            mask = 0
            for r in reg_secret:
                if r != RIP:
                    mask |= 1 << r
            exit_masks.append(mask)
        elif op == OP_EMULATE_CRITICAL:
            raise ShadowUnsupported("critical-span completion")
    return leaks, exit_masks


def shadow_agrees(trace: list[tuple], image: EnclaveImage) -> bool:
    """Compare the interpreter's leak/exit-taint events against the shadow
    derivation; True when both derivations agree exactly."""
    derived_leaks, derived_masks = shadow_taint_leaks(trace, image)
    primary_leaks = [(ev[2], ev[3], ev[4]) for ev in trace if ev[0] == E_LEAK]
    primary_masks = [ev[3] for ev in trace if ev[0] == E_EXIT]
    return primary_leaks == derived_leaks and primary_masks == derived_masks
