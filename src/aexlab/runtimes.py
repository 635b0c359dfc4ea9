"""Runtime variants compiled to abstract-ISA enclave images.

Each variant is an assembly program (entry dispatcher, ocall save/return
flow, exception flow, gadget inventory) whose instruction *ordering*
differences are the point: where the stack pointer is derived from the
saved frame, which checks run before the context copy, and how critical
sections are protected.  Those choices are one row per variant of the
design table, `DESIGNS`; programs are generated from the row, rendered to
reviewable text and assembled against a concrete memory layout.
"""

from __future__ import annotations

import functools
import os
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from . import isa
from .machine import (
    DEFAULT_IRQ_GRANT, HW_IRQ_QUOTA, HW_NONE, HW_REENTRY_MASK, MASK64, PERM_R,
    PERM_W, PERM_X, PRIVATE, PUBLIC, RFLAGS_AC, RFLAGS_DF, SGX2, HwExt,
    Machine, Memory, Page, TCS, VEC_EXT_INT, VEC_PAGE_FAULT,
)

# Ecall command encoding (a designated register, rdi, carries the command).
CMD_ORET = (-2) & MASK64
CMD_EXCEPTION = (-3) & MASK64
CMD_ECALL_COMPUTE = 0     # compute + one ocall
CMD_ECALL_FAULTING = 1    # compute across a deliberate synchronous fault
CMD_INVALID = 7

# Exit payloads (rax at the synchronous exit).
ERR_INVALID_CMD = 0xE001
ERR_BAD_SP = 0xE002
ERR_UNEXPECTED = 0xE003
ERR_NOT_VALID = 0xE004
ST_UNHANDLED = 0xE005
ST_EXC_HANDLED = 0xA001
ST_EXC_POSTPONED = 0xA002
ST_EXC_IGNORED = 0xA003
ST_CHAIN_END = 0xDEAD

OCALL_MAGIC = 0x0CA11F1A6

# Saved-context layout on the enclave private stack, built by pushes in the
# ocall stub (ascending from the context base):
#   +0 flag  +8 pre_last_sp  +16 rbx  +24 rbp  +32 r12  +40 r13  +48 r14
#   +56 r15  +64 return-address anchor
CTX_GUARD_WORDS = 30          # oret upper-bound window: base - 30 words

# Exception-information struct written by the handler (word index -> field).
INFO_FIELDS = ("r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
               "rax", "rbx", "rcx", "rdx", "rbp", "rsi", "rdi",
               "vector", "rip", "rsp", "rflags")
INFO_WORDS = len(INFO_FIELDS)          # 19 words
INFO_SIZE = INFO_WORDS * 8             # 152 bytes
INFO_FREE_WINDOW = 64                  # r8..r15: freely attacker-valued bytes
I_VECTOR = INFO_FIELDS.index("vector") * 8
I_RIP = INFO_FIELDS.index("rip") * 8
I_RSP = INFO_FIELDS.index("rsp") * 8
I_RDI = INFO_FIELDS.index("rdi") * 8

ECALL0_FRAME = 384            # body frame depth; keeps the crafted sp in range
ECALL0_RESULT_DELTA = 1       # enclave returns ocall result + 1
ECALL1_RESULT = 77

# Thread-data word offsets.
TD_LAST_SP = 0
TD_STACK_BASE = 8
TD_STACK_LIMIT = 16
TD_FIRST_SSA = 24
TD_EXC_FLAG = 32
TD_CRIT_FLAG = 40
TD_PENDING = 48
TD_DED_BASE = 56

ASLR_RANGE = 2048             # stack base advanced by 1..2048 bytes
MAX_CRITICAL_PAD = 2048       # keeps every padded variant in its 4 KiB code page
ENTRY_ATOMIC_CYCLES = 32      # declared length of the hardware-armed entry window

ALIGN16_MASK = MASK64 & ~0xF
FLAGS_SANITIZE_MASK = MASK64 & ~(RFLAGS_DF | RFLAGS_AC)


def aslr_shift(offset: int) -> int:
    """Word-quantized stack displacement for a byte offset in [0, 2048]:
    the 2048 draw values map onto 256 word-aligned placements, so a 64-byte
    window covers exactly 64 of the 2048 draws."""
    return 0 if offset == 0 else (offset - 1) & ~7


class LayoutOverlap(Exception):
    pass


class UnknownVariant(Exception):
    pass


class Layout(NamedTuple):
    """Concrete address-space plan.  Regions must be pairwise disjoint."""

    code_base: int = 0x1000
    stack_limit: int = 0x20000
    stack_base: int = 0x28000          # nominal; the ASLR toggle lowers it
    td_base: int = 0x29000
    ssa_base: int = 0x2A000
    secret_base: int = 0x2B000
    secret_len: int = 128              # the modeled 1024-bit key
    scratch_base: int = 0x2C000
    dedicated_page: int = 0x2D000
    dedicated_stack_base: int = 0x2DF00
    host_base: int = 0x40000
    pubbuf_base: int = 0x41000

    @property
    def aep(self) -> int:
        return self.host_base

    @property
    def host_ocall(self) -> int:
        return self.host_base + 0x10

    @property
    def host_done(self) -> int:
        return self.host_base + 0x20

    @property
    def host_err(self) -> int:
        return self.host_base + 0x30

    @property
    def host_exc(self) -> int:
        return self.host_base + 0x40


class Toggles(NamedTuple):
    """Variant parameterization; never changes the variant's kind.
    `sgx1_valid_check_removed` drops a validity check that runs before the
    context copy; a check after the copy stays."""

    sgx1_valid_check_removed: bool = False
    aslr_stack_offset: int = 0          # bytes in [0, 2048]; quantized to words
    alignment_required: int = 16
    critical_pad: int = 0               # extra cycles inside the oret window
    flag_strategy: Optional[str] = None  # None | "postpone" | "ignore"


# ---------------------------------------------------------------------------
# Design table
# ---------------------------------------------------------------------------

class Design(NamedTuple):
    """Where one runtime variant departs from the others.  The program
    text, the image, the machine and the scripted attacker all read it.

    `exc_flow` names the exception flow's fragments in program order (see
    `_exc_fragments`).  `crit_spans` are the critical spans the exception
    flow completes by emulation.  `hw` is the hardware extension armed at
    every synchronous entry, `nssa` the TCS's SSA slot count, `route` where
    the scripted chain lives by default, and `blocked` why the scripted
    hijack cannot work, or None."""

    exc_flow: tuple[str, ...]
    crit_spans: tuple[str, ...] = ()
    hw: str = HW_NONE
    nssa: int = 2
    route: str = "private"
    blocked: Optional[str] = None

    @property
    def validity_before_copy(self) -> bool:
        """The validity check runs before the context copy, so an event
        reported as invalid never reaches the copy."""
        flow = self.exc_flow
        return ("valid_check" in flow
                and flow.index("valid_check") < flow.index("copy"))


# derive the sp from the saved frame, check its bounds and alignment, then
# check validity, THEN copy
CHECKED_FLOW = ("sp_from_frame", "load_td", "bound_check", "align_check",
                "alloc_struct", "align_down", "valid_check", "copy",
                "handler", "arrange")
# copy first, validity check only afterwards; no sp sanity checks
COPY_FIRST_FLOW = ("sp_from_frame", "load_td", "alloc_struct", "align_down",
                   "copy", "valid_check", "handler", "arrange")
# as COPY_FIRST_FLOW, but skip a 128-byte red zone and align before the
# struct allocation
RED_ZONE_FLOW = ("sp_from_frame", "red_zone_skip", "align_down", "load_td",
                 "alloc_struct", "copy", "valid_check", "handler", "arrange")
# the handler context lives on a dedicated stack; the saved sp is unused
DEDICATED_FLOW = ("dedicated_handler",)

DESIGNS = {
    "sdk_style": Design(CHECKED_FLOW),
    "open_enclave_style": Design(COPY_FIRST_FLOW, route="public"),
    "enarx_style": Design(RED_ZONE_FLOW, route="public"),
    "dedicated_stack": Design(
        DEDICATED_FLOW, nssa=3,
        blocked="handler ignores the saved stack pointer"),
    "nssa_disabled": Design(
        CHECKED_FLOW, nssa=1,
        blocked="no free context slot for handler re-entry"),
    "graphene_emulated": Design(
        CHECKED_FLOW,
        crit_spans=("entry_sanitize", "oret_restore", "handler_setup"),
        blocked="critical-window injections are emulated away"),
    "hw_reentry_mask": Design(
        CHECKED_FLOW, hw=HW_REENTRY_MASK,
        blocked="re-entry masked through the critical section"),
    "hw_irq_quota": Design(
        CHECKED_FLOW, hw=HW_IRQ_QUOTA,
        blocked="injections deferred past the critical section"),
}
VARIANTS = tuple(DESIGNS)


class EnclaveImage(NamedTuple):
    """A runtime variant assembled against a layout, plus the metadata the
    detectors and the adversary need: gadget inventory, legitimate control
    targets, untrusted-sp windows, critical ranges, secret region.  The
    fields from `program` to `crit_ranges` derive from the program alone:
    every image of one program holds the same objects (see `_program`)."""

    variant: str
    layout: Layout
    toggles: Toggles
    stack_base: int                    # effective (ASLR-shifted) base
    program: isa.Program
    gadgets: Mapping[str, int] = MappingProxyType({})     # read-only
    legit_ret_targets: frozenset[int] = frozenset()
    restore_ret_pcs: frozenset[int] = frozenset()
    ocall_call_sites: frozenset[int] = frozenset()
    oret_ret_pc: int = 0
    sp_windows: tuple[tuple[int, int], ...] = ()
    # every pc inside a declared sp window, so a window test is one lookup
    sp_window_pcs: frozenset[int] = frozenset()
    crit_ranges: tuple[tuple[int, int], ...] = ()
    trusted_stack_ranges: tuple[tuple[int, int], ...] = ()
    entry_atomic_cycles: int = ENTRY_ATOMIC_CYCLES

    @property
    def design(self) -> Design:
        return DESIGNS[self.variant]

    @property
    def entry(self) -> int:
        return self.program.labels["entry"]

    @property
    def anchor_addr(self) -> int:
        """Anchor slot for the single benign ocall of the compute ecall."""
        return self.stack_base - ECALL0_FRAME - 8


# ---------------------------------------------------------------------------
# Program text generation
# ---------------------------------------------------------------------------

SCRUB_BUT_RAX = "scrub rbx, rcx, rdx, rdi, rsi, rbp, rsp, r8, r9, r10, r11, r12, r13, r14, r15, rflags"
SCRUB_BUT_RDI = "scrub rax, rbx, rcx, rdx, rsi, rbp, rsp, r8, r9, r10, r11, r12, r13, r14, r15, rflags"


def _eexit(target: str, status: Optional[str] = None) -> list[str]:
    """Leave the enclave at `target` with only rax live, after setting it to
    `status` when given."""
    lines = [] if status is None else [f"    mov rax, ${status}"]
    return lines + ["    " + SCRUB_BUT_RAX, f"    eexit ${target}"]


def _crit(design: Design, edge: str, span: str) -> list[str]:
    """The `.crit` marker of an emulated span; nothing for other designs."""
    return [f"    .crit {edge} {span}"] if span in design.crit_spans else []


def _dispatcher(lines: list[str], design: Design, toggles: Toggles) -> None:
    flagged = toggles.flag_strategy is not None
    lines += ["entry:", "    .window start entry_sanitize"]
    lines += _crit(design, "start", "entry_sanitize")
    if flagged:
        lines.append("    set_flag $td_crit_flag")
    lines += [
        "    cmpj rdi, $cmd_oret, eq, oret_flow",
        "    cmpj rdi, $cmd_exception, eq, exc_flow",
        "    cmpj rdi, $0, eq, ecall0_pro",
        "    cmpj rdi, $1, eq, ecall1_pro",
        "invalid_cmd:",
        "    mov rax, $err_invalid_cmd",
    ]
    if flagged:
        lines.append("    clear_flag $td_crit_flag")
    lines += _eexit("host_err")
    for n in (0, 1):
        lines += [
            f"ecall{n}_pro:",
            "    mov r10, $td_base",
            f"    load r11, [r10+{TD_STACK_BASE}]",
            "    mov rsp, r11",
            "    and rflags, $flags_sanitize_mask",
        ]
        _section_end(lines, design, toggles)
        lines.append(f"    jmp ecall{n}_body")
    lines.append("    .window end entry_sanitize")
    lines += _crit(design, "end", "entry_sanitize")
    if flagged:
        lines += [
            "drain_pending:",
            "    mov r10, $td_base",
            f"    load r11, [r10+{TD_PENDING}]",
            "    cmpj r11, $0, eq, drain_done",
            f"    load r12, [r10+{TD_EXC_FLAG}]",
            "    add r12, $1",
            f"    store [r10+{TD_EXC_FLAG}], r12",
            "    mov r11, $0",
            f"    store [r10+{TD_PENDING}], r11",
            "drain_done:",
            "    ret",
        ]


def _section_end(lines: list[str], design: Design, toggles: Toggles) -> None:
    """Close the critical section an entry opened: end the hardware
    extension's protection, clear the flag and run postponed handlers."""
    if design.hw != HW_NONE:
        lines.append("    end_atomic")
    if toggles.flag_strategy is not None:
        lines += ["    clear_flag $td_crit_flag", "    call drain_pending"]


def _oret_flow(lines: list[str], design: Design, toggles: Toggles) -> None:
    lines += ["oret_flow:", "    .window start oret_sanitize"]
    lines += _crit(design, "start", "oret_restore")
    lines += [
        "    mov r10, $td_base",
        f"    load r11, [r10+{TD_LAST_SP}]",
        "    cmpj r11, $0, eq, oret_fail",
        f"    load r12, [r10+{TD_STACK_BASE}]",
        f"    sub r12, ${CTX_GUARD_WORDS * 8}",
        "    cmpj r11, r12, gt, oret_fail",
        "    load r12, [r11+0]",
        "    cmpj r12, $ocall_magic, ne, oret_fail",
        "    load r12, [r11+8]",
        "    cmpj r12, r11, le, oret_fail",
        f"    load r13, [r10+{TD_STACK_BASE}]",
        "    cmpj r12, r13, gt, oret_fail",
        f"    store [r10+{TD_LAST_SP}], r12",
    ]
    lines += ["    add r13, $0"] * toggles.critical_pad
    lines += [
        "    mov rax, rsi",
        "    mov rsp, r11",
        "    .window end oret_sanitize",
        "    add rsp, $16",
        "    pop rbx",
        "    pop rbp",
        "    pop r12",
        "    pop r13",
        "    pop r14",
        "    pop r15",
        "oret_ret:",
        "    ret",
        "oret_fail:",
    ]
    lines += _eexit("host_err", "err_unexpected")
    lines += _crit(design, "end", "oret_restore")


def _exc_copy() -> list[str]:
    # info base is in r10; field order defines the 152-byte corruption span
    lines = []
    for i, fld in enumerate(INFO_FIELDS):
        ssa_field = "exitinfo_vector" if fld == "vector" else fld
        lines.append(f"    read_ssa r12, {ssa_field}")
        lines.append(f"    store [r10+{i * 8}], r12")
    return lines


def _dedicated_flow() -> list[str]:
    # handler context lives on the dedicated stack; the saved rsp is never
    # consulted, and resumption restores the hardware-saved frame directly
    # (no in-enclave restore trampoline to corrupt)
    return [
        "    mov r11, $td_base",
        f"    load r12, [r11+{TD_CRIT_FLAG}]",
        "    cmpj r12, $1, eq, exc_unhandled",
        "    set_flag $td_crit_flag",
        "    read_ssa r12, exitinfo_valid",
        "    cmpj r12, $1, ne, exc_default_clear",
        f"    load r10, [r11+{TD_DED_BASE}]",
        f"    sub r10, ${INFO_SIZE}",
        *_exc_copy(),
        f"    load r12, [r11+{TD_EXC_FLAG}]",
        "    add r12, $1",
        f"    store [r11+{TD_EXC_FLAG}], r12",
        "    read_ssa r12, exitinfo_vector",
        f"    cmpj r12, ${VEC_EXT_INT}, eq, exc_arrange",
        f"    cmpj r12, ${VEC_PAGE_FAULT}, eq, exc_arrange",
        "    read_ssa r12, rip",
        "    add r12, $1",
        "    write_ssa rip, r12",
        "exc_arrange:",
        "    clear_flag $td_crit_flag",
        *_eexit("host_exc", "st_exc_handled"),
        "exc_unhandled:",
        *_eexit("host_err", "st_unhandled"),
        "exc_default_clear:",
        "    clear_flag $td_crit_flag",
        *_eexit("host_err", "err_not_valid"),
    ]


def _exc_fragments(toggles: Toggles) -> dict[str, list[str]]:
    """The exception-flow fragments a design orders.  Between fragments, r10
    holds the handler's stack pointer (then the info-struct base) and r11
    the thread-data base."""
    return {
        "sp_from_frame": ["    read_ssa r10, rsp"],
        "red_zone_skip": ["    sub r10, $128"],
        "load_td": ["    mov r11, $td_base"],
        "bound_check": [
            f"    load r12, [r11+{TD_STACK_BASE}]",
            "    cmpj r10, r12, gt, exc_reject",
            f"    load r12, [r11+{TD_STACK_LIMIT}]",
            "    cmpj r10, r12, lt, exc_reject",
        ],
        "align_check": [
            "    mov r12, r10",
            f"    and r12, ${toggles.alignment_required - 1}",
            "    cmpj r12, $0, ne, exc_reject",
        ],
        "alloc_struct": [f"    sub r10, ${INFO_SIZE}"],
        "align_down": ["    and r10, $align16_mask"],
        "valid_check": [
            "    read_ssa r12, exitinfo_valid",
            "    cmpj r12, $1, ne, exc_default",
        ],
        "copy": _exc_copy(),
        # the registered user handler: count the invocation, then step the
        # saved rip past a faulting instruction for the synchronous family
        "handler": [
            f"    load r12, [r11+{TD_EXC_FLAG}]",
            "    add r12, $1",
            f"    store [r11+{TD_EXC_FLAG}], r12",
            f"    load r12, [r10+{I_VECTOR}]",
            f"    cmpj r12, ${VEC_EXT_INT}, eq, exc_arrange",
            f"    cmpj r12, ${VEC_PAGE_FAULT}, eq, exc_arrange",
            f"    load r12, [r10+{I_RIP}]",
            "    add r12, $1",
            f"    store [r10+{I_RIP}], r12",
        ],
        # resume through the restore trampoline; the rejections follow
        "arrange": [
            "exc_arrange:",
            "    mov r12, $continue_execution",
            "    write_ssa rip, r12",
            "    write_ssa rsp, r10",
            "    write_ssa rdi, r10",
            *_eexit("host_exc", "st_exc_handled"),
            "exc_default:",
            *_eexit("host_err", "err_not_valid"),
            "exc_reject:",
            *_eexit("host_err", "err_bad_sp"),
        ],
        "dedicated_handler": _dedicated_flow(),
    }


def _exc_flow(lines: list[str], design: Design, toggles: Toggles) -> None:
    lines.append("exc_flow:")
    if toggles.flag_strategy is not None:
        lines += [
            "    mov r11, $td_base",
            f"    load r12, [r11+{TD_CRIT_FLAG}]",
            "    cmpj r12, $0, eq, exc_proceed",
        ]
        if toggles.flag_strategy == "postpone":
            lines += [
                "    read_ssa r12, exitinfo_vector",
                "    add r12, $1",
                f"    store [r11+{TD_PENDING}], r12",
                *_eexit("host_exc", "st_exc_postponed"),
            ]
        else:
            lines += _eexit("host_exc", "st_exc_ignored")
        lines.append("exc_proceed:")

    if design.crit_spans:
        lines.append("    emulate_critical")
    lines += _crit(design, "start", "handler_setup")
    # the handler-setup span covers the stack derivation and its checks, up
    # to the first fragment that reads the saved frame's contents
    setup_open = "handler_setup" in design.crit_spans
    fragments = _exc_fragments(toggles)
    for name in design.exc_flow:
        if setup_open and name in ("valid_check", "copy"):
            lines.append("    .crit end handler_setup")
            setup_open = False
        if name == "valid_check" and toggles.sgx1_valid_check_removed \
                and design.validity_before_copy:
            continue
        lines += fragments[name]


def _continue_execution(lines: list[str]) -> None:
    lines += [
        "continue_execution:",
        f"    load r10, [rdi+{I_RSP}]",
        "    .window start cont_restore",
        "    mov rsp, r10",
        "    .window end cont_restore",
        f"    load r10, [rdi+{I_RIP}]",
        "    push r10",
    ]
    for i, fld in enumerate(INFO_FIELDS):
        if fld in ("vector", "rip", "rsp", "rdi"):
            continue
        lines.append(f"    load {fld}, [rdi+{i * 8}]")
    lines += [
        f"    load rdi, [rdi+{I_RDI}]",
        "cont_ret:",
        "    ret",
    ]


def _ocall_stub(lines: list[str]) -> None:
    lines += [
        "ocall_stub:",
        "    push r15",
        "    push r14",
        "    push r13",
        "    push r12",
        "    push rbp",
        "    push rbx",
        "    mov r10, $td_base",
        f"    load r11, [r10+{TD_LAST_SP}]",
        "    push r11",
        "    mov r11, $ocall_magic",
        "    push r11",
        "    mov r11, rsp",
        f"    store [r10+{TD_LAST_SP}], r11",
        "    declassify rdi",
        "    " + SCRUB_BUT_RDI,
        "    eexit $host_ocall",
    ]


def _bodies(lines: list[str], design: Design, toggles: Toggles) -> None:
    lines += [
        "ecall0_body:",
        f"    sub rsp, ${ECALL0_FRAME}",
        "    mov r9, $secret_base",
        "    load r9, [r9+0]",
        "    add r9, $1",
        "    mov r8, $scratch_base",
        "    store [r8+0], r9",
        "    mov r9, $0",
        "    mov rdi, $secret_base",
        "    load rdi, [rdi+8]",
        "    and rdi, $255",
        "the_ocall:",
        "    call ocall_stub",
        "after_ocall:",
    ]
    _section_end(lines, design, toggles)
    lines += [
        f"    add rax, ${ECALL0_RESULT_DELTA}",
        f"    add rsp, ${ECALL0_FRAME}",
        *_eexit("host_done"),
        "ecall1_body:",
        "    sub rsp, $64",
        "    mov r9, $secret_base",
        "    load r9, [r9+0]",
        "    trap $0",
        "    add r9, $2",
        "    mov r8, $scratch_base",
        "    store [r8+8], r9",
        "    mov r9, $0",
        f"    mov rax, ${ECALL1_RESULT}",
        "    add rsp, $64",
        *_eexit("host_done"),
    ]


def _gadgets(lines: list[str]) -> None:
    # would-be leftovers of the trusted runtime: pop/ret primitives, a stack
    # pivot, the unchecked block-copy helper, and a terminator
    lines += [
        "g_pop_rdx:",
        "    pop rdx",
        "    ret",
        "g_pop_rsi:",
        "    pop rsi",
        "    ret",
        "g_pop_rdi:",
        "    pop rdi",
        "    ret",
        "g_pivot:",
        "    mov rsp, rcx",
        "    ret",
        "g_memcpy:",
        "    memcpy rdi, rsi, rdx",
        "    ret",
        "g_halt:",
        "    halt $st_chain_end",
    ]


def _design(variant: str) -> Design:
    try:
        return DESIGNS[variant]
    except KeyError:
        raise UnknownVariant(variant) from None


def generate_source(variant: str, toggles: Optional[Toggles] = None) -> str:
    """Render the variant program as reviewable assembly text."""
    design = _design(variant)
    toggles = toggles or Toggles()
    lines: list[str] = [
        f"; runtime variant: {variant}",
        "; one instruction per address unit; symbols resolved at assembly",
    ]
    _dispatcher(lines, design, toggles)
    _oret_flow(lines, design, toggles)
    _exc_flow(lines, design, toggles)
    _continue_execution(lines)
    _ocall_stub(lines)
    _bodies(lines, design, toggles)
    _gadgets(lines)
    return "\n".join(lines) + "\n"


def _symbols(layout: Layout) -> dict[str, int]:
    return {
        "td_base": layout.td_base,
        "td_crit_flag": layout.td_base + TD_CRIT_FLAG,
        "secret_base": layout.secret_base,
        "scratch_base": layout.scratch_base,
        "cmd_oret": CMD_ORET,
        "cmd_exception": CMD_EXCEPTION,
        "ocall_magic": OCALL_MAGIC,
        "err_invalid_cmd": ERR_INVALID_CMD,
        "err_bad_sp": ERR_BAD_SP,
        "err_unexpected": ERR_UNEXPECTED,
        "err_not_valid": ERR_NOT_VALID,
        "st_unhandled": ST_UNHANDLED,
        "st_exc_handled": ST_EXC_HANDLED,
        "st_exc_postponed": ST_EXC_POSTPONED,
        "st_exc_ignored": ST_EXC_IGNORED,
        "st_chain_end": ST_CHAIN_END,
        "align16_mask": ALIGN16_MASK,
        "flags_sanitize_mask": FLAGS_SANITIZE_MASK,
        "host_ocall": layout.host_ocall,
        "host_done": layout.host_done,
        "host_err": layout.host_err,
        "host_exc": layout.host_exc,
    }


# Distinct programs kept per process: a hunt batch assembles 26.
PROGRAM_CACHE_SIZE = 32
# Distinct layouts and (variant, toggles) pairs whose program inputs are
# kept per process: a hunt batch has 120 toggle sets.
INPUT_CACHE_SIZE = 256


@functools.lru_cache(maxsize=INPUT_CACHE_SIZE)
def _text_toggles(variant: str, toggles: Toggles) -> Toggles:
    """`toggles` with each field the variant's program text does not read
    reset to its default: the ASLR offset (the shift is the image's), the
    alignment without an alignment check, and the removed validity check
    where the check follows the copy.  Toggles with equal text toggles
    render equal text."""
    design = DESIGNS[variant]
    return toggles._replace(
        aslr_stack_offset=0,
        alignment_required=(toggles.alignment_required
                            if "align_check" in design.exc_flow
                            else Toggles().alignment_required),
        sgx1_valid_check_removed=(toggles.sgx1_valid_check_removed
                                  and design.validity_before_copy))


@functools.lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _program(variant: str, toggles: Toggles, code_base: int,
             symbols: tuple[tuple[str, int], ...]) -> tuple:
    """The variant's program text under `toggles` (text toggles only),
    rendered and assembled at `code_base` against `symbols` once per
    distinct input, followed by the image fields derived from it alone, in
    `EnclaveImage` order: its read-only gadget map, control targets, call
    sites, windows and critical ranges.  A `Program` is never changed after
    assembly, and what the interpreter caches on it (its fetch tables) is
    derived from its code and the pages over it, so every image built from
    the same input shares the program and these fields."""
    src = generate_source(variant, toggles)
    program = isa.assemble(src, code_base, dict(symbols))
    labels = program.labels
    gadgets = {name[2:]: addr for name, addr in labels.items()
               if name.startswith("g_")}
    gadgets["memcpy"] = labels["g_memcpy"]
    gadgets["continue_execution"] = labels["continue_execution"]

    call_sites = frozenset(a for a, ins in program.code.items()
                           if ins[0] == isa.OP_CALL)
    ocall_sites = frozenset(a for a in call_sites
                            if program.code[a][1] == labels["ocall_stub"])
    legit_rets = frozenset(a + 1 for a in call_sites) | frozenset(
        {labels["continue_execution"]})
    sp_windows = tuple(sorted(program.windows.values()))
    return (program, MappingProxyType(gadgets), legit_rets,
            frozenset({labels["cont_ret"]}), ocall_sites, labels["oret_ret"],
            sp_windows,
            frozenset(pc for lo, hi in sp_windows for pc in range(lo, hi)),
            tuple(sorted(program.crit_ranges.values())))


def build_runtime(variant: str, layout: Optional[Layout] = None,
                  toggles: Optional[Toggles] = None) -> EnclaveImage:
    """Assemble the variant against the layout and derive image metadata.

    The program depends on three inputs only: the variant and the toggles
    its text reads (`_text_toggles`), `layout.code_base`, and the layout
    symbols of `_symbols`.  It does not depend on the ASLR shift or on
    `layout.pubbuf_base`, so images that differ only there share one
    assembled program and the metadata derived from it, and its text is
    rendered only when that input is new; the stack base and the ranges
    derived from it stay per image.  A layout is checked and its symbols
    listed, and a variant's toggles reduced to its text toggles, once per
    distinct value."""
    design = _design(variant)
    layout = layout or Layout()
    toggles = toggles or Toggles()
    if not 0 <= toggles.aslr_stack_offset <= ASLR_RANGE:
        raise ValueError("aslr offset out of range")
    stack_base = layout.stack_base - aslr_shift(toggles.aslr_stack_offset)
    trusted = [(layout.stack_limit, stack_base)]
    if "dedicated_handler" in design.exc_flow:
        # the handler runs on the dedicated page
        trusted.append((layout.dedicated_page, layout.dedicated_page + 0x1000))
    return EnclaveImage(
        variant, layout, toggles, stack_base,
        *_program(variant, _text_toggles(variant, toggles), layout.code_base,
                  _layout_symbols(layout)),
        tuple(trusted), ENTRY_ATOMIC_CYCLES + toggles.critical_pad)


def layout_regions(layout: Layout) -> tuple[tuple[int, int, int, int], ...]:
    """The regions a layout maps, as (base, size, kind, perms): the pages
    `build_machine` creates and the spans `_check_layout` keeps disjoint.
    The stack spans the nominal base; the ASLR shift moves only where the
    runtime starts using it."""
    rw = PERM_R | PERM_W
    return (
        (layout.code_base, 0x1000, PRIVATE, PERM_R | PERM_X),
        (layout.stack_limit, layout.stack_base - layout.stack_limit,
         PRIVATE, rw),
        (layout.td_base, 0x1000, PRIVATE, rw),
        (layout.ssa_base, 0x1000, PRIVATE, rw),
        (layout.secret_base, 0x1000, PRIVATE, PERM_R),
        (layout.scratch_base, 0x1000, PRIVATE, rw),
        (layout.dedicated_page, 0x1000, PRIVATE, rw),
        (layout.host_base, 0x1000, PUBLIC, rw),
        (layout.pubbuf_base, 0x1000, PUBLIC, rw),
    )


def _check_layout(layout: Layout) -> None:
    spans = sorted((base, base + size)
                   for base, size, _, _ in layout_regions(layout))
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        if a1 > b0:
            raise LayoutOverlap(f"{a0:#x}-{a1:#x} overlaps {b0:#x}-{b1:#x}")


@functools.lru_cache(maxsize=INPUT_CACHE_SIZE)
def _layout_symbols(layout: Layout) -> tuple[tuple[str, int], ...]:
    """The symbols `_program` assembles against, once `layout` is checked.
    A layout is checked once per distinct value; an overlapping one raises
    LayoutOverlap on every call, since the cache keeps no exception."""
    _check_layout(layout)
    return tuple(_symbols(layout).items())


SECRET_WORD_SEED = 0x5EC2E7_0000


def build_machine(image: EnclaveImage, sgx_version: int = SGX2,
                  grant: Optional[tuple[int, int]] = DEFAULT_IRQ_GRANT
                  ) -> Machine:
    """Fresh platform state for one scenario run of this image.  When the
    design has the irq-quota extension, the OS grants it `grant` (allowed
    cycles, window); None leaves it ungranted."""
    lay = image.layout
    mem = Memory([Page(*region) for region in layout_regions(lay)])
    td = lay.td_base
    # no ocall pending: last_sp parks at the stack base, so the first saved
    # context records a pre_last_sp the return checks accept
    mem.write(td + TD_LAST_SP, image.stack_base, False)
    mem.write(td + TD_STACK_BASE, image.stack_base, False)
    mem.write(td + TD_STACK_LIMIT, lay.stack_limit, False)
    mem.write(td + TD_FIRST_SSA, lay.ssa_base + 8, False)
    mem.write(td + TD_DED_BASE, lay.dedicated_stack_base, False)
    for i in range(lay.secret_len // 8):
        mem.write(lay.secret_base + 8 * i,
                  (SECRET_WORD_SEED + i * 0x0101_0101_0101) & MASK64, True)
    design = image.design
    tcs = TCS(entry_point=image.entry, nssa=design.nssa,
              ssa_base=lay.ssa_base)
    m = Machine(mem, tcs, sgx_version=sgx_version, hw=HwExt(kind=design.hw),
                entry_atomic_cycles=image.entry_atomic_cycles)
    if grant is not None and design.hw == HW_IRQ_QUOTA:
        m.grant_irq_quota(*grant)
    return m


# ---------------------------------------------------------------------------
# Fixture management
# ---------------------------------------------------------------------------

def fixtures_dir() -> str:
    env = os.environ.get("ENCLAVE_AEX_LAB_FIXTURES")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(fixtures_dir(), name)

