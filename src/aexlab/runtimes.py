"""Runtime variants compiled to abstract-ISA enclave images.

Each variant is an assembly program (entry dispatcher, ocall save/return
flow, exception flow, gadget inventory) whose instruction *ordering*
differences are the point: where the stack pointer is derived from the
saved frame, which checks run before the context copy, and how critical
sections are protected.  Programs are rendered to reviewable fixture text
and assembled against a concrete memory layout.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from . import isa
from .machine import (
    HW_IRQ_QUOTA, HW_REENTRY_MASK, MASK64, PERM_R, PERM_W, PERM_X,
    PRIVATE, PUBLIC, RFLAGS_AC, RFLAGS_DF, SGX2, HwExt, Machine, Memory,
    Page, TCS, VEC_EXT_INT, VEC_PAGE_FAULT,
)

VARIANTS = (
    "sdk_style", "open_enclave_style", "enarx_style", "dedicated_stack",
    "nssa_disabled", "graphene_emulated", "hw_reentry_mask", "hw_irq_quota",
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
CTX_ANCHOR_OFF = 64
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
I_RFLAGS = INFO_FIELDS.index("rflags") * 8
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


@dataclass(frozen=True)
class Layout:
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


@dataclass(frozen=True)
class Toggles:
    """Variant parameterization; never changes the variant's kind."""

    sgx1_valid_check_removed: bool = False
    aslr_stack_offset: int = 0          # bytes in [0, 2048]; quantized to words
    alignment_required: int = 16
    critical_pad: int = 0               # extra cycles inside the oret window
    flag_strategy: Optional[str] = None  # None | "postpone" | "ignore"


@dataclass
class EnclaveImage:
    """A runtime variant assembled against a layout, plus the metadata the
    detectors and the adversary need: gadget inventory, legitimate control
    targets, untrusted-sp windows, critical ranges, secret region."""

    variant: str
    layout: Layout
    toggles: Toggles
    program: isa.Program
    nssa: int
    auto_mask: bool
    auto_atomic: bool
    stack_base: int                    # effective (ASLR-shifted) base
    gadgets: dict[str, int] = field(default_factory=dict)
    legit_ret_targets: frozenset[int] = frozenset()
    restore_ret_pcs: frozenset[int] = frozenset()
    ocall_call_sites: frozenset[int] = frozenset()
    oret_ret_pc: int = 0
    trusted_stack_ranges: tuple[tuple[int, int], ...] = ()
    sp_windows: tuple[tuple[int, int], ...] = ()
    crit_ranges: tuple[tuple[int, int], ...] = ()
    entry_atomic_cycles: int = ENTRY_ATOMIC_CYCLES
    # every pc inside a declared sp window, so a window test is one lookup
    sp_window_pcs: frozenset[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.sp_window_pcs = frozenset(
            pc for lo, hi in self.sp_windows for pc in range(lo, hi))

    @property
    def entry(self) -> int:
        return self.program.labels["entry"]

    @property
    def anchor_addr(self) -> int:
        """Anchor slot for the single benign ocall of the compute ecall."""
        return self.stack_base - ECALL0_FRAME - 8

    @property
    def ocall_ctx_addr(self) -> int:
        return self.anchor_addr - CTX_ANCHOR_OFF


# ---------------------------------------------------------------------------
# Program text generation
# ---------------------------------------------------------------------------

SCRUB_BUT_RAX = "scrub rbx, rcx, rdx, rdi, rsi, rbp, rsp, r8, r9, r10, r11, r12, r13, r14, r15, rflags"
SCRUB_BUT_RDI = "scrub rax, rbx, rcx, rdx, rsi, rbp, rsp, r8, r9, r10, r11, r12, r13, r14, r15, rflags"


def _dispatcher(lines: list[str], variant: str, toggles: Toggles) -> None:
    flagged = toggles.flag_strategy is not None
    lines += [
        "entry:",
        "    .window start entry_sanitize",
        "    .crit start entry_sanitize" if variant == "graphene_emulated" else ";",
        "    set_flag $td_crit_flag" if flagged else ";",
        "    cmpj rdi, $cmd_oret, eq, oret_flow",
        "    cmpj rdi, $cmd_exception, eq, exc_flow",
        "    cmpj rdi, $0, eq, ecall0_pro",
        "    cmpj rdi, $1, eq, ecall1_pro",
        "invalid_cmd:",
        "    mov rax, $err_invalid_cmd",
        "    clear_flag $td_crit_flag" if flagged else ";",
        "    " + SCRUB_BUT_RAX,
        "    eexit $host_err",
    ]
    for n in (0, 1):
        lines += [
            f"ecall{n}_pro:",
            "    mov r10, $td_base",
            f"    load r11, [r10+{TD_STACK_BASE}]",
            "    mov rsp, r11",
            "    and rflags, $flags_sanitize_mask",
        ]
        if variant in ("hw_reentry_mask", "hw_irq_quota"):
            lines.append("    end_atomic")
        if flagged:
            lines += ["    clear_flag $td_crit_flag", "    call drain_pending"]
        lines.append(f"    jmp ecall{n}_body")
    lines.append("    .window end entry_sanitize")
    if variant == "graphene_emulated":
        lines.append("    .crit end entry_sanitize")
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


def _oret_flow(lines: list[str], variant: str, toggles: Toggles) -> None:
    graphene = variant == "graphene_emulated"
    lines += [
        "oret_flow:",
        "    .window start oret_sanitize",
        "    .crit start oret_restore" if graphene else ";",
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
        "    mov rax, $err_unexpected",
        "    " + SCRUB_BUT_RAX,
        "    eexit $host_err",
        "    .crit end oret_restore" if graphene else ";",
    ]


def _exc_copy(lines: list[str]) -> None:
    # info base is in r10; field order defines the 152-byte corruption span
    for i, fld in enumerate(INFO_FIELDS):
        ssa_field = "exitinfo_vector" if fld == "vector" else fld
        lines.append(f"    read_ssa r12, {ssa_field}")
        lines.append(f"    store [r10+{i * 8}], r12")


def _handler_body(lines: list[str]) -> None:
    # the registered user handler: count the invocation, then step the saved
    # rip past a faulting instruction for the synchronous class family
    lines += [
        f"    load r12, [r11+{TD_EXC_FLAG}]",
        "    add r12, $1",
        f"    store [r11+{TD_EXC_FLAG}], r12",
        f"    load r12, [r10+{I_VECTOR}]",
        f"    cmpj r12, ${VEC_EXT_INT}, eq, exc_arrange",
        f"    cmpj r12, ${VEC_PAGE_FAULT}, eq, exc_arrange",
        f"    load r12, [r10+{I_RIP}]",
        "    add r12, $1",
        f"    store [r10+{I_RIP}], r12",
    ]


def _exc_arrange(lines: list[str]) -> None:
    lines += [
        "exc_arrange:",
        "    mov r12, $continue_execution",
        "    write_ssa rip, r12",
        "    write_ssa rsp, r10",
        "    write_ssa rdi, r10",
        "    mov rax, $st_exc_handled",
        "    " + SCRUB_BUT_RAX,
        "    eexit $host_exc",
    ]


def _exc_flow(lines: list[str], variant: str, toggles: Toggles) -> None:
    flagged = toggles.flag_strategy is not None
    lines.append("exc_flow:")

    if flagged:
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
                "    mov rax, $st_exc_postponed",
                "    " + SCRUB_BUT_RAX,
                "    eexit $host_exc",
            ]
        else:
            lines += [
                "    mov rax, $st_exc_ignored",
                "    " + SCRUB_BUT_RAX,
                "    eexit $host_exc",
            ]
        lines.append("exc_proceed:")

    if variant == "dedicated_stack":
        # handler context lives on the dedicated stack; the saved rsp is
        # never consulted, and resumption restores the hardware-saved frame
        # directly (no in-enclave restore trampoline to corrupt)
        lines += [
            "    mov r11, $td_base",
            f"    load r12, [r11+{TD_CRIT_FLAG}]",
            "    cmpj r12, $1, eq, exc_unhandled",
            "    set_flag $td_crit_flag",
            "    read_ssa r12, exitinfo_valid",
            "    cmpj r12, $1, ne, exc_default_clear",
            f"    load r10, [r11+{TD_DED_BASE}]",
            f"    sub r10, ${INFO_SIZE}",
        ]
        _exc_copy(lines)
        lines += [
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
            "    mov rax, $st_exc_handled",
            "    " + SCRUB_BUT_RAX,
            "    eexit $host_exc",
            "exc_unhandled:",
            "    mov rax, $st_unhandled",
            "    " + SCRUB_BUT_RAX,
            "    eexit $host_err",
            "exc_default_clear:",
            "    clear_flag $td_crit_flag",
            "    mov rax, $err_not_valid",
            "    " + SCRUB_BUT_RAX,
            "    eexit $host_err",
        ]
        return

    if variant == "graphene_emulated":
        lines.append("    emulate_critical")
        lines.append("    .crit start handler_setup")

    sdk_order = variant in ("sdk_style", "nssa_disabled", "graphene_emulated",
                            "hw_reentry_mask", "hw_irq_quota")
    red_zone = variant == "enarx_style"

    lines.append("    read_ssa r10, rsp")
    if sdk_order:
        # derive sp, bound and alignment checks, validity check, THEN copy
        lines += [
            "    mov r11, $td_base",
            f"    load r12, [r11+{TD_STACK_BASE}]",
            "    cmpj r10, r12, gt, exc_reject",
            f"    load r12, [r11+{TD_STACK_LIMIT}]",
            "    cmpj r10, r12, lt, exc_reject",
            "    mov r12, r10",
            f"    and r12, ${toggles.alignment_required - 1}",
            "    cmpj r12, $0, ne, exc_reject",
            f"    sub r10, ${INFO_SIZE}",
            "    and r10, $align16_mask",
        ]
        if variant == "graphene_emulated":
            lines.append("    .crit end handler_setup")
        if not toggles.sgx1_valid_check_removed:
            lines += [
                "    read_ssa r12, exitinfo_valid",
                "    cmpj r12, $1, ne, exc_default",
            ]
        _exc_copy(lines)
        _handler_body(lines)
        _exc_arrange(lines)
    else:
        # copy first, validity check only afterwards; no sp sanity checks
        if red_zone:
            lines += ["    sub r10, $128", "    and r10, $align16_mask"]
        lines += [
            "    mov r11, $td_base",
            f"    sub r10, ${INFO_SIZE}",
        ]
        if not red_zone:
            lines.append("    and r10, $align16_mask")
        _exc_copy(lines)
        lines += [
            "    read_ssa r12, exitinfo_valid",
            "    cmpj r12, $1, ne, exc_default",
        ]
        _handler_body(lines)
        _exc_arrange(lines)

    lines += [
        "exc_default:",
        "    mov rax, $err_not_valid",
        "    " + SCRUB_BUT_RAX,
        "    eexit $host_err",
        "exc_reject:",
        "    mov rax, $err_bad_sp",
        "    " + SCRUB_BUT_RAX,
        "    eexit $host_err",
    ]


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


def _bodies(lines: list[str], variant: str, toggles: Toggles) -> None:
    flagged = toggles.flag_strategy is not None
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
    if variant in ("hw_reentry_mask", "hw_irq_quota"):
        lines.append("    end_atomic")
    if flagged:
        lines += ["    clear_flag $td_crit_flag", "    call drain_pending"]
    lines += [
        f"    add rax, ${ECALL0_RESULT_DELTA}",
        f"    add rsp, ${ECALL0_FRAME}",
        "    " + SCRUB_BUT_RAX,
        "    eexit $host_done",
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
        "    " + SCRUB_BUT_RAX,
        "    eexit $host_done",
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


def generate_source(variant: str, toggles: Optional[Toggles] = None) -> str:
    """Render the variant program as reviewable assembly text."""
    if variant not in VARIANTS:
        raise UnknownVariant(variant)
    toggles = toggles or Toggles()
    lines: list[str] = [
        f"; runtime variant: {variant}",
        "; one instruction per address unit; symbols resolved at assembly",
    ]
    _dispatcher(lines, variant, toggles)
    _oret_flow(lines, variant, toggles)
    _exc_flow(lines, variant, toggles)
    _continue_execution(lines)
    _ocall_stub(lines)
    _bodies(lines, variant, toggles)
    _gadgets(lines)
    return "\n".join(ln for ln in lines if ln.strip() != ";") + "\n"


def _symbols(layout: Layout, stack_base: int) -> dict[str, int]:
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


def build_runtime(variant: str, layout: Optional[Layout] = None,
                  toggles: Optional[Toggles] = None) -> EnclaveImage:
    """Assemble the variant against the layout and derive image metadata."""
    if variant not in VARIANTS:
        raise UnknownVariant(variant)
    layout = layout or Layout()
    toggles = toggles or Toggles()
    if not 0 <= toggles.aslr_stack_offset <= ASLR_RANGE:
        raise ValueError("aslr offset out of range")
    stack_base = layout.stack_base - aslr_shift(toggles.aslr_stack_offset)

    _check_layout(layout)
    src = generate_source(variant, toggles)
    program = isa.assemble(src, layout.code_base, _symbols(layout, stack_base))

    labels = program.labels
    gadgets = {name[2:]: addr for name, addr in labels.items()
               if name.startswith("g_")}
    gadgets["memcpy"] = labels["g_memcpy"]
    gadgets["continue_execution"] = labels["continue_execution"]

    call_sites = frozenset(a for a, ins in program.code.items()
                           if ins[0] == isa.OP_CALL)
    ocall_sites = frozenset(a for a, ins in program.code.items()
                            if ins[0] == isa.OP_CALL
                            and ins[1] == labels["ocall_stub"])
    legit_rets = frozenset(a + 1 for a in call_sites) | frozenset(
        {labels["continue_execution"]})

    nssa = {"nssa_disabled": 1, "dedicated_stack": 3}.get(variant, 2)

    trusted = [(layout.stack_limit, stack_base)]
    if variant == "dedicated_stack":
        trusted.append((layout.dedicated_page, layout.dedicated_page + 0x1000))

    return EnclaveImage(
        variant=variant,
        layout=layout,
        toggles=toggles,
        program=program,
        nssa=nssa,
        auto_mask=(variant == "hw_reentry_mask"),
        auto_atomic=(variant == "hw_irq_quota"),
        stack_base=stack_base,
        gadgets=gadgets,
        legit_ret_targets=legit_rets,
        restore_ret_pcs=frozenset({labels["cont_ret"]}),
        ocall_call_sites=ocall_sites,
        oret_ret_pc=labels["oret_ret"],
        trusted_stack_ranges=tuple(trusted),
        sp_windows=tuple(sorted(program.windows.values())),
        crit_ranges=tuple(sorted(program.crit_ranges.values())),
        entry_atomic_cycles=ENTRY_ATOMIC_CYCLES + toggles.critical_pad,
    )


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


SECRET_WORD_SEED = 0x5EC2E7_0000


def build_machine(image: EnclaveImage, sgx_version: int = SGX2) -> Machine:
    """Fresh platform state for one scenario run of this image."""
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
    tcs = TCS(entry_point=image.entry, nssa=image.nssa, ssa_base=lay.ssa_base)
    hw = None
    if image.variant == "hw_irq_quota":
        hw = HwExt(kind=HW_IRQ_QUOTA)
    elif image.variant == "hw_reentry_mask":
        hw = HwExt(kind=HW_REENTRY_MASK)
    m = Machine(mem, tcs, sgx_version=sgx_version, hw=hw,
                auto_mask=image.auto_mask, auto_atomic=image.auto_atomic,
                entry_atomic_cycles=image.entry_atomic_cycles)
    return m


# ---------------------------------------------------------------------------
# Standalone check predicates (mirrored by the assembled flows)
# ---------------------------------------------------------------------------

@dataclass
class ThreadDataView:
    """Thread-data fields as plain values, read out of machine memory."""

    last_sp: int
    stack_base_addr: int
    stack_limit_addr: int
    first_ssa_gpr: int
    exception_flag: int
    critical_flag: int
    pending_exceptions: int
    dedicated_stack_base: int

    @classmethod
    def read(cls, mem: Memory, td_base: int) -> "ThreadDataView":
        g = lambda off: mem.read(td_base + off)[0]
        return cls(g(TD_LAST_SP), g(TD_STACK_BASE), g(TD_STACK_LIMIT),
                   g(TD_FIRST_SSA), g(TD_EXC_FLAG), g(TD_CRIT_FLAG),
                   g(TD_PENDING), g(TD_DED_BASE))


ORET_OK = "ok"
ORET_ZERO_SP = "zero_sp"
ORET_SP_TOO_HIGH = "sp_too_high"
ORET_BAD_FLAG = "bad_flag"
ORET_BAD_PRE_SP = "bad_pre_sp"


def validate_oret(td: ThreadDataView, ctx_addr: int, mem: Memory) -> str:
    """Ocall-return sanity checks, evaluated in flow order; the first
    failure wins.  `ctx_addr` is the candidate saved-context base (equal to
    last_sp in the assembled flow)."""
    if td.last_sp == 0:
        return ORET_ZERO_SP
    if td.last_sp > td.stack_base_addr - CTX_GUARD_WORDS * 8:
        return ORET_SP_TOO_HIGH
    if mem.read(ctx_addr + 0)[0] != OCALL_MAGIC:
        return ORET_BAD_FLAG
    pre = mem.read(ctx_addr + 8)[0]
    if pre <= ctx_addr or pre > td.stack_base_addr:
        return ORET_BAD_PRE_SP
    return ORET_OK


SP_OK = "ok"
SP_OUT_OF_RANGE = "out_of_range"
SP_MISALIGNED = "misaligned"


def handler_sp_check(sp: int, td: ThreadDataView, alignment: int = 16) -> str:
    """Handler stack-pointer sanity: inside the thread stack and aligned."""
    if not td.stack_limit_addr <= sp <= td.stack_base_addr:
        return SP_OUT_OF_RANGE
    if sp % alignment:
        return SP_MISALIGNED
    return SP_OK


POSTPONED = "postponed"
IGNORED = "ignored"


def postpone_or_ignore(td: ThreadDataView, vector: int, policy: str,
                       mem: Memory, td_base: int) -> str:
    """Critical-section delivery policy: record the class for the
    end-of-section drain, or drop the event entirely."""
    if td.critical_flag != 1:
        raise ValueError("only defined inside a critical section")
    if policy == "postpone":
        mem.write(td_base + TD_PENDING, vector + 1, False)
        return POSTPONED
    if policy == "ignore":
        return IGNORED
    raise ValueError(f"unknown policy {policy!r}")


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

