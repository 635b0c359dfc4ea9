"""Abstract hardware model: register file, memory map, SSA frames, TCS, and
the entry/exit/async-exit instructions of the simulated platform.

The machine is a deterministic transition system.  All mutation happens
through the operations defined here or through the instruction interpreter;
a canonical serialization (see ``digest``) makes state comparable across
runs and worker processes.  Registers, saved frames and memory cells each
carry one label word (secret taint and attacker payload, see ``SECRET``);
only its secret plane is canonical.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Optional, Sequence

# ---------------------------------------------------------------------------
# Registers
# ---------------------------------------------------------------------------

RAX, RBX, RCX, RDX, RDI, RSI, RBP, RSP = range(8)
R8, R9, R10, R11, R12, R13, R14, R15 = range(8, 16)
RIP = 16
NREGS = 18

REG_NAMES = [
    "rax", "rbx", "rcx", "rdx", "rdi", "rsi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
    "rip", "rflags",
]
REG_IDS = {name: i for i, name in enumerate(REG_NAMES)}

MASK64 = (1 << 64) - 1

# Label words.  Every register, saved-frame slot and memory cell carries one
# word of labels, one bit per plane: the secret taint (bit 0) and one origin
# plane per register r (bit 18 * (r + 1), ``ORIGINS[r]``) for the value
# staged in r, so that a sink can be traced back to the registers whose
# staged values reached it; the staged rsp's plane also marks the values
# the search's rsp classes reason about (``interp.RspPath``).  ``PAYLOADS``
# masks every origin plane.  A register mask (``Machine.taint``,
# ``SSAFrame.taint``) holds register r's word shifted left by r, so its
# secret plane is bits 0..17 and origin plane s bits 18 * (s + 1) + 0..17:
# planes ``NREGS`` bits apart are the narrowest whose shifted words cannot
# overlap.  ``Memory.labels`` holds cell words unshifted.  Only the
# secret plane is part of the canonical state.
SECRET = 1
ORIGINS = tuple(1 << NREGS * (r + 1) for r in range(NREGS))
PAYLOADS = sum(ORIGINS)
LABELS = SECRET | PAYLOADS
SECRET_REGS = (1 << NREGS) - 1

# Post-AEX register contents: a fixed sentinel per register so traces stay
# reproducible.  The real scrub values are unspecified; these are ours.
SCRUB_VALUES = tuple(0x5C00 + i for i in range(NREGS))

RFLAGS_DF = 0x400
RFLAGS_AC = 0x40000

# ---------------------------------------------------------------------------
# Exception classes (x86 vector numbers where they exist)
# ---------------------------------------------------------------------------

VEC_DIV = 0
VEC_DEBUG = 1
VEC_BREAKPOINT = 3
VEC_BOUND = 5
VEC_UD = 6
VEC_MF = 16
VEC_AC = 17
VEC_XM = 19
VEC_PAGE_FAULT = 14
VEC_EXT_INT = 32

# The eight exception classes every platform version reports to the enclave.
# They are synchronous: only a faulting enclave instruction can raise them.
SYNC_VECTORS = frozenset({VEC_DIV, VEC_DEBUG, VEC_BREAKPOINT, VEC_BOUND,
                          VEC_UD, VEC_MF, VEC_AC, VEC_XM})

VECTOR_NAMES = {
    VEC_DIV: "div_zero",
    VEC_DEBUG: "debug",
    VEC_BREAKPOINT: "breakpoint",
    VEC_BOUND: "bound",
    VEC_UD: "invalid_opcode",
    VEC_MF: "fp_error",
    VEC_AC: "align_check",
    VEC_XM: "simd_error",
    VEC_PAGE_FAULT: "page_fault",
    VEC_EXT_INT: "external_interrupt",
}
VECTOR_IDS = {v: k for k, v in VECTOR_NAMES.items()}

SGX1 = 1
SGX2 = 2


def reports_to_enclave(vector: int, sgx_version: int) -> bool:
    """Whether an async exit of class `vector` sets the valid bit in the
    saved frame.  Page faults are reported only on version 2; external
    interrupts never are; the synchronous family always is."""
    if vector in SYNC_VECTORS:
        return True
    if vector == VEC_PAGE_FAULT:
        return sgx_version == SGX2
    return False


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class MachineError(Exception):
    """Illegal use of a hardware operation (a harness bug, never an event)."""


class EntryDenied(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ResumeDenied(Exception):
    pass


class UnknownPage(Exception):
    pass


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

PRIVATE = 0
PUBLIC = 1

PERM_R = 1
PERM_W = 2
PERM_X = 4


class Page:
    """One mapped region.  A page is a value: pages with equal fields are
    equal and hash alike (tuples of pages key ``Program.fetch_tables``),
    and a page is never changed: a flip replaces it."""

    __slots__ = ("base", "size", "kind", "perms")

    def __init__(self, base: int, size: int, kind: int, perms: int):
        self.base = base
        self.size = size
        self.kind = kind        # PRIVATE or PUBLIC
        self.perms = perms      # PERM_* bits

    def _key(self) -> tuple:
        return (self.base, self.size, self.kind, self.perms)

    def __eq__(self, other):
        if other.__class__ is not Page:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Page(base={self.base!r}, size={self.size!r}, "
                f"kind={self.kind!r}, perms={self.perms!r})")


PAGE_SHIFT = 12
MAX_INDEX_SLOTS = 4096


def _page_index(pages: list[Page]) -> tuple[int, dict[int, tuple[Page, ...]]]:
    """Map each page number to the pages overlapping it, in list order.
    Regions need not be page-aligned or page-sized; when they span too many
    page numbers the slots widen (a larger shift) to keep the index small."""
    shift = PAGE_SHIFT
    live = [p for p in pages if p.size > 0]
    while sum(((p.base + p.size - 1) >> shift) - (p.base >> shift) + 1
              for p in live) > MAX_INDEX_SLOTS:
        shift += 4
    index: dict[int, tuple[Page, ...]] = {}
    for p in live:
        for n in range(p.base >> shift, ((p.base + p.size - 1) >> shift) + 1):
            index[n] = index.get(n, ()) + (p,)
    return shift, index


def _tuple_bytes(parts: list[bytes]) -> bytes:
    """The bytes of the ``repr`` of a tuple whose items' ``repr`` bytes are
    `parts`: a one-tuple keeps its trailing comma."""
    if len(parts) == 1:
        return b"(%b,)" % parts[0]
    return b"(%b)" % b", ".join(parts)


class Memory:
    """Word-addressed memory: 8-byte little-endian cells at 8-aligned
    addresses, each carrying a label word (``labels``; absent means no
    label).  Reads of unwritten cells inside a mapped page return zero,
    unlabelled.  Only a cell's secret bit is part of the canonical state.

    Pages are immutable and the page list and its index are shared between
    clones; ``set_perms`` gives this memory its own copy (copy-on-write).

    ``write`` and ``set_perms`` are the only mutators of cells and pages.
    ``write`` keeps the cell text that ``Machine.digest`` hashes up to
    date: the ``repr`` bytes of each canonical cell, in address order
    (``_keys``, ``_parts``), built at the first ``cells_repr``; from then on
    ``write`` records the written address in ``_dirty`` and ``cells_repr``
    re-formats only those cells.  A memory starts without parts, a clone
    too, and one never digested pays only the None check per write
    (``_dirty`` is None); the memory of a recorded run from a root's
    `after` point starts from the parts its root kept
    (``Machine.seed_digest_text``).  The page permissions' text is the
    machine's (``Machine._pages``), which ``os_set_page_perms``, the one
    caller of ``set_perms``, clears.

    ``fetch`` is the table instruction fetch reads for ``fetch_program``
    (see ``interp.fetch_table``): it depends on the pages, so clones share
    it and ``set_perms`` drops it."""

    __slots__ = ("pages", "cells", "labels", "shift", "index",
                 "_keys", "_parts", "_dirty", "_cells_repr",
                 "fetch", "fetch_program")

    def __init__(self, pages: list[Page]):
        self.pages = list(pages)
        self.cells: dict[int, int] = {}
        self.labels: dict[int, int] = {}
        self.shift, self.index = _page_index(self.pages)
        self._keys: Optional[list[int]] = None
        self._parts: Optional[list[bytes]] = None
        self._dirty: Optional[set[int]] = None
        self._cells_repr = b""
        self.fetch: Optional[dict] = None
        self.fetch_program = None

    def clone(self) -> "Memory":
        m = Memory.__new__(Memory)
        m.pages = self.pages
        m.shift = self.shift
        m.index = self.index
        m.cells = dict(self.cells)
        m.labels = dict(self.labels)
        m._keys = m._parts = m._dirty = None
        m._cells_repr = b""
        m.fetch = self.fetch
        m.fetch_program = self.fetch_program
        return m

    def page_at(self, addr: int) -> Optional[Page]:
        for p in self.index.get(addr >> self.shift, ()):
            if p.base <= addr < p.base + p.size:
                return p
        return None

    def set_perms(self, base: int, perms: int) -> bool:
        """Replace the first page based at `base` by one with `perms`, in
        this memory only, and drop its fetch table.  False when no page
        starts there.  Only ``Machine.os_set_page_perms`` calls it, and it
        clears the machine's cached page text (``Machine._pages``)."""
        for i, p in enumerate(self.pages):
            if p.base == base:
                pages = list(self.pages)
                pages[i] = Page(p.base, p.size, p.kind, perms)
                self.pages = pages
                self.shift, self.index = _page_index(pages)
                self.fetch = self.fetch_program = None
                return True
        return False

    # Access predicates evaluated from enclave mode.  Each inlines the
    # page_at lookup: they run on every memory access (a fetch reads the
    # fetch table instead, built from ``executable``).
    def readable(self, addr: int) -> bool:
        for p in self.index.get(addr >> self.shift, ()):
            if p.base <= addr < p.base + p.size:
                return bool(p.perms & PERM_R)
        return False

    def writable(self, addr: int) -> bool:
        for p in self.index.get(addr >> self.shift, ()):
            if p.base <= addr < p.base + p.size:
                return bool(p.perms & PERM_W)
        return False

    def executable(self, addr: int) -> bool:
        for p in self.index.get(addr >> self.shift, ()):
            if p.base <= addr < p.base + p.size:
                return bool(p.perms & PERM_X) and p.kind == PRIVATE
        return False

    def is_public(self, addr: int) -> bool:
        for p in self.index.get(addr >> self.shift, ()):
            if p.base <= addr < p.base + p.size:
                return p.kind == PUBLIC
        return False

    def read(self, addr: int) -> tuple[int, int]:
        """The cell's value and label word."""
        return self.cells.get(addr, 0), self.labels.get(addr, 0)

    def write(self, addr: int, value: int, word: int) -> None:
        """Store `value` with label `word` (True marks a secret)."""
        value &= MASK64
        if value:
            self.cells[addr] = value
        else:
            self.cells.pop(addr, None)
        if word:
            self.labels[addr] = word
        else:
            self.labels.pop(addr, None)
        dirty = self._dirty
        if dirty is not None:
            dirty.add(addr)

    def canonical(self) -> list[tuple[int, int, int]]:
        items = {a: (v, 0) for a, v in self.cells.items() if v}
        for a, w in self.labels.items():
            if w & SECRET:
                items[a] = (items.get(a, (0, 0))[0], 1)
        return sorted((a, v, s) for a, (v, s) in items.items())

    def cells_repr(self) -> bytes:
        """``repr(tuple(self.canonical()))``, encoded: the bytes
        ``Machine.digest`` feeds to SHA-256.  Only the cells written since
        the previous call are formatted again, and the text is joined and
        encoded again only then; a cell that became zero and public leaves
        the tuple."""
        dirty = self._dirty
        if dirty is None:
            cells = self.canonical()
            self._keys = [a for a, _, _ in cells]
            self._parts = [b"(%d, %d, %d)" % c for c in cells]
            self._dirty = set()
        elif dirty:
            keys, parts = self._keys, self._parts
            values, labels = self.cells, self.labels
            for a in dirty:
                v = values.get(a, 0)
                s = labels.get(a, 0) & SECRET
                i = bisect_left(keys, a)
                held = i < len(keys) and keys[i] == a
                if v or s:
                    text = b"(%d, %d, %d)" % (a, v, 1 if s else 0)
                    if held:
                        parts[i] = text
                    else:
                        keys.insert(i, a)
                        parts.insert(i, text)
                elif held:
                    del keys[i]
                    del parts[i]
            dirty.clear()
        else:
            return self._cells_repr
        self._cells_repr = _tuple_bytes(self._parts)
        return self._cells_repr


# ---------------------------------------------------------------------------
# SSA frames and TCS
# ---------------------------------------------------------------------------

# Digest text formats: each renders the bytes of a canonical tuple's
# ``repr``.  %d renders ``True`` as ``1`` where ``repr`` gives ``True``, so
# every field formatted with %d is an int.
_REGS_TEXT = b"(" + b", ".join([b"%d"] * NREGS) + b")"
_FRAME_TEXT = b"(" + _REGS_TEXT + b", %d, %d, %d)"
# pages, TCS, SSA frames, aep, version, extension state
_PLATFORM_TEXT = (b"%b, (%d, %d, %d, %d, %d), %b, %d, %d, "
                  b"(%a, %d, %d, %d, %d, %d, %d, %d, %d, %d)")
# mode, registers, taint, cells, platform, cycle, pending fault, halted
_DIGEST_TEXT = b"(%d, " + _REGS_TEXT + b", %d, %b, %b, %d, %d, %d)"


class SSAFrame:
    """One saved execution context: a full register snapshot plus the
    exit-information fields written by the hardware on async exit.

    ``canonical_repr``, the bytes of ``repr(canonical())``, is cached;
    the machine transitions that change a canonical field clear ``_repr``
    (``Machine.aex``, ``Machine.write_ssa``)."""

    __slots__ = ("regs", "taint", "valid", "vector", "_repr")

    def __init__(self, regs=None, taint=0, valid=0, vector=0):
        self.regs = list(regs) if regs is not None else [0] * NREGS
        self.taint = taint          # register label words, see SECRET
        self.valid = valid
        self.vector = vector
        self._repr: Optional[bytes] = None

    def canonical(self) -> tuple:
        return (tuple(self.regs), self.taint & SECRET_REGS, self.valid,
                self.vector)

    def canonical_repr(self) -> bytes:
        if self._repr is None:
            self._repr = _FRAME_TEXT % (*self.regs, self.taint & SECRET_REGS,
                                        self.valid, self.vector)
        return self._repr


class TCS:
    __slots__ = ("entry_point", "nssa", "ssa_base", "cssa", "busy")

    def __init__(self, entry_point: int, nssa: int, ssa_base: int,
                 cssa: int = 0, busy: bool = False):
        self.entry_point = entry_point
        self.nssa = nssa
        self.ssa_base = ssa_base
        self.cssa = cssa
        self.busy = busy


# ---------------------------------------------------------------------------
# Hardware extensions (atomicity proposals)
# ---------------------------------------------------------------------------

HW_NONE = "none"
HW_IRQ_QUOTA = "irq_quota"
HW_REENTRY_MASK = "reentry_mask"
# the (allowed cycles, window) contract the OS grants the irq-quota extension
# unless a scenario's hw_ext says otherwise
DEFAULT_IRQ_GRANT = (100, 10000)


class HwExt:
    __slots__ = ("kind", "allowed", "window", "used", "window_index",
                 "granted", "masked", "atomic", "atomic_until",
                 "deferred_vector")

    def __init__(self, kind: str = HW_NONE, allowed: int = 0, window: int = 0,
                 used: int = 0, window_index: int = 0, granted: bool = False,
                 masked: bool = False, atomic: bool = False,
                 atomic_until: int = 0, deferred_vector: int = -1):
        self.kind = kind
        # irq_quota contract (installed by the OS via grant_irq_quota)
        self.allowed = allowed
        self.window = window
        self.used = used
        self.window_index = window_index
        self.granted = granted
        # reentry_mask state
        self.masked = masked
        # the irq-quota atomic window, which only a granted quota opens
        self.atomic = atomic
        self.atomic_until = atomic_until
        self.deferred_vector = deferred_vector

    def canonical(self) -> tuple:
        return (self.kind, self.allowed, self.window, self.used,
                self.window_index, int(self.granted), int(self.masked),
                int(self.atomic), self.atomic_until, self.deferred_vector)


# ---------------------------------------------------------------------------
# Trace events
# ---------------------------------------------------------------------------
# Every hardware transition and every interpreter step appends exactly one
# event tuple: (kind, pc, a, b, c).  Field meaning per kind:
#   RETIRE      pc, rsp, 0, 0
#   STORE       pc, addr, rsp, 0          memory write by the instruction at pc
#   SP_ASSIGN   pc, new_rsp, 0, 0         rsp written by mov/load
#   CTRL        pc, target, kindcode, rsp kindcode: 0=call 1=ret
#   FAULT       pc, vector, addr, 0
#   LEAK        pc, src, dst, nbytes
#   EXIT        pc, target, taint_mask, rax   synchronous exit
#   HALT        pc, status, 0, 0
#   HW_EENTER   entry, cmd(rdi), rsi, 0
#   HW_AEX      rip, vector, valid, 0
#   HW_ERESUME  rip_resumed, 0, 0, 0
#   HW_DENIED   0, code, 0, 0             code: 0=no-free-slot 1=masked 2=resume
#   HW_FLIP     page_base, perms, 0, 0
#   HW_GRANT    allowed, window, 0, 0
#   HW_DEFER    rip, vector, 0, 0         async exit deferred by atomic section
#   ADV_SEED    0, addr, nwords, 0        public words seeded by the harness
#   HW_UNARMED  entry, cycles, used, allowed  entry window not armed: the
#                                         irq quota refused its charge

E_RETIRE = 0
E_STORE = 1
E_SP_ASSIGN = 2
E_CTRL = 3
E_FAULT = 4
E_LEAK = 5
E_EXIT = 6
E_HALT = 7
E_HW_EENTER = 8
E_HW_AEX = 9
E_HW_ERESUME = 10
E_HW_DENIED = 11
E_HW_FLIP = 12
E_HW_GRANT = 13
E_HW_DEFER = 14
E_ADV_SEED = 15
E_MEMR = 16      # pc, addr, stack_flag, 0   memory read by the instruction
E_MEMCPY = 17    # pc, dst, src, nbytes      block copy completed
E_HW_UNARMED = 18

EVENT_NAMES = [
    "retire", "store", "sp_assign", "ctrl", "fault", "leak", "exit", "halt",
    "eenter", "aex", "eresume", "denied", "flip", "grant", "defer",
    "adv_seed", "memr", "memcpy", "unarmed",
]
EVENT_IDS = {n: i for i, n in enumerate(EVENT_NAMES)}

CTRL_CALL = 0
CTRL_RET = 1

DENY_NO_FREE_SLOT = 0
DENY_REENTRY_MASKED = 1
DENY_NOTHING_TO_RESUME = 2

MODE_OS = 0
MODE_ENCLAVE = 1


# ---------------------------------------------------------------------------
# Machine
# ---------------------------------------------------------------------------

class Machine:
    """Full platform snapshot plus the hardware transition functions.

    A machine is built once per scenario run from an EnclaveImage and then
    driven by the harness; ``clone`` gives an independent copy for search
    branches.  The extension kind arms its protection at every synchronous
    entry (the hardware-managed entry window).

    ``taint`` holds the registers' label words (see ``SECRET``).
    ``influenced`` holds the origin planes (see ``ORIGINS``) of every
    labelled value that reached an address, a branch, rsp, a control
    target or an event field (see ``interp``): 0 while no payload did.  It
    is not part of the canonical state.

    ``path`` is None, or the ``interp.RspPath`` a search run records its
    path conditions over the staged rsp word into; a clone gets its own
    copy of the run's part of it.  It changes nothing the machine does.

    ``_pages`` and ``_platform`` cache parts of the digest text as bytes
    (see ``digest``).  ``_platform``, the page permissions, TCS, SSA
    frames, aep, version and extension state, is cleared through
    ``platform_changed`` by every transition that changes one of them,
    the interpreter's frame writes (``write_ssa``, ``replace_ssa``) too.
    ``_pages``, the page permissions alone, is cleared by
    ``os_set_page_perms`` only: the platform changes at every entry and
    exit, the pages almost never.  A clone, its memory and its SSA frames
    start without digest text, as a fresh machine's do; a recorded run
    from a root's `after` point starts from the text its root kept
    (``digest_text``, ``seed_digest_text``).
    """

    __slots__ = ("mode", "regs", "taint", "mem", "tcs", "ssa", "aep",
                 "sgx_version", "hw", "cycle", "trace", "entry_atomic_cycles",
                 "pending_fault", "halted", "influenced", "path",
                 "_pages", "_platform")

    def __init__(self, mem: Memory, tcs: TCS, sgx_version: int = SGX2,
                 hw: Optional[HwExt] = None, entry_atomic_cycles: int = 32):
        self.mode = MODE_OS
        self.regs = [0] * NREGS
        self.taint = 0
        self.mem = mem
        self.tcs = tcs
        self.ssa = [SSAFrame() for _ in range(tcs.nssa)]
        self.aep = 0
        self.sgx_version = sgx_version
        self.hw = hw if hw is not None else HwExt()
        self.cycle = 0
        self.trace: list[tuple] = []
        self.entry_atomic_cycles = entry_atomic_cycles
        self.pending_fault = -1     # vector awaiting the mandatory aex
        self.halted = False
        self.influenced = 0
        self.path = None
        self._pages: Optional[bytes] = None
        self._platform: Optional[bytes] = None

    # -- lifecycle ---------------------------------------------------------

    def clone(self) -> "Machine":
        """An independent copy: its own registers, memory cells, TCS, SSA
        frames, extension state, trace and view of the rsp path (see
        ``interp.RspPath.fork``).  The copy shares what no transition
        changes in place: the pages, the fetch table and the path's
        predicates.  It starts without digest text, which
        ``seed_digest_text`` can give it."""
        m = Machine.__new__(Machine)
        m.mode = self.mode
        m.regs = list(self.regs)
        m.taint = self.taint
        m.mem = self.mem.clone()
        t = self.tcs
        m.tcs = TCS(t.entry_point, t.nssa, t.ssa_base, t.cssa, t.busy)
        m.ssa = [SSAFrame(f.regs, f.taint, f.valid, f.vector)
                 for f in self.ssa]
        m.aep = self.aep
        m.sgx_version = self.sgx_version
        h = self.hw
        m.hw = HwExt(h.kind, h.allowed, h.window, h.used, h.window_index,
                     h.granted, h.masked, h.atomic, h.atomic_until,
                     h.deferred_vector)
        m.cycle = self.cycle
        m.trace = list(self.trace)
        m.entry_atomic_cycles = self.entry_atomic_cycles
        m.pending_fault = self.pending_fault
        m.halted = self.halted
        m.influenced = self.influenced
        m.path = self.path if self.path is None else self.path.fork()
        m._pages = m._platform = None
        return m

    def digest_text(self) -> Optional[tuple]:
        """The digest text this machine holds: its memory's cell keys and
        parts, the cells still to re-format, the cells bytes, and the page
        and platform bytes; None when it was never digested.  A machine in
        the same state starts from it through ``seed_digest_text``."""
        mem = self.mem
        if mem._dirty is None:
            return None
        return (tuple(mem._keys), tuple(mem._parts), frozenset(mem._dirty),
                mem._cells_repr, self._pages, self._platform)

    def seed_digest_text(self, text: tuple) -> None:
        """Take `text`, the ``digest_text`` of a machine in this machine's
        state, so that the next digest re-formats only what changed since:
        the lists and the set are copied, the bytes shared."""
        keys, parts, dirty, cells, self._pages, self._platform = text
        mem = self.mem
        mem._keys = list(keys)
        mem._parts = list(parts)
        mem._dirty = set(dirty)
        mem._cells_repr = cells

    def platform_changed(self) -> None:
        """Drop the cached digest text of the TCS, the SSA frames, aep,
        version and extension state after one of them changed."""
        self._platform = None

    def emit(self, kind: int, pc: int, a: int = 0, b: int = 0, c: int = 0):
        self.trace.append((kind, pc, a, b, c))

    # -- synchronous entry / exit -------------------------------------------

    def eenter(self, os_regs: Sequence[int], aep: int) -> None:
        """Enter through the fixed entry point.  Register state passes
        through unchanged apart from rip; nothing is scrubbed or replaced.

        Raises EntryDenied when no context slot is free or, under the
        re-entry-mask extension, when re-entry is masked."""
        if self.mode != MODE_OS:
            raise MachineError("eenter requires OS mode")
        if self.tcs.busy:
            raise MachineError("tcs busy")
        if self.tcs.cssa >= self.tcs.nssa:
            self.emit(E_HW_DENIED, 0, DENY_NO_FREE_SLOT)
            raise EntryDenied("no_free_ssa_slot")
        if (self.hw.kind == HW_REENTRY_MASK and self.hw.masked
                and self.tcs.cssa >= 1):
            self.emit(E_HW_DENIED, 0, DENY_REENTRY_MASKED)
            raise EntryDenied("reentry_masked")
        self.platform_changed()
        self.regs = list(os_regs)
        self.taint = 0
        self.regs[RIP] = self.tcs.entry_point
        self.aep = aep
        self.mode = MODE_ENCLAVE
        self.tcs.busy = True
        if self.hw.kind == HW_REENTRY_MASK:
            self.hw.masked = True
        self.emit(E_HW_EENTER, self.tcs.entry_point, self.regs[RDI] & MASK64,
                  self.regs[RSI] & MASK64)
        # hardware-armed entry window: charged against the quota; when
        # refused, the entry proceeds without atomicity protection
        if (self.hw.kind == HW_IRQ_QUOTA
                and not self.begin_atomic(self.entry_atomic_cycles)):
            self.emit(E_HW_UNARMED, self.tcs.entry_point,
                      self.entry_atomic_cycles, self.hw.used, self.hw.allowed)

    def eexit(self, target: int) -> None:
        """Leave the enclave at `target`.  The hardware does not scrub:
        whatever the runtime left in the registers is what the OS sees."""
        if self.mode != MODE_ENCLAVE:
            raise MachineError("eexit requires enclave mode")
        pc = self.regs[RIP]
        self.platform_changed()
        self.mode = MODE_OS
        self.tcs.busy = False
        self.regs[RIP] = target & MASK64
        if self.hw.kind == HW_REENTRY_MASK:
            self.hw.masked = False
        self.hw.atomic = False
        self.hw.deferred_vector = -1   # became an OS-side interrupt
        self.influenced |= self.taint >> RAX & PAYLOADS
        self.emit(E_EXIT, pc, target & MASK64,
                  self.taint & SECRET_REGS & ~(1 << RIP), self.regs[RAX])

    # -- asynchronous exit / resume, saved-frame writes ----------------------

    def aex(self, vector: int) -> bool:
        """Asynchronous exit: snapshot the context into the next SSA frame,
        scrub the live registers, and fall back to the recorded aep.

        Returns False (and records a deferral) when the enclave is inside
        an atomic window, which only a granted irq quota opens."""
        if self.mode != MODE_ENCLAVE:
            raise MachineError("aex requires enclave mode")
        if self.tcs.cssa >= self.tcs.nssa:
            raise MachineError("no reserved ssa slot")  # unreachable by construction
        self.platform_changed()
        if self.hw.atomic:
            self.hw.deferred_vector = vector
            self.emit(E_HW_DEFER, self.regs[RIP], vector)
            return False
        frame = self.ssa[self.tcs.cssa]
        frame.regs = list(self.regs)
        frame.taint = self.taint
        frame.valid = 1 if reports_to_enclave(vector, self.sgx_version) else 0
        frame.vector = vector
        frame._repr = None
        self.tcs.cssa += 1
        self.regs = list(SCRUB_VALUES)
        self.taint = 0
        self.regs[RIP] = self.aep
        self.mode = MODE_OS
        self.tcs.busy = False
        self.pending_fault = -1
        self.emit(E_HW_AEX, frame.regs[RIP], vector, frame.valid)
        return True

    def eresume(self) -> None:
        """Resume from the top SSA frame.  The restored context comes from
        the frame alone; OS register state at the call is irrelevant."""
        if self.mode != MODE_OS:
            raise MachineError("eresume requires OS mode")
        if self.tcs.cssa < 1:
            self.emit(E_HW_DENIED, 0, DENY_NOTHING_TO_RESUME)
            raise ResumeDenied()
        frame = self.ssa[self.tcs.cssa - 1]
        self.platform_changed()
        self.tcs.cssa -= 1
        self.regs = list(frame.regs)
        self.taint = frame.taint
        self.influenced |= (self.taint >> RIP | self.taint >> RSP) & PAYLOADS
        if self.path is not None and self.taint >> RIP & ORIGINS[RSP]:
            self.path.alone()       # a control target on the rsp plane
        self.mode = MODE_ENCLAVE
        self.tcs.busy = True
        self.emit(E_HW_ERESUME, self.regs[RIP])

    def write_ssa(self, field: int, value: int, word: int) -> None:
        """Write `value`, labelled `word`, to the top saved frame's
        register `field`."""
        frame = self.ssa[self.tcs.cssa - 1]
        frame.regs[field] = value & MASK64
        frame.taint = frame.taint & ~(LABELS << field) | word << field
        frame._repr = None
        self.platform_changed()

    def replace_ssa(self, frame: SSAFrame) -> None:
        """Put `frame` in place of the top saved frame."""
        self.ssa[self.tcs.cssa - 1] = frame
        self.platform_changed()

    # -- OS-side controls ----------------------------------------------------

    def os_set_page_perms(self, page_base: int, perms: int) -> None:
        if self.mode != MODE_OS:
            raise MachineError("page tables are OS-controlled")
        if not self.mem.set_perms(page_base, perms):
            raise UnknownPage(hex(page_base))
        self._pages = None
        self.platform_changed()
        self.emit(E_HW_FLIP, page_base, perms)

    def grant_irq_quota(self, allowed: int, window: int) -> None:
        if self.mode != MODE_OS:
            raise MachineError("the OS approves the quota contract")
        if self.hw.kind != HW_IRQ_QUOTA:
            raise MachineError("irq quota extension not present")
        self.platform_changed()
        self.hw.allowed = allowed
        self.hw.window = window
        self.hw.used = 0
        self.hw.window_index = 0
        self.hw.granted = True
        self.emit(E_HW_GRANT, allowed, window)

    # -- atomic-section accounting (eenter's window, the end_atomic step) ----

    def begin_atomic(self, declared_cycles: int) -> bool:
        """Request an interrupt-free window of the declared length under
        the irq-quota extension: the hardware-armed entry window, which
        `eenter` requests for `entry_atomic_cycles`.  It is charged against
        the per-window quota; a refused request returns False."""
        self.platform_changed()
        if not self.hw.granted:
            return False
        idx = self.cycle // self.hw.window if self.hw.window else 0
        if idx != self.hw.window_index:
            self.hw.window_index = idx
            self.hw.used = 0
        if self.hw.used + declared_cycles > self.hw.allowed:
            return False
        self.hw.used += declared_cycles
        self.hw.atomic = True
        self.hw.atomic_until = self.cycle + declared_cycles
        return True

    def end_atomic(self) -> Optional[int]:
        """Close the current atomic window.  Returns a deferred vector to be
        delivered now, if one accrued."""
        self.platform_changed()
        if self.hw.kind == HW_REENTRY_MASK:
            self.hw.masked = False
            return None
        self.hw.atomic = False
        vec = self.hw.deferred_vector
        self.hw.deferred_vector = -1
        return vec if vec >= 0 else None

    # -- canonical digest ----------------------------------------------------

    def canonical(self) -> tuple:
        """Canonical value of the state, and the specification of
        ``digest``.  Field order is fixed: mode, registers, register taint,
        memory cells (sorted), page permissions, TCS, SSA frames, aep,
        version, extension state, cycle, pending fault vector, halted.
        Register taint is the secret plane of the label words."""
        return (
            self.mode,
            tuple(self.regs),
            self.taint & SECRET_REGS,
            tuple(self.mem.canonical()),
            tuple((p.base, p.size, p.kind, p.perms) for p in self.mem.pages),
            (self.tcs.entry_point, self.tcs.cssa, self.tcs.nssa,
             self.tcs.ssa_base, int(self.tcs.busy)),
            tuple(f.canonical() for f in self.ssa),
            self.aep,
            self.sgx_version,
            self.hw.canonical(),
            self.cycle,
            self.pending_fault,
            int(self.halted),
        )

    def digest(self) -> str:
        """The first 16 hex digits of the SHA-256 of ``repr(canonical())``,
        whose bytes one bytes %-format renders (``_DIGEST_TEXT``) and one
        SHA-256 call hashes.  Two fields come cached as bytes: the memory
        cells (``Memory.cells_repr``, re-formatted per written cell) and
        the platform (``_platform``: the page permissions from ``_pages``,
        the TCS, the SSA frames from each frame's own cache, aep, version
        and extension state).  Mode, registers, taint, cycle, pending fault
        and halted are formatted on every call."""
        platform = self._platform
        if platform is None:
            pages = self._pages
            if pages is None:
                pages = self._pages = repr(tuple(
                    (p.base, p.size, p.kind, p.perms)
                    for p in self.mem.pages)).encode()
            tcs, hw = self.tcs, self.hw
            platform = self._platform = _PLATFORM_TEXT % (
                pages, tcs.entry_point, tcs.cssa, tcs.nssa, tcs.ssa_base,
                int(tcs.busy),
                _tuple_bytes([f.canonical_repr() for f in self.ssa]),
                self.aep, self.sgx_version, hw.kind, hw.allowed, hw.window,
                hw.used, hw.window_index, int(hw.granted), int(hw.masked),
                int(hw.atomic), hw.atomic_until, hw.deferred_vector)
        return hashlib.sha256(_DIGEST_TEXT % (
            self.mode, *self.regs, self.taint & SECRET_REGS,
            self.mem.cells_repr(), platform, self.cycle, self.pending_fault,
            int(self.halted))).hexdigest()[:16]
