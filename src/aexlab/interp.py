"""Instruction interpreter with label propagation and fault detection.

``run_steps`` is the one stepping entry: it executes instructions on a
Machine until one does not retire or a given number have run, and
``step`` is its one-instruction case.  Each instruction emits one primary
trace event (plus Leak events when secret data lands in public memory).  A
fault leaves rip at the faulting instruction and arms
``machine.pending_fault``; the only legal next hardware transition is then
an asynchronous exit of that class.  A step fetches from a table of
per-address handlers, which holds only the addresses the memory's pages
make executable, so a fetch checks no page; each program decodes into one
such table per tuple of pages over its code (see ``fetch_table``).

Each handler moves the label word of its operands (the secret taint and
every payload plane together, see ``machine.SECRET``) and checks the
payload's sinks, so one step serves both the leak detectors and the runs
that must prove they do not depend on the payload's value.

A run can also record path conditions over the staged rsp word
(``RspPath``): where the rsp plane of the label word reaches a decision,
the handler states the decision as a predicate over the word.

``complete_critical`` finishes an interrupted critical span against a
saved frame instead of live registers.  It has no semantics of its own: it
runs the span through ``step`` on a scratch context built from the frame,
and refuses any instruction outside the completable set or any step that
does not retire.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from .isa import (
    OP_MOV_RR, OP_MOV_RI, OP_LOAD, OP_STORE, OP_PUSH, OP_POP,
    OP_ADD_I, OP_SUB_I, OP_AND_I, OP_CMPJ_I, OP_CMPJ_R,
    OP_JMP, OP_CALL, OP_RET,
    OP_MEMCPY, OP_SCRUB, OP_READ_SSA, OP_WRITE_SSA, OP_EEXIT_I,
    OP_END_ATOMIC, OP_SET_FLAG, OP_CLEAR_FLAG,
    OP_HALT, OP_TRAP, OP_DECLASSIFY, OP_EMULATE_CRITICAL,
    SSA_FIELD_VALID, SSA_FIELD_VECTOR, Program, render,
)
from .machine import (
    CTRL_CALL, CTRL_RET, E_CTRL, E_FAULT, E_HALT, E_LEAK, E_MEMCPY, E_MEMR,
    E_RETIRE, E_SP_ASSIGN, E_STORE, LABELS, MASK64, MODE_ENCLAVE, NREGS,
    ORIGINS, PAYLOADS, RIP, RSP, SCRUB_VALUES, SECRET, SSAFrame, TCS,
    VEC_AC, VEC_PAGE_FAULT, Machine, Memory,
)

# Exit statuses for Halt; ABORT marks an in-enclave consistency trap
# (e.g. reading a saved frame when none exists), which poisons the thread.
ST_ABORT = 0xAB07


class InterpError(Exception):
    """Interpreter misuse or an unemulable situation: a harness/model bug."""


def _fault(m: Machine, pc: int, vector: int, addr: int) -> str:
    m.pending_fault = vector
    m.emit(E_FAULT, pc, vector, addr)
    return "fault"


def run_steps(m: Machine, program: Program, limit: int,
              after: Optional[Callable[[], None]] = None) -> tuple[int, str]:
    """Execute instructions of `program` until one does not retire or
    `limit` have run, calling `after` (if given) after each.  Returns
    (stepped, signal): the instructions executed, the one that did not
    retire included, and the last one's signal: "ok" when every one
    retired, else "fault", "exit" or "halt".  `limit` is at least 1."""
    if m.mode != MODE_ENCLAVE:
        raise InterpError("step requires enclave mode")
    if m.pending_fault >= 0:
        raise InterpError("pending fault must be delivered via aex")
    mem = m.mem
    fetch = (mem.fetch if mem.fetch_program is program
             else fetch_table(mem, program)).get
    regs = m.regs       # a handler that retires keeps the list
    for n in range(1, limit + 1):
        pc = regs[RIP]
        handler, a, b, c = fetch(pc, _UNFETCHED)
        sig = handler(m, pc, a, b, c)
        if after is not None:
            after()
        if sig != "ok":
            return n, sig
    return limit, "ok"


def step(m: Machine, program: Program) -> str:
    """Execute one instruction.  Returns its signal for the harness:
    "ok", "fault", "exit", "halt"."""
    return run_steps(m, program, 1)[1]


# fetch tables kept per program; a runtime image's code page has at most
# one per permission value
FETCH_TABLES_PER_PROGRAM = 8


def fetch_table(mem: Memory, program: Program) -> dict:
    """Give `mem` the table `step` fetches from: pc -> (handler, a, b, c)
    for each instruction of `program` at an address that `mem`'s pages
    make private and executable.  Only the pages over the code decide it,
    so the program keeps one table per such page tuple and a fresh machine
    of the same image reuses it; `mem` and its clones hold it until
    ``Memory.set_perms``."""
    lo, hi = program.base, program.end
    key = tuple(p for p in mem.pages if p.base < hi and lo < p.base + p.size)
    tables = program.fetch_tables
    table = tables.get(key)
    if table is None:
        if len(tables) >= FETCH_TABLES_PER_PROGRAM:
            del tables[next(iter(tables))]
        table = tables[key] = {pc: _decode_one(ins)
                               for pc, ins in program.code.items()
                               if mem.executable(pc)}
    mem.fetch = table
    mem.fetch_program = program
    return table


# ---------------------------------------------------------------------------
# Pre-decoded dispatch
# ---------------------------------------------------------------------------
# Each address of a fetch table decodes once to (handler, a, b, c);
# `run_steps` calls the handler with the machine, the pc and the decoded
# operands, and an address the table lacks gets the fetch fault's entry.
# Decoding resolves what does not depend on machine state: the handler of
# the opcode, the relation of a compare-and-jump, the value set_flag and
# clear_flag write, and scrub's tuple of registers and the label mask
# that keeps every other register's word.  emulate_critical
# completes against the program it was fetched from, ``mem.fetch_program``,
# and asks its ``crit_pcs`` whether the saved pc is inside a span; a table
# holds no reference to the program, since the program holds the table.
# A handler that retires sets rip, counts exactly one cycle (so the harness
# can end a stretch at an atomic window's end), keeps ``m.regs`` (the list,
# not its values) and returns "ok"; any other signal ends the `run_steps`
# call, as does its `limit`.
#
# Labels: data moves copy the label word (mov, the value of
# load/store/push/pop, memcpy contents, read_ssa and write_ssa, and in
# machine.py the SSA save and restore); arithmetic keeps it; immediate
# writes, scrub, call's return cell and set_flag clear it; declassify
# clears the secret bit only.  A value on a staged register's origin plane
# (``ORIGINS``, one plane per register) that reaches a sink ORs its origin
# planes into ``Machine.influenced``:
#   - a memory address, memcpy's dst/src/len included;
#   - a compare-and-jump operand;
#   - rsp;
#   - a control target: ret of a labelled cell, a labelled saved rip on
#     emulate_critical or on eresume (machine.py);
#   - an event field: the exit's rax (machine.py).
# A handler checks its sinks before it can fault.  Every other effect of
# an instruction is a function of unlabelled values, so a run that ends
# without ``influenced`` emits the same trace, status and step count under
# any staged values.  Labels of different planes never mix (a word is
# always one source register's word), so the same holds per plane: staged
# registers whose planes are outside ``influenced`` can take any value.  The
# handlers of frequent instructions test the planes a sink saw before they
# OR them in: most steps see none, and the test is cheaper than a store.
#
# ``_KEEP[r]`` keeps every label of a register mask but register r's: a
# positive mask, so clearing a word costs no more than the mask's labels.
_ALL_LABELS = (1 << (LABELS << NREGS).bit_length()) - 1
_KEEP = tuple(_ALL_LABELS & ~(LABELS << r) for r in range(NREGS))

# The rsp plane.  A value on the staged rsp's origin plane (``ORIGINS[RSP]``)
# is that word w plus a constant d: the moves keep the form, and so do
# add and sub.  ``and`` with a mask of at most 32 bits leaves a value
# that is a constant wherever its masked bits are, so it clears the plane;
# a wider mask keeps the form where the bits it clears are.  pop rsp
# leaves rsp at the popped address + 8, so it keeps the plane.  Every
# staged entry sinks rsp, so the plane is always influenced and
# noninterference never speaks of it.
_RSP_PLANE = ORIGINS[RSP]
_KEEP_POPPED_RSP = _KEEP[RSP] | _RSP_PLANE << RSP


class RspPath:
    """The path conditions over the staged rsp word of one search branch's
    runs, as predicates over a word w.  A run of the branch at another word
    that satisfies them all takes the same decisions and gives the same
    status, steps, boundaries and verdicts, and a trace whose fields differ
    from this one's only by the words' difference.

    Where a value on the rsp plane reaches a decision, the handler adds one
    predicate to ``preds``: a memory address (the kind and permissions of
    its page, and, for a stack access, the monitor's test of it), a
    compare-and-jump operand, an ``and`` mask.  A control target on the
    plane, a block copy with an operand on it, and a load of a cell this
    run did not write at the same offset earlier admit no other word: they
    add ``ALONE``.  So does an address on the plane that hit a cell some
    access at a fixed address touched (``offsets`` and ``fixed``); only
    fixed accesses after the run's first store on the plane can meet such
    a cell, so only those are kept.

    ``preds``, ``offsets`` and ``fixed`` are shared by every run of the
    branch; ``written``, the offsets stored on the plane so far (None
    before the first), belongs to one run: ``fork`` gives a run its own
    view with a copy of them.  The path a branch holds records no run, so
    a view forked from it starts with none."""

    __slots__ = ("word", "preds", "offsets", "fixed", "written")

    ALONE = ("alone",)

    def __init__(self, word: int):
        self.word = word
        self.preds: set = set()
        self.offsets: set = set()
        self.fixed: set = set()
        self.written: "set | None" = None

    def fork(self) -> "RspPath":
        path = RspPath.__new__(RspPath)
        path.word = self.word
        path.preds = self.preds
        path.offsets = self.offsets
        path.fixed = self.fixed
        written = self.written
        path.written = None if written is None else set(written)
        return path

    def alone(self) -> None:
        """Admit the recording word alone."""
        self.preds.add(self.ALONE)

    def admits(self, word: int, mem: Memory, stack_test) -> bool:
        """Whether a run at `word` takes the recorded path: `word` is the
        recording word, or no decision admitted it alone, its addresses on
        the plane stay off every cell a fixed address touched, and it
        satisfies every predicate.  `mem` has the pages of every run, and
        `stack_test(pc, sp)` is the monitor's test of a stack access at pc
        through stack pointer sp."""
        w = self.word
        if word == w:
            return True
        if self.ALONE in self.preds:
            return False
        fixed = self.fixed
        for d in self.offsets:
            if (w + d) & MASK64 in fixed or (word + d) & MASK64 in fixed:
                return False
        for pred in self.preds:
            kind = pred[0]
            if kind == "page":
                _, d, key = pred
                page = mem.page_at((word + d) & MASK64)
                if (page and (page.kind, page.perms)) != key:
                    return False
            elif kind == "sp":
                _, pc, d = pred
                if (stack_test(pc, (word + d) & MASK64)
                        != stack_test(pc, (w + d) & MASK64)):
                    return False
            elif kind == "cmp":
                _, holds, x_on, x, y_on, y, taken = pred
                if holds((word + x) & MASK64 if x_on else x,
                         (word + y) & MASK64 if y_on else y) != taken:
                    return False
            elif (word + pred[1]) & pred[2] != pred[3]:     # "bits"
                return False
        return True

    def _address(self, mem: Memory, addr: int, pc: int, sp: int) -> int:
        """Record an address on the plane; return its offset."""
        d = (addr - self.word) & MASK64
        page = mem.page_at(addr)
        self.offsets.add(d)
        self.preds.add(("page", d, page and (page.kind, page.perms)))
        if pc >= 0:
            self.preds.add(("sp", pc, (sp - self.word) & MASK64))
        return d

    def load(self, mem: Memory, addr: int, derived: int, pc: int = -1,
             sp: int = 0) -> None:
        """A read of the cell at `addr`, an address on the plane when
        `derived`; `pc` >= 0 makes it a stack access the monitor tests
        with stack pointer `sp`."""
        if not derived:
            if self.written is not None:
                self.fixed.add(addr)
            return
        d = self._address(mem, addr, pc, sp)
        if mem.readable(addr) and not self.stored(d):
            self.alone()

    def stored(self, d: int) -> bool:
        """Whether this run wrote the cell at offset d earlier: a cell it
        did not write holds what the start state holds there, which
        another word's run does not read."""
        return self.written is not None and d in self.written

    def store(self, mem: Memory, addr: int, derived: int, pc: int = -1,
              sp: int = 0) -> None:
        """A write of the cell at `addr`, as in ``load``."""
        if not derived:
            if self.written is not None:
                self.fixed.add(addr)
            return
        d = self._address(mem, addr, pc, sp)
        if mem.writable(addr):
            if self.written is None:
                self.written = set()
            self.written.add(d)

    def compare(self, holds, x: int, x_on: int, y: int, y_on: int,
                taken: bool) -> None:
        """A compare-and-jump of `x` and `y` (each on the plane when its
        flag is set) that went `taken`."""
        w = self.word
        self.preds.add(("cmp", holds, bool(x_on), (x - w) & MASK64 if x_on
                        else x, bool(y_on), (y - w) & MASK64 if y_on else y,
                        taken))

    def mask(self, value: int, mask: int) -> None:
        """``and`` of `value`, on the plane, with `mask`: the bits that
        decide the result's form stay as they are."""
        bits = mask if mask.bit_count() <= 32 else ~mask & MASK64
        self.preds.add(("bits", (value - self.word) & MASK64, bits,
                        value & bits))


def _put(m: Machine, r: int, w: int) -> None:
    """Give register r the label word w.  rip keeps no payload label (every
    instruction rewrites it); a payload-labelled rsp is a sink."""
    if w & PAYLOADS:
        if r == RSP:
            m.influenced |= w & PAYLOADS
        elif r == RIP:
            w &= SECRET
    m.taint = m.taint & _KEEP[r] | w << r


def _mov_rr(m, pc, a, b, c):
    regs = m.regs
    regs[a] = regs[b]
    _put(m, a, m.taint >> b & LABELS)
    m.trace.append((E_SP_ASSIGN if a == RSP else E_RETIRE, pc, regs[RSP],
                    0, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _mov_ri(m, pc, a, b, c):
    regs = m.regs
    regs[a] = b
    m.taint &= _KEEP[a]
    m.trace.append((E_SP_ASSIGN if a == RSP else E_RETIRE, pc, regs[RSP],
                    0, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _add_i(m, pc, a, b, c):
    regs = m.regs
    regs[a] = (regs[a] + b) & MASK64
    m.trace.append((E_RETIRE, pc, regs[RSP], 0, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _sub_i(m, pc, a, b, c):
    regs = m.regs
    regs[a] = (regs[a] - b) & MASK64
    m.trace.append((E_RETIRE, pc, regs[RSP], 0, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _and_i(m, pc, a, b, c):
    regs = m.regs
    if m.taint >> a & _RSP_PLANE:
        if m.path is not None:
            m.path.mask(regs[a], b)
        if b.bit_count() <= 32:
            m.taint &= ~(_RSP_PLANE << a)
    regs[a] = regs[a] & b
    m.trace.append((E_RETIRE, pc, regs[RSP], 0, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _load(m, pc, a, b, c):
    sunk = m.taint >> b & PAYLOADS
    if sunk:
        m.influenced |= sunk
    regs = m.regs
    mem = m.mem
    addr = (regs[b] + c) & MASK64
    if m.path is not None:
        m.path.load(mem, addr, sunk & _RSP_PLANE,
                    pc if b == RSP and a != RSP else -1, addr)
    if not mem.readable(addr):
        return _fault(m, pc, VEC_PAGE_FAULT, addr)
    regs[a], w = mem.read(addr)
    _put(m, a, w)
    if a == RSP:
        m.trace.append((E_SP_ASSIGN, pc, regs[RSP], 0, 0))
    else:
        m.trace.append((E_MEMR, pc, addr, 1 if b == RSP else 0, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _store(m, pc, a, b, c):
    sunk = m.taint >> a & PAYLOADS
    if sunk:
        m.influenced |= sunk
    regs = m.regs
    mem = m.mem
    addr = (regs[a] + b) & MASK64
    if m.path is not None:
        m.path.store(mem, addr, sunk & _RSP_PLANE, pc if a == RSP else -1,
                     addr)
    if not mem.writable(addr):
        return _fault(m, pc, VEC_PAGE_FAULT, addr)
    w = m.taint >> c & LABELS
    mem.write(addr, regs[c], w)
    m.trace.append((E_STORE, pc, addr, regs[RSP], 1 if a == RSP else 0))
    if w & SECRET and mem.is_public(addr):
        m.trace.append((E_LEAK, pc, 0, addr, 8))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _push(m, pc, a, b, c):
    regs = m.regs
    mem = m.mem
    addr = (regs[RSP] - 8) & MASK64
    if m.path is not None:
        m.path.store(mem, addr, m.taint >> RSP & _RSP_PLANE, pc, addr)
    if not mem.writable(addr):
        return _fault(m, pc, VEC_PAGE_FAULT, addr)
    w = m.taint >> a & LABELS
    mem.write(addr, regs[a], w)
    regs[RSP] = addr
    m.trace.append((E_STORE, pc, addr, addr, 1))
    if w & SECRET and mem.is_public(addr):
        m.trace.append((E_LEAK, pc, 0, addr, 8))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _pop(m, pc, a, b, c):
    regs = m.regs
    mem = m.mem
    addr = regs[RSP]
    if m.path is not None:
        m.path.load(mem, addr, m.taint >> RSP & _RSP_PLANE,
                    pc if a != RSP else -1, addr)
    if not mem.readable(addr):
        return _fault(m, pc, VEC_PAGE_FAULT, addr)
    regs[a], w = mem.read(addr)
    regs[RSP] = (addr + 8) & MASK64
    if a == RSP:
        # pop rsp leaves rsp at addr + 8, whatever the popped word was
        m.taint &= _KEEP_POPPED_RSP
        m.trace.append((E_SP_ASSIGN, pc, regs[RSP], 0, 0))
    else:
        _put(m, a, w)
        m.trace.append((E_MEMR, pc, addr, 1, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _cmpj_i(m, pc, a, b, c):
    sunk = m.taint >> a & PAYLOADS
    regs = m.regs
    holds, target = c
    taken = holds(regs[a], b)
    if sunk:
        m.influenced |= sunk
        if sunk & _RSP_PLANE and m.path is not None:
            m.path.compare(holds, regs[a], 1, b, 0, taken)
    m.trace.append((E_RETIRE, pc, regs[RSP], 0, 0))
    regs[RIP] = target if taken else pc + 1
    m.cycle += 1
    return "ok"


def _cmpj_r(m, pc, a, b, c):
    sunk = (m.taint >> a | m.taint >> b) & PAYLOADS
    regs = m.regs
    holds, target = c
    taken = holds(regs[a], regs[b])
    if sunk:
        m.influenced |= sunk
        if sunk & _RSP_PLANE and m.path is not None:
            m.path.compare(holds, regs[a], m.taint >> a & _RSP_PLANE,
                           regs[b], m.taint >> b & _RSP_PLANE, taken)
    m.trace.append((E_RETIRE, pc, regs[RSP], 0, 0))
    regs[RIP] = target if taken else pc + 1
    m.cycle += 1
    return "ok"


def _jmp(m, pc, a, b, c):
    regs = m.regs
    m.trace.append((E_RETIRE, pc, regs[RSP], 0, 0))
    regs[RIP] = a
    m.cycle += 1
    return "ok"


def _call(m, pc, a, b, c):
    regs = m.regs
    mem = m.mem
    addr = (regs[RSP] - 8) & MASK64
    if m.path is not None:
        m.path.store(mem, addr, m.taint >> RSP & _RSP_PLANE, pc, addr)
    if not mem.writable(addr):
        return _fault(m, pc, VEC_PAGE_FAULT, addr)
    mem.write(addr, pc + 1, 0)
    regs[RSP] = addr
    m.trace.append((E_CTRL, pc, a, CTRL_CALL, addr))
    regs[RIP] = a
    m.cycle += 1
    return "ok"


def _ret(m, pc, a, b, c):
    regs = m.regs
    mem = m.mem
    addr = regs[RSP]
    target, w = mem.read(addr)
    sunk = w & PAYLOADS
    if sunk:
        m.influenced |= sunk
    if m.path is not None:
        m.path.load(mem, addr, m.taint >> RSP & _RSP_PLANE, pc,
                    (addr + 8) & MASK64)
        if sunk & _RSP_PLANE:
            m.path.alone()
    if not mem.readable(addr):
        return _fault(m, pc, VEC_PAGE_FAULT, addr)
    regs[RSP] = (addr + 8) & MASK64
    m.trace.append((E_CTRL, pc, target, CTRL_RET, regs[RSP]))
    regs[RIP] = target
    m.cycle += 1
    return "ok"


def _memcpy(m, pc, a, b, c):
    """Copy regs[c] bytes from regs[b] to regs[a]: word-granular, ascending,
    not atomic: a permission fault midway leaves the already-copied prefix
    in place, labels included."""
    t = m.taint
    sunk = (t >> a | t >> b | t >> c) & PAYLOADS
    if sunk:
        m.influenced |= sunk
    dst, src, nbytes = m.regs[a], m.regs[b], m.regs[c]
    path = m.path
    if path is not None:
        if sunk & _RSP_PLANE:
            path.alone()
        elif path.written is not None:
            path.fixed.update(x & MASK64 for i in range(0, nbytes, 8)
                              for x in (src + i, dst + i))
    if dst % 8 or src % 8 or nbytes % 8:
        return _fault(m, pc, VEC_AC, dst | src | nbytes)
    mem = m.mem
    run_len = 0
    run_src = run_dst = 0

    def flush_run():
        nonlocal run_len
        if run_len:
            m.emit(E_LEAK, pc, run_src, run_dst, run_len * 8)
            run_len = 0

    for i in range(nbytes // 8):
        s = (src + 8 * i) & MASK64
        d = (dst + 8 * i) & MASK64
        if not mem.readable(s):
            flush_run()
            return _fault(m, pc, VEC_PAGE_FAULT, s)
        if not mem.writable(d):
            flush_run()
            return _fault(m, pc, VEC_PAGE_FAULT, d)
        val, w = mem.read(s)
        mem.write(d, val, w)
        if w & SECRET and mem.is_public(d):
            if run_len == 0:
                run_src, run_dst = s, d
            run_len += 1
        else:
            flush_run()
    flush_run()
    m.emit(E_MEMCPY, pc, dst, src, nbytes)
    m.regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _scrub(m, pc, a, b, c):
    """`a` is the tuple of the scrubbed registers, `b` the label mask that
    keeps every other register's word."""
    regs = m.regs
    for r in a:
        regs[r] = SCRUB_VALUES[r]
    m.taint &= b
    m.trace.append((E_RETIRE, pc, regs[RSP], 0, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _abort(m, pc) -> str:
    m.halted = True
    m.trace.append((E_HALT, pc, ST_ABORT, 0, 0))
    return "halt"


def _read_ssa(m, pc, a, b, c):
    if m.tcs.cssa < 1:
        return _abort(m, pc)
    regs = m.regs
    val, w = _frame_field(m.ssa[m.tcs.cssa - 1], b)
    regs[a] = val
    _put(m, a, w)
    if a == RSP:
        m.trace.append((E_SP_ASSIGN, pc, regs[RSP], 0, 0))
    else:
        m.trace.append((E_RETIRE, pc, regs[RSP], 0, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _write_ssa(m, pc, a, b, c):
    if m.tcs.cssa < 1:
        return _abort(m, pc)
    if a in (SSA_FIELD_VALID, SSA_FIELD_VECTOR):
        raise InterpError("exit information is hardware-owned")
    regs = m.regs
    m.write_ssa(a, regs[b], m.taint >> b & LABELS)
    m.trace.append((E_RETIRE, pc, regs[RSP], 0, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _eexit_i(m, pc, a, b, c):
    m.cycle += 1
    m.eexit(a)
    return "exit"


def _end_atomic(m, pc, a, b, c):
    regs = m.regs
    deferred = m.end_atomic()
    m.trace.append((E_RETIRE, pc, regs[RSP], 0, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    if deferred is not None:
        m.pending_fault = deferred
        return "fault"
    return "ok"


def _set_flag(m, pc, a, b, c):
    """set_flag / clear_flag: `b` is the value written (1 or 0)."""
    mem = m.mem
    if m.path is not None:
        m.path.store(mem, a, 0)
    if not mem.writable(a):
        return _fault(m, pc, VEC_PAGE_FAULT, a)
    mem.write(a, b, 0)
    m.trace.append((E_STORE, pc, a, m.regs[RSP], 0))
    m.regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _halt(m, pc, a, b, c):
    m.halted = True
    m.trace.append((E_HALT, pc, a, 0, 0))
    return "halt"


def _trap(m, pc, a, b, c):
    return _fault(m, pc, a, pc)


def _declassify(m, pc, a, b, c):
    regs = m.regs
    m.taint &= ~(SECRET << a)
    m.trace.append((E_RETIRE, pc, regs[RSP], 0, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _emulate_critical(m, pc, a, b, c):
    """Complete the top saved frame's critical span against the program
    `run_steps` just fetched this instruction from
    (``mem.fetch_program``)."""
    cssa = m.tcs.cssa
    if cssa < 1:
        return _abort(m, pc)
    frame = m.ssa[cssa - 1]
    saved = frame.taint >> RIP
    m.influenced |= saved & PAYLOADS
    if m.path is not None and saved & _RSP_PLANE:
        m.path.alone()
    # classify first: contexts interrupted outside the registered spans
    # are already safe and pass through unchanged
    program = m.mem.fetch_program
    if frame.regs[RIP] in program.crit_pcs:
        m.replace_ssa(complete_critical(m, program, frame))
    regs = m.regs
    m.trace.append((E_RETIRE, pc, regs[RSP], 0, 0))
    regs[RIP] = pc + 1
    m.cycle += 1
    return "ok"


def _fetch_fault(m, pc, a, b, c):
    """No executable instruction at pc."""
    return _fault(m, pc, VEC_PAGE_FAULT, pc)


_UNFETCHED = (_fetch_fault, 0, 0, 0)


def _undefined(m, pc, a, b, c):
    """`a` is the undecodable instruction."""
    raise InterpError(f"cannot interpret {render(a)} at {pc:#x}")


# unsigned 64-bit relations by code; values are already in [0, 2**64)
_RELATIONS = (operator.eq, operator.ne, operator.lt, operator.le,
              operator.gt, operator.ge)

_HANDLERS = {
    OP_MOV_RR: _mov_rr, OP_MOV_RI: _mov_ri,
    OP_ADD_I: _add_i, OP_SUB_I: _sub_i, OP_AND_I: _and_i,
    OP_LOAD: _load, OP_STORE: _store, OP_PUSH: _push, OP_POP: _pop,
    OP_JMP: _jmp, OP_CALL: _call, OP_RET: _ret,
    OP_MEMCPY: _memcpy,
    OP_READ_SSA: _read_ssa, OP_WRITE_SSA: _write_ssa,
    OP_EEXIT_I: _eexit_i, OP_END_ATOMIC: _end_atomic,
    OP_HALT: _halt, OP_TRAP: _trap, OP_DECLASSIFY: _declassify,
    OP_EMULATE_CRITICAL: _emulate_critical,
}


def _decode_one(ins: tuple) -> tuple:
    op, a, b, c = ins
    if op == OP_CMPJ_I or op == OP_CMPJ_R:
        rel, target = c
        return (_cmpj_i if op == OP_CMPJ_I else _cmpj_r, a, b,
                (_RELATIONS[rel], target))
    if op == OP_SET_FLAG or op == OP_CLEAR_FLAG:
        return (_set_flag, a, 1 if op == OP_SET_FLAG else 0, c)
    if op == OP_SCRUB:
        return (_scrub, tuple(r for r in range(NREGS) if a >> r & 1),
                _ALL_LABELS & ~(a * LABELS), c)
    handler = _HANDLERS.get(op)
    if handler is None:
        return (_undefined, ins, 0, 0)
    return (handler, a, b, c)


def _frame_field(frame: SSAFrame, field: int) -> tuple[int, int]:
    """A saved field's value and label word: exit information has none."""
    if field == SSA_FIELD_VALID:
        return frame.valid, 0
    if field == SSA_FIELD_VECTOR:
        return frame.vector, 0
    return frame.regs[field], frame.taint >> field & LABELS


# ---------------------------------------------------------------------------
# Critical-span completion against a saved frame
# ---------------------------------------------------------------------------

class UnknownCriticalRange(Exception):
    """The interrupted address is not covered by the range table: the table
    is incomplete, which is a modeling bug that must surface loudly."""


# opcodes a critical span may execute during completion; anything else
# (a call, an exit, atomicity, a frame write, a block copy) is a modeling bug
_COMPLETABLE = frozenset({
    OP_MOV_RR, OP_MOV_RI, OP_ADD_I, OP_SUB_I, OP_AND_I, OP_LOAD, OP_STORE,
    OP_PUSH, OP_POP, OP_SCRUB, OP_CMPJ_I, OP_CMPJ_R, OP_JMP, OP_RET,
    OP_SET_FLAG, OP_CLEAR_FLAG, OP_READ_SSA,
})
MAX_COMPLETION_STEPS = 10000


def complete_critical(m: Machine, program: Program,
                      frame: SSAFrame) -> SSAFrame:
    """Return the frame that native execution would have produced had the
    thread run from the interrupted address to the end of its critical span
    before the asynchronous exit happened.

    The span runs through ``step`` on a scratch context: the frame's
    registers over machine memory, one SSA level down, so ``read_ssa`` sees
    the frame beneath.  Register effects land in the returned copy, memory
    effects in machine memory (critical spans only write private cells the
    interrupted thread owns); the scratch trace and cycles are dropped.  An
    interrupted address at a span boundary means there is nothing to
    finish: identity.  Anything native execution would not retire with
    "ok" (a fault, a halt) raises InterpError.
    """
    pc = frame.regs[RIP]
    boundary = any(pc == hi for _, hi in program.crit_ranges.values())
    if pc not in program.crit_pcs and not boundary:
        raise UnknownCriticalRange(hex(pc))

    tcs = m.tcs
    ctx = Machine(m.mem, TCS(tcs.entry_point, tcs.nssa, tcs.ssa_base,
                             tcs.cssa - 1), m.sgx_version)
    ctx.ssa = m.ssa
    ctx.mode = MODE_ENCLAVE
    ctx.regs = list(frame.regs)
    ctx.taint = frame.taint
    ctx.path = m.path
    steps = 0
    while pc in program.crit_pcs:
        if steps >= MAX_COMPLETION_STEPS:
            raise InterpError("critical completion did not terminate")
        steps += 1
        ins = program.code.get(pc)
        if ins is None:
            raise UnknownCriticalRange(hex(pc))
        if ins[0] == OP_EEXIT_I:
            break  # the span ends by leaving the enclave; stop short of it
        if ins[0] not in _COMPLETABLE:
            raise InterpError("instruction not completable in a critical "
                              f"span: {render(ins)}")
        signal = step(ctx, program)
        if signal != "ok":
            raise InterpError(f"critical completion: {render(ins)} at "
                              f"{pc:#x} gave {signal!r}")
        pc = ctx.regs[RIP]
    m.influenced |= ctx.influenced
    return SSAFrame(ctx.regs, ctx.taint, frame.valid, frame.vector)
