"""Tiny abstract instruction set plus its textual assembly format.

Programs are written one instruction per line with `label:` prefixes and
`;` comments, assembled to an immutable address->instruction map.  Each
instruction occupies one address unit, so `rip + 1` is the next
instruction.  Immediates are `$`-prefixed literals or symbols; registers
are bare names.  Two pseudo-directives attach metadata used elsewhere:

    .window start NAME / .window end NAME   untrusted-stack-pointer spans
    .crit start NAME   / .crit end NAME     emulation-covered critical spans
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .machine import MASK64, REG_IDS, REG_NAMES

# Opcodes ------------------------------------------------------------------

(
    OP_MOV_RR, OP_MOV_RI, OP_LOAD, OP_STORE, OP_PUSH, OP_POP,
    OP_ADD_I, OP_SUB_I, OP_AND_I, OP_CMPJ_I, OP_CMPJ_R,
    OP_JMP, OP_JMP_REG, OP_CALL, OP_RET,
    OP_MEMCPY, OP_SCRUB, OP_READ_SSA, OP_WRITE_SSA, OP_EEXIT_R, OP_EEXIT_I,
    OP_BEGIN_ATOMIC, OP_END_ATOMIC, OP_SET_FLAG, OP_CLEAR_FLAG,
    OP_HALT, OP_TRAP, OP_DECLASSIFY, OP_EMULATE_CRITICAL,
) = range(29)

OP_NAMES = [
    "mov_rr", "mov_ri", "load", "store", "push", "pop",
    "add", "sub", "and", "cmpj_i", "cmpj_r",
    "jmp", "jmpreg", "call", "ret",
    "memcpy", "scrub", "read_ssa", "write_ssa", "eexit_r", "eexit_i",
    "begin_atomic", "end_atomic", "set_flag", "clear_flag",
    "halt", "trap", "declassify", "emulate_critical",
]

# SSA fields addressable by read_ssa/write_ssa: any register name plus the
# exit-information fields.
SSA_FIELD_VALID = 18
SSA_FIELD_VECTOR = 19
SSA_FIELD_IDS = dict(REG_IDS)
SSA_FIELD_IDS["exitinfo_valid"] = SSA_FIELD_VALID
SSA_FIELD_IDS["exitinfo_vector"] = SSA_FIELD_VECTOR
SSA_FIELD_NAMES = REG_NAMES + ["exitinfo_valid", "exitinfo_vector"]

RELATIONS = {"eq": 0, "ne": 1, "lt": 2, "le": 3, "gt": 4, "ge": 5}
REL_NAMES = {v: k for k, v in RELATIONS.items()}

# An Instruction is a plain tuple (op, a, b, c) with operand meaning per op:
#   mov_rr   dst, src
#   mov_ri   dst, imm
#   load     dst, base, off        dst := mem[base+off]
#   store    base, off, src        mem[base+off] := src
#   push src / pop dst
#   add/sub/and  reg, imm
#   cmpj_i   reg, imm, (rel, target)
#   cmpj_r   reg, reg2, (rel, target)
#   jmp      target
#   jmpreg   reg
#   call     target
#   ret
#   memcpy   dst_reg, src_reg, len_reg
#   scrub    regmask
#   read_ssa dst, field            frame index is cssa-1
#   write_ssa field, src
#   eexit_r  reg / eexit_i imm
#   begin_atomic declared_cycles   (grants into rax: 1 ok, 0 denied)
#   end_atomic
#   set_flag / clear_flag  td_offset
#   halt     status
#   trap     vector                a deliberately faulting instruction
#   declassify reg                 marshaling: declared-public output
#   emulate_critical               complete an interrupted critical span
Instruction = tuple


class AsmError(Exception):
    pass


class DuplicateLabel(AsmError):
    pass


class UnresolvedLabel(AsmError):
    pass


class CodeOverflow(AsmError):
    pass


@dataclass
class Program:
    """Assembled program: immutable once built."""

    base: int
    code: dict[int, Instruction]
    labels: dict[str, int]
    windows: dict[str, tuple[int, int]] = field(default_factory=dict)
    crit_ranges: dict[str, tuple[int, int]] = field(default_factory=dict)
    source: tuple[str, ...] = ()
    # the interpreter's pre-decoded fetch tables, one per tuple of pages
    # over the code, filled on first step
    fetch_tables: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    @property
    def end(self) -> int:
        return self.base + len(self.code)

    def label_of(self, addr: int) -> Optional[str]:
        for name, a in self.labels.items():
            if a == addr:
                return name
        return None


def _parse_imm(tok: str, symbols: dict[str, int], labels: dict[str, int],
               lineno: int) -> int:
    body = tok[1:]
    neg = body.startswith("-")
    if neg:
        body = body[1:]
    if body.startswith("0x") or body.startswith("0X"):
        val = int(body, 16)
    elif body.isdigit():
        val = int(body)
    else:
        if body in symbols:
            val = symbols[body]
        elif body in labels:
            val = labels[body]
        else:
            raise UnresolvedLabel(f"line {lineno}: unknown symbol {body!r}")
        if neg:
            raise AsmError(f"line {lineno}: negative symbol ref")
        return val & MASK64
    return (-val if neg else val) & MASK64


def _reg(tok: str, lineno: int) -> int:
    tok = tok.strip()
    if tok not in REG_IDS:
        raise AsmError(f"line {lineno}: not a register: {tok!r}")
    return REG_IDS[tok]


def _split_ops(rest: str) -> list[str]:
    return [t.strip() for t in rest.split(",")] if rest.strip() else []


def _parse_mem(tok: str, symbols, labels, lineno) -> tuple[int, int]:
    if not (tok.startswith("[") and tok.endswith("]")):
        raise AsmError(f"line {lineno}: expected [reg+off]: {tok!r}")
    body = tok[1:-1].strip()
    for sep in ("+", "-"):
        idx = body.find(sep)
        if idx > 0:
            base = _reg(body[:idx], lineno)
            off_tok = body[idx + 1:].strip().lstrip("$")
            off = _parse_imm("$" + off_tok, symbols, labels, lineno)
            if sep == "-":
                off = (-off) & MASK64
            return base, off
    return _reg(body, lineno), 0


def assemble(text: str, base: int, symbols: Optional[dict[str, int]] = None,
             max_len: int = 4096) -> Program:
    """Two-pass assembly.  Label definitions resolve identically whether a
    use precedes or follows them."""
    symbols = dict(symbols or {})
    lines = text.splitlines()

    # pass 1: addresses for labels and directive spans
    labels: dict[str, int] = {}
    marks: list[tuple[str, str, str, int, int]] = []  # (dir, which, name, addr, lineno)
    addr = base
    stripped: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split(";", 1)[0].strip()
        while line and line.split()[0].endswith(":"):
            head = line.split()[0][:-1]
            if not head.isidentifier():
                raise AsmError(f"line {lineno}: bad label {head!r}")
            if head in labels:
                raise DuplicateLabel(f"line {lineno}: duplicate label {head!r}")
            labels[head] = addr
            line = line.split(None, 1)[1] if len(line.split(None, 1)) > 1 else ""
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            if len(parts) != 3 or parts[0] not in (".window", ".crit") or \
                    parts[1] not in ("start", "end"):
                raise AsmError(f"line {lineno}: bad directive {line!r}")
            marks.append((parts[0], parts[1], parts[2], addr, lineno))
            continue
        stripped.append((lineno, line))
        addr += 1
    if addr - base > max_len:
        raise CodeOverflow(f"program length {addr - base} exceeds {max_len}")

    spans: dict[str, dict[str, tuple[int, int]]] = {".window": {}, ".crit": {}}
    open_marks: dict[tuple[str, str], int] = {}
    for d, which, name, a, lineno in marks:
        if which == "start":
            if (d, name) in open_marks:
                raise AsmError(f"line {lineno}: span {name!r} reopened")
            open_marks[(d, name)] = a
        else:
            if (d, name) not in open_marks:
                raise AsmError(f"line {lineno}: span {name!r} not open")
            spans[d][name] = (open_marks.pop((d, name)), a)
    if open_marks:
        raise AsmError(f"unclosed spans: {sorted(open_marks)}")

    # pass 2: encode
    code: dict[int, Instruction] = {}
    addr = base
    for lineno, line in stripped:
        mnem, _, rest = line.partition(" ")
        ops = _split_ops(rest)
        ins = _encode(mnem, ops, symbols, labels, lineno)
        code[addr] = ins
        addr += 1

    return Program(base=base, code=code, labels=labels,
                   windows=spans[".window"], crit_ranges=spans[".crit"],
                   source=tuple(lines))


def _encode(mnem: str, ops: list[str], symbols, labels, lineno) -> Instruction:
    def imm(tok):
        if not tok.startswith("$"):
            raise AsmError(f"line {lineno}: expected immediate, got {tok!r}")
        return _parse_imm(tok, symbols, labels, lineno)

    if mnem == "mov":
        if len(ops) != 2:
            raise AsmError(f"line {lineno}: mov takes 2 operands")
        if ops[1].startswith("$"):
            return (OP_MOV_RI, _reg(ops[0], lineno), imm(ops[1]), 0)
        return (OP_MOV_RR, _reg(ops[0], lineno), _reg(ops[1], lineno), 0)
    if mnem == "load":
        b, off = _parse_mem(ops[1], symbols, labels, lineno)
        return (OP_LOAD, _reg(ops[0], lineno), b, off)
    if mnem == "store":
        b, off = _parse_mem(ops[0], symbols, labels, lineno)
        return (OP_STORE, b, off, _reg(ops[1], lineno))
    if mnem == "push":
        return (OP_PUSH, _reg(ops[0], lineno), 0, 0)
    if mnem == "pop":
        return (OP_POP, _reg(ops[0], lineno), 0, 0)
    if mnem in ("add", "sub", "and"):
        op = {"add": OP_ADD_I, "sub": OP_SUB_I, "and": OP_AND_I}[mnem]
        return (op, _reg(ops[0], lineno), imm(ops[1]), 0)
    if mnem == "cmpj":
        if len(ops) != 4:
            raise AsmError(f"line {lineno}: cmpj reg, rhs, rel, target")
        rel = RELATIONS.get(ops[2])
        if rel is None:
            raise AsmError(f"line {lineno}: bad relation {ops[2]!r}")
        if ops[3] not in labels:
            raise UnresolvedLabel(f"line {lineno}: unknown target {ops[3]!r}")
        target = labels[ops[3]]
        if ops[1].startswith("$"):
            return (OP_CMPJ_I, _reg(ops[0], lineno), imm(ops[1]), (rel, target))
        return (OP_CMPJ_R, _reg(ops[0], lineno), _reg(ops[1], lineno), (rel, target))
    if mnem == "jmp":
        if ops[0] not in labels:
            raise UnresolvedLabel(f"line {lineno}: unknown target {ops[0]!r}")
        return (OP_JMP, labels[ops[0]], 0, 0)
    if mnem == "jmpreg":
        return (OP_JMP_REG, _reg(ops[0], lineno), 0, 0)
    if mnem == "call":
        if ops[0] not in labels:
            raise UnresolvedLabel(f"line {lineno}: unknown target {ops[0]!r}")
        return (OP_CALL, labels[ops[0]], 0, 0)
    if mnem == "ret":
        return (OP_RET, 0, 0, 0)
    if mnem == "memcpy":
        return (OP_MEMCPY, _reg(ops[0], lineno), _reg(ops[1], lineno),
                _reg(ops[2], lineno))
    if mnem == "scrub":
        mask = 0
        for tok in ops:
            mask |= 1 << _reg(tok, lineno)
        return (OP_SCRUB, mask, 0, 0)
    if mnem == "read_ssa":
        f = SSA_FIELD_IDS.get(ops[1])
        if f is None:
            raise AsmError(f"line {lineno}: unknown ssa field {ops[1]!r}")
        return (OP_READ_SSA, _reg(ops[0], lineno), f, 0)
    if mnem == "write_ssa":
        f = SSA_FIELD_IDS.get(ops[0])
        if f is None:
            raise AsmError(f"line {lineno}: unknown ssa field {ops[0]!r}")
        return (OP_WRITE_SSA, f, _reg(ops[1], lineno), 0)
    if mnem == "eexit":
        if ops[0].startswith("$"):
            return (OP_EEXIT_I, imm(ops[0]), 0, 0)
        return (OP_EEXIT_R, _reg(ops[0], lineno), 0, 0)
    if mnem == "begin_atomic":
        return (OP_BEGIN_ATOMIC, imm(ops[0]), 0, 0)
    if mnem == "end_atomic":
        return (OP_END_ATOMIC, 0, 0, 0)
    if mnem == "set_flag":
        return (OP_SET_FLAG, imm(ops[0]), 0, 0)
    if mnem == "clear_flag":
        return (OP_CLEAR_FLAG, imm(ops[0]), 0, 0)
    if mnem == "halt":
        return (OP_HALT, imm(ops[0]), 0, 0)
    if mnem == "trap":
        return (OP_TRAP, imm(ops[0]), 0, 0)
    if mnem == "declassify":
        return (OP_DECLASSIFY, _reg(ops[0], lineno), 0, 0)
    if mnem == "emulate_critical":
        return (OP_EMULATE_CRITICAL, 0, 0, 0)
    raise AsmError(f"line {lineno}: unknown mnemonic {mnem!r}")


def render(ins: Instruction) -> str:
    """Readable one-line form, used in diagnostics and trace dumps."""
    op, a, b, c = ins
    r = REG_NAMES
    if op == OP_MOV_RR:
        return f"mov {r[a]}, {r[b]}"
    if op == OP_MOV_RI:
        return f"mov {r[a]}, $0x{b:x}"
    if op == OP_LOAD:
        return f"load {r[a]}, [{r[b]}+0x{c:x}]"
    if op == OP_STORE:
        return f"store [{r[a]}+0x{b:x}], {r[c]}"
    if op == OP_PUSH:
        return f"push {r[a]}"
    if op == OP_POP:
        return f"pop {r[a]}"
    if op == OP_ADD_I:
        return f"add {r[a]}, $0x{b:x}"
    if op == OP_SUB_I:
        return f"sub {r[a]}, $0x{b:x}"
    if op == OP_AND_I:
        return f"and {r[a]}, $0x{b:x}"
    if op == OP_CMPJ_I:
        return f"cmpj {r[a]}, $0x{b:x}, {REL_NAMES[c[0]]}, 0x{c[1]:x}"
    if op == OP_CMPJ_R:
        return f"cmpj {r[a]}, {r[b]}, {REL_NAMES[c[0]]}, 0x{c[1]:x}"
    if op == OP_JMP:
        return f"jmp 0x{a:x}"
    if op == OP_JMP_REG:
        return f"jmpreg {r[a]}"
    if op == OP_CALL:
        return f"call 0x{a:x}"
    if op == OP_RET:
        return "ret"
    if op == OP_MEMCPY:
        return f"memcpy {r[a]}, {r[b]}, {r[c]}"
    if op == OP_SCRUB:
        names = [r[i] for i in range(len(r)) if a & (1 << i)]
        return "scrub " + ", ".join(names)
    if op == OP_READ_SSA:
        return f"read_ssa {r[a]}, {SSA_FIELD_NAMES[b]}"
    if op == OP_WRITE_SSA:
        return f"write_ssa {SSA_FIELD_NAMES[a]}, {r[b]}"
    if op == OP_EEXIT_R:
        return f"eexit {r[a]}"
    if op == OP_EEXIT_I:
        return f"eexit $0x{a:x}"
    if op == OP_BEGIN_ATOMIC:
        return f"begin_atomic ${a}"
    if op == OP_END_ATOMIC:
        return "end_atomic"
    if op == OP_SET_FLAG:
        return f"set_flag $0x{a:x}"
    if op == OP_CLEAR_FLAG:
        return f"clear_flag $0x{a:x}"
    if op == OP_HALT:
        return f"halt $0x{a:x}"
    if op == OP_TRAP:
        return f"trap ${a}"
    if op == OP_DECLASSIFY:
        return f"declassify {r[a]}"
    if op == OP_EMULATE_CRITICAL:
        return "emulate_critical"
    return f"?op{op}"
