"""Tiny abstract instruction set plus its textual assembly format.

Programs are written one instruction per line with `label:` prefixes and
`;` comments, assembled to an immutable address->instruction map.  Each
instruction occupies one address unit, so `rip + 1` is the next
instruction.  Immediates are `$`-prefixed literals or symbols; registers
are bare names.  `SYNTAX` gives each opcode's mnemonic and operands; the
assembler and `render` both read it.  Two pseudo-directives attach
metadata used elsewhere:

    .window start NAME / .window end NAME   untrusted-stack-pointer spans
    .crit start NAME   / .crit end NAME     emulation-covered critical spans
"""

from __future__ import annotations

from typing import Optional

from .machine import MASK64, REG_IDS, REG_NAMES

# Opcodes ------------------------------------------------------------------

(
    OP_MOV_RR, OP_MOV_RI, OP_LOAD, OP_STORE, OP_PUSH, OP_POP,
    OP_ADD_I, OP_SUB_I, OP_AND_I, OP_CMPJ_I, OP_CMPJ_R,
    OP_JMP, OP_CALL, OP_RET,
    OP_MEMCPY, OP_SCRUB, OP_READ_SSA, OP_WRITE_SSA, OP_EEXIT_I,
    OP_END_ATOMIC, OP_SET_FLAG, OP_CLEAR_FLAG,
    OP_HALT, OP_TRAP, OP_DECLASSIFY, OP_EMULATE_CRITICAL,
) = range(26)

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

# Operand kinds of SYNTAX, each spelled as it reads in an expected form
REG = "reg"            # a register name
IMM = "$imm"           # a `$` literal or symbol, rendered in hex
DEC = "$n"             # a `$` literal or symbol, rendered in decimal
MEM = "[reg+off]"      # base register and offset: fills two slots
LABEL = "label"        # a code label, rendered as its address
FIELD = "field"        # a save-frame field: a register or exitinfo_*
BRANCH = "rel, label"  # cmpj's relation and target: two operands, one slot
REGS = "reg, ..."      # scrub's registers, filled as one bit mask

# The text form of every opcode, indexed by opcode: its mnemonic and its
# operands in text order.  An Instruction is a plain tuple (op, a, b, c)
# whose slots a, b, c the operands fill in that order; unused slots are 0.
# The assembler tells a mnemonic's rows apart by operand count and by
# which operands are `$` immediates.
SYNTAX = (
    ("mov", (REG, REG)),
    ("mov", (REG, IMM)),
    ("load", (REG, MEM)),
    ("store", (MEM, REG)),
    ("push", (REG,)),
    ("pop", (REG,)),
    ("add", (REG, IMM)),
    ("sub", (REG, IMM)),
    ("and", (REG, IMM)),
    ("cmpj", (REG, IMM, BRANCH)),
    ("cmpj", (REG, REG, BRANCH)),
    ("jmp", (LABEL,)),
    ("call", (LABEL,)),
    ("ret", ()),
    ("memcpy", (REG, REG, REG)),    # dst, src, len
    ("scrub", (REGS,)),
    ("read_ssa", (REG, FIELD)),     # from the frame at cssa-1
    ("write_ssa", (FIELD, REG)),
    ("eexit", (IMM,)),
    ("end_atomic", ()),
    ("set_flag", (IMM,)),           # thread-data offset
    ("clear_flag", (IMM,)),
    ("halt", (IMM,)),               # status
    ("trap", (DEC,)),               # vector; always faults
    ("declassify", (REG,)),         # marshaling: declared-public output
    ("emulate_critical", ()),       # complete an interrupted critical span
)
Instruction = tuple


class AsmError(Exception):
    pass


class DuplicateLabel(AsmError):
    pass


class UnresolvedLabel(AsmError):
    pass


class CodeOverflow(AsmError):
    pass


class Program:
    """Assembled program: immutable once built.  ``fetch_tables`` keeps the
    interpreter's decoded tables of it (``interp.fetch_table``) and
    ``roots`` the points its runs start from (``harness.Root``); neither
    holds a reference back to it, so a program without other holders is
    freed by reference counting alone."""

    __slots__ = ("base", "code", "labels", "windows", "crit_ranges",
                 "crit_pcs", "source", "fetch_tables", "roots", "__weakref__")

    def __init__(self, base: int, code: dict[int, Instruction],
                 labels: dict[str, int], windows: dict[str, tuple[int, int]],
                 crit_ranges: dict[str, tuple[int, int]],
                 source: tuple[str, ...]):
        self.base = base
        self.code = code
        self.labels = labels
        self.windows = windows
        self.crit_ranges = crit_ranges
        # every pc inside a critical span, for one lookup per test
        self.crit_pcs = frozenset(pc for lo, hi in crit_ranges.values()
                                  for pc in range(lo, hi))
        self.source = source
        # the interpreter's pre-decoded fetch tables, one per tuple of pages
        # over the code, filled on first step
        self.fetch_tables: dict = {}
        # harness.Root per image and platform (``Root.key``), filled on
        # first use
        self.roots: dict = {}

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
    if not tok.startswith("$"):
        raise AsmError(f"line {lineno}: expected immediate, got {tok!r}")
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
        while line:
            parts = line.split(None, 1)
            if not parts[0].endswith(":"):
                break
            head = parts[0][:-1]
            if not head.isidentifier():
                raise AsmError(f"line {lineno}: bad label {head!r}")
            if head in labels:
                raise DuplicateLabel(f"line {lineno}: duplicate label {head!r}")
            labels[head] = addr
            line = parts[1] if len(parts) > 1 else ""
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
    for addr, (lineno, line) in enumerate(stripped, base):
        mnem, _, rest = line.partition(" ")
        code[addr] = _encode(mnem, _split_ops(rest), symbols, labels, lineno)

    return Program(base=base, code=code, labels=labels,
                   windows=spans[".window"], crit_ranges=spans[".crit"],
                   source=tuple(lines))


def _lookup(table, tok, lineno, what="target", error=UnresolvedLabel) -> int:
    if tok not in table:
        raise error(f"line {lineno}: unknown {what} {tok!r}")
    return table[tok]


# per kind: its slot values, taken from an iterator over the line's
# operands given the symbols, the labels and the line number
_PARSE = {
    REG: lambda it, sym, lab, n: (_reg(next(it), n),),
    IMM: lambda it, sym, lab, n: (_parse_imm(next(it), sym, lab, n),),
    DEC: lambda it, sym, lab, n: (_parse_imm(next(it), sym, lab, n),),
    MEM: lambda it, sym, lab, n: _parse_mem(next(it), sym, lab, n),
    LABEL: lambda it, sym, lab, n: (_lookup(lab, next(it), n),),
    FIELD: lambda it, sym, lab, n: (
        _lookup(SSA_FIELD_IDS, next(it), n, "ssa field", AsmError),),
    BRANCH: lambda it, sym, lab, n: (
        (_lookup(RELATIONS, next(it), n, "relation", AsmError),
         _lookup(lab, next(it), n)),),
    REGS: lambda it, sym, lab, n: (sum({1 << _reg(tok, n) for tok in it}),),
}


def _show_branch(slots) -> str:
    rel, target = next(slots)
    return f"{REL_NAMES[rel]}, 0x{target:x}"


def _show_mask(slots) -> str:
    mask = next(slots)
    return ", ".join(r for i, r in enumerate(REG_NAMES) if mask >> i & 1)


# per kind: its text from an iterator over the instruction's slots
_SHOW = {
    REG: lambda v: REG_NAMES[next(v)],
    IMM: lambda v: f"$0x{next(v):x}",
    DEC: lambda v: f"${next(v)}",
    MEM: lambda v: f"[{REG_NAMES[next(v)]}+0x{next(v):x}]",
    LABEL: lambda v: f"0x{next(v):x}",
    FIELD: lambda v: SSA_FIELD_NAMES[next(v)],
    BRANCH: _show_branch,
    REGS: _show_mask,
}


def _matchers() -> dict[str, list[tuple]]:
    """Per mnemonic, its rows as (op, parsers, whether each operand is a
    `$` immediate, whether the last operand takes the rest, the zeros that
    pad the instruction to four slots)."""
    matchers: dict[str, list[tuple]] = {}
    for op, (mnem, kinds) in enumerate(SYNTAX):
        shape = tuple(k in (IMM, DEC) for k in kinds
                      for _ in range(2 if k == BRANCH else 1))
        matchers.setdefault(mnem, []).append(
            (op, tuple(_PARSE[k] for k in kinds), shape, REGS in kinds,
             (0,) * (3 - len(kinds) - (MEM in kinds))))
    return matchers


_MATCHERS = _matchers()


def _encode(mnem: str, ops: list[str], symbols, labels, lineno) -> Instruction:
    rows = _MATCHERS.get(mnem)
    if rows is None:
        raise AsmError(f"line {lineno}: unknown mnemonic {mnem!r}")
    n = len(ops)
    # several rows: the operands' `$` shape picks one (and fixes their
    # count); one row: only the count is checked, then its parsers check
    # each operand
    shape = tuple([t[:1] == "$" for t in ops]) if len(rows) > 1 else None
    for op, parsers, want, rest, pad in rows:
        if (shape == want if shape is not None
                else n == len(want) or rest and n > len(want)):
            toks = iter(ops)
            ins = [op]
            for parse in parsers:
                ins += parse(toks, symbols, labels, lineno)
            return tuple(ins) + pad
    forms = (f"{mnem} {', '.join(SYNTAX[row[0]][1])}".strip() for row in rows)
    raise AsmError(f"line {lineno}: expected {' or '.join(map(repr, forms))}")


def render(ins: Instruction) -> str:
    """Readable one-line form, used in diagnostics and trace dumps."""
    op = ins[0]
    if not 0 <= op < len(SYNTAX):
        return f"?op{op}"
    mnem, kinds = SYNTAX[op]
    slots = iter(ins[1:])
    text = ", ".join(_SHOW[k](slots) for k in kinds)
    return f"{mnem} {text}" if kinds else mnem
