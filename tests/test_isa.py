"""Assembler and instruction-encoding tests."""

import pytest

from aexlab.isa import (
    AsmError, CodeOverflow, DuplicateLabel, OP_CALL, OP_POP, OP_RET, SYNTAX,
    UnresolvedLabel, assemble, render,
)


def test_empty_program_empty_map():
    prog = assemble("", 0x1000)
    assert prog.code == {}
    assert prog.end == 0x1000


def test_forward_and_backward_label_references_agree():
    fwd = assemble("    mov rax, $target\n"
                   "    jmp target\n"
                   "target:\n"
                   "    halt $0\n", 0x1000)
    back = assemble("    jmp entry\n"
                    "target:\n"
                    "    halt $0\n"
                    "entry:\n"
                    "    mov rax, $target\n", 0x1000)
    # the immediate resolves to the label's address in both directions
    assert fwd.code[0x1000][2] == fwd.labels["target"]
    assert back.code[back.labels["entry"]][2] == back.labels["target"]


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        assemble("a:\n    ret\na:\n    ret\n", 0)


def test_unresolved_label_rejected():
    with pytest.raises(UnresolvedLabel):
        assemble("    jmp nowhere\n", 0)
    with pytest.raises(UnresolvedLabel):
        assemble("    mov rax, $nowhere\n", 0)


def test_code_overflow():
    src = "\n".join("    ret" for _ in range(20))
    with pytest.raises(CodeOverflow):
        assemble(src, 0, max_len=10)


def test_pop_ret_gadget_chain_assembles_reachable():
    # the four-gadget shape: three pop/ret primitives plus the copy call
    src = """
g_pop_rdx:
    pop rdx
    ret
g_pop_rsi:
    pop rsi
    ret
g_pop_rdi:
    pop rdi
    ret
g_memcpy:
    memcpy rdi, rsi, rdx
    ret
"""
    prog = assemble(src, 0x2000)
    for name in ("g_pop_rdx", "g_pop_rsi", "g_pop_rdi", "g_memcpy"):
        addr = prog.labels[name]
        assert addr in prog.code
    assert prog.code[prog.labels["g_pop_rdx"]][0] == OP_POP
    assert prog.code[prog.labels["g_pop_rdx"] + 1][0] == OP_RET


def test_window_and_crit_directives():
    src = """
    .window start w
    .crit start c
    ret
    .crit end c
    ret
    .window end w
"""
    prog = assemble(src, 0x100)
    assert prog.windows["w"] == (0x100, 0x102)
    assert prog.crit_ranges["c"] == (0x100, 0x101)


def test_unbalanced_directive_rejected():
    with pytest.raises(AsmError):
        assemble("    .window start w\n    ret\n", 0)


def test_mem_operand_forms():
    prog = assemble("    load rax, [rbx+8]\n"
                    "    load rax, [rbx-8]\n"
                    "    store [rbx], rax\n", 0)
    assert prog.code[0][3] == 8
    assert prog.code[1][3] == ((-8) & ((1 << 64) - 1))
    assert prog.code[2][2] == 0


def test_negative_and_hex_immediates():
    prog = assemble("    mov rax, $-2\n    mov rbx, $0xff\n", 0)
    assert prog.code[0][2] == ((-2) & ((1 << 64) - 1))
    assert prog.code[1][2] == 0xFF


def test_symbols_resolve():
    prog = assemble("    mov rax, $magic\n", 0, {"magic": 0x1234})
    assert prog.code[0][2] == 0x1234


# one line per SYNTAX row, in opcode order, with its rendered text
RENDERED = [
    ("mov rax, rbx", "mov rax, rbx"),
    ("mov rax, $-1", "mov rax, $0xffffffffffffffff"),
    ("load rcx, [rdx+16]", "load rcx, [rdx+0x10]"),
    ("store [rsp-8], r8", "store [rsp+0xfffffffffffffff8], r8"),
    ("push r8", "push r8"),
    ("pop r15", "pop r15"),
    ("add rsp, $0x20", "add rsp, $0x20"),
    ("sub rsp, $magic", "sub rsp, $0x1234"),
    ("and rdi, $-16", "and rdi, $0xfffffffffffffff0"),
    ("cmpj rax, $1, eq, out", "cmpj rax, $0x1, eq, 0x2d"),
    ("cmpj rax, rbx, ge, top", "cmpj rax, rbx, ge, 0x10"),
    ("jmp out", "jmp 0x2d"),
    ("jmpreg rsi", "jmpreg rsi"),
    ("call top", "call 0x10"),
    ("ret", "ret"),
    ("memcpy rdi, rsi, rdx", "memcpy rdi, rsi, rdx"),
    ("scrub rflags, rbx, rax, rbx", "scrub rax, rbx, rflags"),
    ("read_ssa rdx, exitinfo_vector", "read_ssa rdx, exitinfo_vector"),
    ("write_ssa rip, rcx", "write_ssa rip, rcx"),
    ("eexit rdi", "eexit rdi"),
    ("eexit $7", "eexit $0x7"),
    ("begin_atomic $40", "begin_atomic $40"),
    ("end_atomic", "end_atomic"),
    ("set_flag $0x18", "set_flag $0x18"),
    ("clear_flag $24", "clear_flag $0x18"),
    ("halt $255", "halt $0xff"),
    ("trap $0xe", "trap $14"),
    ("declassify rax", "declassify rax"),
    ("emulate_critical", "emulate_critical"),
]


def test_render_round_trips_mnemonics():
    src = "top:\n" + "".join(f"    {line}\n" for line, _ in RENDERED)
    prog = assemble(src + "out:\n", 0x10, {"magic": 0x1234})
    code = [prog.code[a] for a in sorted(prog.code)]
    assert [ins[0] for ins in code] == list(range(len(SYNTAX)))
    text = [render(ins) for ins in code]
    assert text == [want for _, want in RENDERED]


@pytest.mark.parametrize("line, form", [
    ("push", "'push reg'"),
    ("push rax, rbx", "'push reg'"),
    ("load rax", "'load reg, [reg+off]'"),
    ("jmp", "'jmp label'"),
    ("ret rax", "'ret'"),
    ("scrub", "'scrub reg, ...'"),
    ("mov rax", "'mov reg, reg' or 'mov reg, $imm'"),
    ("cmpj rax, $1, eq", "'cmpj reg, $imm, rel, label' or "
                         "'cmpj reg, reg, rel, label'"),
    ("eexit", "'eexit reg' or 'eexit $imm'"),
])
def test_wrong_operand_count_names_line_and_form(line, form):
    with pytest.raises(AsmError) as err:
        assemble(f"top:\n    ret\n    {line}\n", 0)
    assert str(err.value) == f"line 3: expected {form}"


def test_call_encodes_target_address():
    prog = assemble("    call f\nf:\n    ret\n", 0x10)
    assert prog.code[0x10] == (OP_CALL, 0x11, 0, 0)
