"""Interpreter semantics: control transfers, taint propagation, the block
copy, fault behavior, and step locality."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aexlab import adversary, runtimes
from aexlab.harness import (
    BENIGN_OCALL_RESULT, Eenter, Eresume, FlipPerms,
    benign_critical_exception_plan, run_plan,
)
from aexlab.interp import (
    InterpError, ST_ABORT, complete_critical, fetch_table, in_crit_ranges,
    step,
)
from aexlab.machine import (
    CTRL_RET, E_CTRL, E_EXIT, E_FAULT, E_HALT, E_HW_AEX, E_HW_EENTER,
    E_HW_ERESUME, E_HW_FLIP, E_LEAK, LABELS, MASK64, NREGS, PERM_R, PERM_X,
    RAX, RBX, REG_IDS, RIP, RSP, SCRUB_VALUES, SGX2, VEC_AC, VEC_DIV,
    VEC_EXT_INT, VEC_PAGE_FAULT, SSAFrame,
)

from aexlab.runtimes import CMD_ORET, build_machine, build_runtime

from conftest import CODE, DATA, PUB, make_raw_machine


def run_until(m, prog, signal="halt", cap=500):
    sig = None
    for _ in range(cap):
        sig = step(m, prog)
        if sig != "ok":
            return sig
    return sig


def test_jmp_advances_rip_only():
    m, prog = make_raw_machine("    jmp next\nnext:\n    halt $0\n")
    before = list(m.regs)
    assert step(m, prog) == "ok"
    assert m.regs[RIP] == CODE + 1
    before[RIP] = CODE + 1
    assert m.regs == before


def test_ret_follows_overwritten_slot():
    src = """
    mov rsp, $data
    add rsp, $0x800
    sub rsp, $8
    mov rax, $gadget
    store [rsp], rax
    ret
gadget:
    halt $1
"""
    m, prog = make_raw_machine(src)
    for _ in range(5):
        assert step(m, prog) == "ok"
    assert step(m, prog) == "ok"
    ev = m.trace[-1]
    assert ev[0] == E_CTRL and ev[3] == CTRL_RET
    assert ev[2] == prog.labels["gadget"]
    assert m.regs[RIP] == prog.labels["gadget"]


def test_ret_into_public_memory_crashes():
    # returning outside the enclave cannot execute: the next fetch faults
    src = """
    mov rsp, $data
    mov rax, $pub
    store [rsp], rax
    ret
"""
    m, prog = make_raw_machine(src)
    for _ in range(4):
        assert step(m, prog) == "ok"
    assert m.regs[RIP] == PUB
    assert step(m, prog) == "fault"
    assert m.pending_fault == VEC_PAGE_FAULT


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=0x7F0))
def test_call_ret_duality(stack_off):
    src = """
    mov rsp, $data
    add rsp, $0x7f8
    call f
after:
    halt $0
f:
    ret
"""
    m, prog = make_raw_machine(src)
    step(m, prog)
    step(m, prog)
    sp_before = m.regs[RSP]
    assert step(m, prog) == "ok"          # call
    assert step(m, prog) == "ok"          # ret
    assert m.regs[RIP] == prog.labels["after"]
    assert m.regs[RSP] == sp_before


# ---------------------------------------------------------------------------
# taint and leaks
# ---------------------------------------------------------------------------

def secret_block(words):
    return {DATA + 8 * i: 0x5EC0 + i for i in range(words)}


def test_memcpy_leaks_secret_run():
    src = """
    mov rdi, $pub
    mov rsi, $data
    mov rdx, $128
    memcpy rdi, rsi, rdx
    halt $0
"""
    m, prog = make_raw_machine(src, data_secret=secret_block(16))
    run_until(m, prog)
    leaks = [ev for ev in m.trace if ev[0] == E_LEAK]
    assert len(leaks) == 1
    assert leaks[0][4] == 128
    assert leaks[0][2] == DATA and leaks[0][3] == PUB


def test_memcpy_self_copy_identity():
    src = """
    mov rdi, $data
    mov rsi, $data
    mov rdx, $128
    memcpy rdi, rsi, rdx
    halt $0
"""
    m, prog = make_raw_machine(src, data_secret=secret_block(16))
    before = tuple(m.mem.canonical())
    run_until(m, prog)
    assert tuple(m.mem.canonical()) == before
    assert not [ev for ev in m.trace if ev[0] == E_LEAK]


def test_memcpy_dumps_whole_private_span():
    # leak byte count equals the copied private span size
    span = 0x400
    src = f"""
    mov rdi, $pub
    mov rsi, $data
    mov rdx, ${span}
    memcpy rdi, rsi, rdx
    halt $0
"""
    m, prog = make_raw_machine(src, data_secret=secret_block(span // 8))
    run_until(m, prog)
    assert sum(ev[4] for ev in m.trace if ev[0] == E_LEAK) == span


def test_memcpy_fault_mid_copy_applies_prefix():
    # destination runs off the writable page: fault, prefix already copied
    src = """
    mov rdi, $pub
    add rdi, $0xff0
    mov rsi, $data
    mov rdx, $32
    memcpy rdi, rsi, rdx
"""
    m, prog = make_raw_machine(src, data_secret=secret_block(4))
    sig = run_until(m, prog)
    assert sig == "fault"
    assert m.mem.read(PUB + 0xFF0)[0] == 0x5EC0
    assert m.mem.read(PUB + 0xFF8)[0] == 0x5EC1


def test_memcpy_misaligned_rejected():
    src = """
    mov rdi, $pub
    add rdi, $4
    mov rsi, $data
    mov rdx, $8
    memcpy rdi, rsi, rdx
"""
    m, prog = make_raw_machine(src)
    assert run_until(m, prog) == "fault"
    assert m.pending_fault == VEC_AC


def test_store_of_secret_register_to_public_leaks():
    src = """
    mov rbx, $data
    load rax, [rbx]
    mov rbx, $pub
    store [rbx], rax
    halt $0
"""
    m, prog = make_raw_machine(src, data_secret={DATA: 0x5EC})
    run_until(m, prog)
    assert any(ev[0] == E_LEAK for ev in m.trace)


def test_scrub_resets_values_and_taint():
    src = """
    mov rbx, $data
    load rax, [rbx]
    scrub rax, rbx
    halt $0
"""
    m, prog = make_raw_machine(src, data_secret={DATA: 0x5EC})
    run_until(m, prog)
    assert m.regs[RAX] == SCRUB_VALUES[RAX]
    assert m.taint & ((1 << RAX) | (1 << RBX)) == 0


def test_declassify_clears_taint():
    src = """
    mov rbx, $data
    load rax, [rbx]
    declassify rax
    mov rbx, $pub
    store [rbx], rax
    halt $0
"""
    m, prog = make_raw_machine(src, data_secret={DATA: 0x5EC})
    run_until(m, prog)
    assert not any(ev[0] == E_LEAK for ev in m.trace)


def test_pop_rsp_leaves_rsp_untainted():
    # rsp ends at the popped cell + 8 whatever the word was, so a secret
    # word popped into rsp leaves it clean, as in the shadow oracle
    src = """
    mov rsp, $cell
    pop rsp
    eexit $pub
"""
    m, prog = make_raw_machine(src, {"cell": DATA + 0x100},
                               data_secret={DATA + 0x100: 0x5EC})
    assert run_until(m, prog) == "exit"
    assert m.regs[RSP] == DATA + 0x108
    assert m.trace[-1][0] == E_EXIT and m.trace[-1][3] == 0
    assert m.taint & (LABELS << RSP) == 0


def test_trap_raises_its_vector():
    m, prog = make_raw_machine("    trap $0\n")
    assert step(m, prog) == "fault"
    assert m.pending_fault == VEC_DIV
    assert m.regs[RIP] == CODE          # the faulting instruction stays


def test_saved_frame_access_without_context_aborts():
    m, prog = make_raw_machine("    read_ssa rax, rsp\n")
    assert step(m, prog) == "halt"
    assert m.trace[-1][0] == E_HALT and m.trace[-1][2] == ST_ABORT
    assert m.halted


# ---------------------------------------------------------------------------
# critical-span completion fails closed
# ---------------------------------------------------------------------------

def interrupted_at_span_start(body: str, nssa: int = 2, beneath=None):
    """Assemble `body` as one critical span, take an asynchronous exit at
    its first instruction and return the machine, the program and the
    saved frame.  `beneath`, when given, is the frame one level down."""
    src = ".crit start span\n" + body + ".crit end span\n    halt $0\n"
    m, prog = make_raw_machine(src, nssa=nssa)
    if beneath is not None:
        m.ssa[0] = beneath
        m.tcs.cssa = 1
    assert m.aex(VEC_EXT_INT)
    return m, prog, m.ssa[m.tcs.cssa - 1]


def test_completion_refuses_a_call_in_the_span():
    m, prog, frame = interrupted_at_span_start(
        "    call helper\n"
        "helper:\n"
        "    ret\n")
    with pytest.raises(InterpError, match="not completable.*call"):
        complete_critical(m, prog, frame)


def test_completion_reads_the_frame_beneath_and_refuses_none():
    body = "    read_ssa rax, rbx\n"
    m, prog, frame = interrupted_at_span_start(body)
    with pytest.raises(InterpError):
        complete_critical(m, prog, frame)

    beneath = SSAFrame()
    beneath.regs[RBX] = 0x1234
    m, prog, frame = interrupted_at_span_start(body, nssa=3,
                                               beneath=beneath)
    out = complete_critical(m, prog, frame)
    assert out.regs[RAX] == 0x1234
    assert out.regs[RIP] == prog.crit_ranges["span"][1]


def test_completion_faults_on_an_unmapped_load():
    # native execution would fault here; completion must not read a 0
    m, prog, frame = interrupted_at_span_start(
        "    mov rbx, $0x900000\n"
        "    load rax, [rbx]\n")
    with pytest.raises(InterpError, match="load.*fault"):
        complete_critical(m, prog, frame)


def test_completion_of_a_spinning_span_is_bounded():
    m, prog, frame = interrupted_at_span_start(
        "spin:\n"
        "    jmp spin\n")
    with pytest.raises(InterpError, match="did not terminate"):
        complete_critical(m, prog, frame)


# ---------------------------------------------------------------------------
# step locality
# ---------------------------------------------------------------------------

_REG_NAMES = ("rax", "rbx", "rcx", "rdx", "r8", "r9")

_ins = st.one_of(
    st.tuples(st.just("mov_rr"), st.sampled_from(_REG_NAMES),
              st.sampled_from(_REG_NAMES)),
    st.tuples(st.just("mov_ri"), st.sampled_from(_REG_NAMES),
              st.integers(min_value=0, max_value=MASK64)),
    st.tuples(st.just("add"), st.sampled_from(_REG_NAMES),
              st.integers(min_value=0, max_value=1 << 32)),
    st.tuples(st.just("load"), st.sampled_from(_REG_NAMES),
              st.integers(min_value=0, max_value=0xF0)),
    st.tuples(st.just("store"), st.sampled_from(_REG_NAMES),
              st.integers(min_value=0, max_value=0xF0)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ins, min_size=1, max_size=8))
def test_step_locality(instructions):
    lines = []
    for kind, reg, arg in instructions:
        if kind == "mov_rr":
            lines.append(f"    mov {reg}, {arg}")
        elif kind == "mov_ri":
            lines.append(f"    mov {reg}, ${arg}")
        elif kind == "add":
            lines.append(f"    add {reg}, ${arg}")
        elif kind == "load":
            lines.append(f"    load {reg}, [rbp+{arg * 8}]")
        else:
            lines.append(f"    store [rbp+{arg * 8}], {reg}")
    lines.append("    halt $0")
    m, prog = make_raw_machine("\n".join(lines))
    m.regs[REG_IDS["rbp"]] = DATA

    for i, (kind, reg, arg) in enumerate(instructions):
        regs_before = list(m.regs)
        mem_before = dict(m.mem.cells)
        assert step(m, prog) == "ok"
        # only the named destination register may change (plus rip)
        for r in range(NREGS):
            if r == RIP:
                continue
            if r == REG_IDS[reg] and kind != "store":
                continue
            assert m.regs[r] == regs_before[r], (i, kind, reg)
        # only the named cell may change
        expected_cells = set(mem_before)
        if kind == "store":
            expected_cells |= {DATA + arg * 8}
        changed = {a for a in set(mem_before) | set(m.mem.cells)
                   if mem_before.get(a, 0) != m.mem.cells.get(a, 0)}
        assert changed <= ({DATA + arg * 8} if kind == "store" else set())


def test_decoded_program_dies_without_the_cycle_collector():
    # no entry of a fetch table refers back to its program (emulate_critical
    # completes against the machine's fetch_program), so reference
    # counting alone frees a decoded program
    # once no image, machine and cache entry holds it
    enabled = gc.isenabled()
    gc.disable()
    try:
        for variant in ("graphene_emulated", "sdk_style"):
            img = build_runtime(variant)
            runtimes._program.cache_clear()
            fetch_table(build_machine(img).mem, img.program)
            assert img.program.fetch_tables
            program = weakref.ref(img.program)
            del img
            assert program() is None, variant
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# the fetch table
# ---------------------------------------------------------------------------

def _oret():
    return [Eenter.of(CMD_ORET, regs={"rsp": 0, "rsi": BENIGN_OCALL_RESULT})]


def test_fetch_follows_page_flips_through_run_plan():
    img = build_runtime("sdk_style")
    snapshot = adversary._prefix_snapshot(img, SGX2, None)
    code, entry = img.layout.code_base, img.entry
    table = snapshot.mem.fetch
    assert snapshot.mem.fetch_program is img.program
    assert table.keys() == img.program.code.keys()
    before = snapshot.clone()
    assert before.mem.fetch is table
    plain = run_plan(snapshot.clone(), img, _oret())
    assert plain.status == "done" and plain.steps > 0
    start = len(snapshot.trace)

    # a code page without X: the entry fetch faults at the entry point
    flipped = run_plan(snapshot.clone(), img,
                       [FlipPerms(code, PERM_R)] + _oret())
    new = flipped.trace[start:]
    assert new[:3] == [(E_HW_FLIP, code, PERM_R, 0, 0),
                       (E_HW_EENTER, entry, CMD_ORET, BENIGN_OCALL_RESULT,
                        0),
                       (E_FAULT, entry, VEC_PAGE_FAULT, entry, 0)]
    assert new[3][0] == E_HW_AEX and flipped.steps == 1
    assert flipped.machine.mem.fetch is not table
    # a clone taken before the flip keeps executing on the shared table
    assert before.mem.fetch is table
    kept = run_plan(before, img, _oret())
    assert kept.trace == plain.trace and kept.steps == plain.steps

    # flipping back restores execution: the resumed entry runs as the plain
    # entry did
    back = run_plan(snapshot.clone(), img,
                    [FlipPerms(code, PERM_R)] + _oret()
                    + [FlipPerms(code, PERM_R | PERM_X), Eresume()])
    assert back.status == plain.status
    assert back.steps == plain.steps + 1
    events = back.trace[start:]
    resumed = [e[0] for e in events].index(E_HW_ERESUME)
    assert events[resumed - 1] == (E_HW_FLIP, code, PERM_R | PERM_X, 0, 0)
    assert events[resumed + 1:] == plain.trace[start + 1:]
    # the same pages over the code give the same table
    assert back.machine.mem.fetch is table


def test_an_executable_pc_without_an_instruction_faults_there():
    img = build_runtime("sdk_style")
    snapshot = adversary._prefix_snapshot(img, SGX2, None)
    hole = img.program.end
    assert snapshot.mem.executable(hole) and hole not in img.program.code
    m = snapshot.clone()
    m.tcs.entry_point = hole
    res = run_plan(m, img, _oret())
    new = res.trace[len(snapshot.trace):]
    assert new[1] == (E_FAULT, hole, VEC_PAGE_FAULT, hole, 0)
    assert new[2][:3] == (E_HW_AEX, hole, VEC_PAGE_FAULT)
    assert res.steps == 1


def test_critical_completion_fetches_through_the_shared_table():
    # an injection inside graphene's ocall-return window, completed against
    # the saved frame with the table the machine's memory holds, and with
    # a memory that holds none: the same frame and cells
    img = build_runtime("graphene_emulated")
    m = build_machine(img, SGX2)
    res = run_plan(m, img, benign_critical_exception_plan(5)[:3])
    frame = m.ssa[m.tcs.cssa - 1]
    assert res.status == "done" and in_crit_ranges(img.program,
                                                    frame.regs[RIP])
    table = m.mem.fetch
    assert table is not None
    cold = m.clone()
    cold.mem.fetch = cold.mem.fetch_program = None
    done = complete_critical(m, img.program, frame)
    again = complete_critical(cold, img.program, frame)
    assert m.mem.fetch is table and cold.mem.fetch is table
    assert (done.regs, done.taint) == (again.regs, again.taint)
    assert done.regs != frame.regs
    assert m.mem.cells == cold.mem.cells and m.trace == cold.trace
