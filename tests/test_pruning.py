"""Attacker-payload labels and the payload-equivalence pruning of the
exhaustive search: each sink flags a run, data moves carry labels without
flagging, a clean run does not depend on the payload's value, per-register
payload planes stay apart, labels stay out of the canonical state, and
every covered plan repeats its representative's run.  Then the rsp
classes: every rsp word a recorded path admits repeats the path's run,
shifted by the words' difference."""

import multiprocessing
import random

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from aexlab import (
    adversary, cli, explorer, harness, interp, isa, reporting, runtimes,
)
from aexlab.adversary import (
    Counterexample, NoneFound, PAYLOAD_REGS, exhaustive_attacker,
    scripted_attack,
)
from aexlab.harness import Eenter, PrepareRegs, benign_plan, run_plan
from aexlab.interp import RspPath, step
from aexlab.machine import (
    DEFAULT_IRQ_GRANT, E_EXIT, E_HW_ERESUME, LABELS, MASK64, NREGS, ORIGINS,
    PAYLOADS, R8, R9, RAX, RBX, RCX, RDI, REG_IDS, REG_NAMES, RIP, RSI, RSP,
    SECRET, SECRET_REGS, SGX1, SGX2, VEC_EXT_INT, VEC_PAGE_FAULT, Machine,
)
from aexlab.runtimes import (
    CMD_ECALL_COMPUTE, VARIANTS, build_machine, build_runtime,
)

from conftest import (
    CODE, DATA, PUB, load_script, make_raw_machine, stub_pool_context,
)

agreement = load_script("agreement")

# Where a test labels a raw machine directly, one origin plane, rax's,
# stands in for the payload label.
PLANE = ORIGINS[RAX]
PLANE_SHIFT = PLANE.bit_length() - 1


def labelled(source: str, regs: dict, labels=("rax",), symbols=None):
    """A raw machine at the first instruction with `regs` set and the
    registers `labels` carrying the payload label (`PLANE`), and its
    program."""
    m, prog = make_raw_machine(source, symbols)
    for name, value in regs.items():
        m.regs[REG_IDS[name]] = value
    for name in labels:
        m.taint |= PLANE << REG_IDS[name]
    return m, prog


def payload_regs(mask: int) -> int:
    """The `PLANE` of a register label mask, as a register mask."""
    return mask >> PLANE_SHIFT


def payload_cells(m) -> set:
    return {a for a, w in m.mem.labels.items() if w & PLANE}


def run(m, prog, cap=200) -> str:
    sig = "ok"
    for _ in range(cap):
        sig = step(m, prog)
        if sig != "ok":
            break
    return sig


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------

def test_labelled_load_and_store_addresses_are_sinks():
    for ins in ("load rbx, [rax+8]", "store [rax+8], rbx"):
        m, prog = labelled(f"    {ins}\n    halt $0\n", {"rax": DATA})
        assert step(m, prog) == "ok"
        assert m.influenced, ins


def test_each_memcpy_operand_is_a_sink():
    regs = {"rdi": PUB, "rsi": DATA, "rdx": 16}
    for reg in regs:
        m, prog = labelled("    memcpy rdi, rsi, rdx\n    halt $0\n", regs,
                           labels=(reg,))
        assert step(m, prog) == "ok"
        assert m.influenced, reg


def test_compare_and_jump_operands_are_sinks():
    for ins in ("cmpj rax, $5, eq, done", "cmpj rbx, rax, eq, done"):
        m, prog = labelled(f"    {ins}\ndone:\n    halt $0\n", {"rax": 5})
        assert step(m, prog) == "ok"
        assert m.influenced, ins


def test_a_labelled_stack_pointer_is_a_sink():
    m, prog = labelled("    mov rsp, rax\n    halt $0\n", {"rax": DATA})
    assert step(m, prog) == "ok"
    assert m.influenced


def test_ret_of_a_labelled_cell_is_a_sink():
    src = """
    mov rsp, $data
    add rsp, $0x800
    push rax
    ret
target:
    halt $0
"""
    m, prog = labelled(src, {})
    m.regs[RAX] = prog.labels["target"]
    for _ in range(3):
        assert step(m, prog) == "ok"
    assert not m.influenced          # storing a labelled word is a data move
    assert step(m, prog) == "ok"
    assert m.influenced and m.regs[RIP] == prog.labels["target"]


def test_an_indirect_jump_or_exit_target_is_a_sink():
    for ins in ("jmpreg rax", "eexit rax"):
        m, prog = labelled(f"    {ins}\ntarget:\n    halt $0\n", {})
        m.regs[RAX] = prog.labels["target"]
        step(m, prog)
        assert m.influenced, ins


def test_declassify_keeps_the_payload_label():
    # declassify clears the secret bit only: the payload-labelled rax still
    # flags as a load address
    m, prog = labelled("    declassify rax\n    load rbx, [rax+8]\n"
                       "    halt $0\n", {"rax": DATA})
    m.taint |= SECRET << RAX
    assert step(m, prog) == "ok"
    assert m.taint >> RAX & (SECRET | PLANE) == PLANE
    assert not m.influenced
    assert step(m, prog) == "ok"
    assert m.influenced


def test_exit_rax_is_a_sink():
    m, prog = labelled("    eexit $pub\n", {"rax": 1})
    assert step(m, prog) == "exit"
    assert m.trace[-1][0] == E_EXIT and m.trace[-1][4] == 1
    assert m.influenced


def _handler_writes(field: str):
    """Interrupt the thread, enter its handler with a labelled rbx that the
    handler writes into the saved frame's `field`, and exit."""
    m, prog = labelled(f"    write_ssa {field}, rbx\n    eexit $pub\n", {},
                       labels=())
    assert m.aex(VEC_EXT_INT)
    regs = [0] * len(m.regs)
    regs[RBX] = DATA + 0x800
    m.eenter(regs, PUB)
    m.taint = PLANE << RBX
    assert run(m, prog) == "exit"
    assert not m.influenced
    return m


def test_a_labelled_saved_rip_or_rsp_is_a_sink_on_eresume():
    for field in ("rip", "rsp"):
        m = _handler_writes(field)
        m.eresume()
        assert m.influenced, field
    assert m.trace[-1][0] == E_HW_ERESUME


# ---------------------------------------------------------------------------
# data moves
# ---------------------------------------------------------------------------

def test_context_copy_moves_labels_without_flagging():
    # the exception flow's copy: read_ssa from the saved frame, store to the
    # info struct, and a later load of that word
    src = """
    read_ssa r12, r8
    store [rbp+0], r12
    read_ssa r13, r9
    store [rbp+8], r13
    load r14, [rbp+0]
    halt $0
"""
    m, prog = labelled(src, {"rbp": DATA}, labels=())
    m.ssa[0].taint = PLANE << REG_IDS["r8"]
    m.tcs.cssa = 1
    assert run(m, prog) == "halt"
    assert payload_cells(m) == {DATA}
    assert payload_regs(m.taint) == 1 << REG_IDS["r12"] | 1 << REG_IDS["r14"]
    assert not m.influenced


def test_pop_and_memcpy_move_labels():
    src = """
    mov rsp, $data
    add rsp, $0x800
    push rax
    pop rcx
    store [rbp+0], rcx
    store [rbp+8], rdx
    memcpy rsi, rbp, rdx
    halt $0
"""
    m, prog = labelled(src, {"rbp": DATA, "rsi": DATA + 0x200, "rdx": 16})
    assert run(m, prog) == "halt"
    assert payload_regs(m.taint) == 1 << RAX | 1 << REG_IDS["rcx"]
    # the copy moves the labelled word and the unlabelled one alike
    assert payload_cells(m) == {DATA + 0x7F8, DATA, DATA + 0x200}
    assert not m.influenced


def test_a_faulting_memcpy_moves_the_labels_of_the_copied_prefix():
    # the second destination word is past the data page: the first word is
    # copied, then the copy faults
    m, prog = labelled("    memcpy rsi, rbp, rdx\n    halt $0\n",
                       {"rbp": DATA, "rsi": DATA + 0xFF8, "rdx": 16},
                       labels=())
    m.mem.labels.update({DATA: PLANE, DATA + 8: PLANE})
    assert step(m, prog) == "fault"
    assert payload_cells(m) == {DATA, DATA + 8, DATA + 0xFF8}
    assert not m.influenced
    # no label moves past the fault, even where a later word pair would be
    # mapped again: word 0x3E01 copies DATA + 8 to PUB
    m, prog = labelled("    memcpy rsi, rbp, rdx\n    halt $0\n",
                       {"rbp": CODE, "rsi": DATA + 0xFF8, "rdx": 0x1F010},
                       labels=())
    m.mem.labels[DATA + 8] = PLANE
    assert step(m, prog) == "fault"
    assert payload_cells(m) == {DATA + 8}


def test_ssa_save_and_restore_move_labels():
    m, prog = labelled("    halt $0\n", {}, labels=("r8", "rax"))
    mask = m.taint
    assert m.aex(VEC_EXT_INT)
    assert m.ssa[0].taint == mask and m.taint == 0
    m.eresume()
    assert m.taint == mask and not m.influenced


def test_scrub_and_immediate_writes_clear_labels():
    src = """
    scrub r8, r9
    mov rax, $1
    mov rsp, $data
    add rsp, $0x800
    push rbx
    call sub
    halt $0
sub:
    ret
"""
    m, prog = labelled(src, {}, labels=("r8", "r9", "rax", "rbx"))
    top = DATA + 0x800
    assert run(m, prog) == "halt"
    assert payload_regs(m.taint) == 1 << RBX
    # the pushed rbx keeps its label; the return address call wrote is
    # an immediate
    assert payload_cells(m) == {top - 8}
    assert not m.influenced


# ---------------------------------------------------------------------------
# per-register payload planes
# ---------------------------------------------------------------------------

@seed(6657)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(REG_NAMES)).map(tuple))
def test_the_cached_payload_masks_equal_the_per_name_loop(payload):
    labels = 0
    for name in payload:
        r = REG_IDS[name]
        labels |= ORIGINS[r] << r
    assert harness._payload_masks(payload) == (
        labels, (labels >> RSP | labels >> RSI) & PAYLOADS)


@seed(6657)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(REG_NAMES),
                          st.integers(0, 1 << 66))).map(tuple),
       st.integers(0, 1 << 66))
def test_the_cached_entry_registers_equal_the_per_name_loop(regs, cmd):
    os_regs = [0] * NREGS
    for name, val in regs:
        os_regs[REG_IDS[name]] = val & MASK64
    os_regs[RDI] = cmd & MASK64
    assert list(harness._entry_regs(regs, cmd)) == os_regs


def test_the_words_of_a_register_mask_never_overlap():
    # planes NREGS bits apart: two registers' shifted words share no bit,
    # and no origin plane reaches the secret plane, the canonical taint
    for r in range(NREGS):
        assert (PAYLOADS << r) & SECRET_REGS == 0, r
        for s in range(NREGS):
            if s != r:
                assert (LABELS << r) & (LABELS << s) == 0, (r, s)


def _two_planes(source: str, regs: dict):
    """A raw machine with `regs` set, r8 on its own plane and r9 on its
    own, and its program."""
    m, prog = make_raw_machine(source)
    for name, value in regs.items():
        m.regs[REG_IDS[name]] = value
    m.taint = ORIGINS[R8] << R8 | ORIGINS[R9] << R9
    return m, prog


def test_a_sink_sets_only_the_planes_that_reached_it():
    m, prog = _two_planes("    mov rbx, r9\n    load rcx, [r8+8]\n"
                          "    cmpj rbx, $7, eq, done\ndone:\n    halt $0\n",
                          {"r8": DATA, "r9": 7})
    assert step(m, prog) == "ok"
    assert not m.influenced          # a move is no sink
    assert m.taint >> RBX & LABELS == ORIGINS[R9]
    assert step(m, prog) == "ok"
    assert m.influenced == ORIGINS[R8]
    assert m.taint >> RCX & LABELS == 0     # the loaded cell is unlabelled
    assert step(m, prog) == "ok"
    assert m.influenced == ORIGINS[R8] | ORIGINS[R9]


def test_a_labelled_entry_sets_the_planes_of_rsp_and_rsi():
    image = build_runtime("sdk_style")
    actions = [PrepareRegs.of(rsp=0, rsi=0, r8=1),
               Eenter.of(CMD_ECALL_COMPUTE)]
    res = run_plan(build_machine(image, SGX2), image, actions,
                   payload=("rsp", "rsi", "r8"), max_steps=1)
    assert res.machine.influenced & PAYLOADS == ORIGINS[RSP] | ORIGINS[RSI]


def test_scrub_clears_every_plane():
    m, prog = _two_planes("    scrub r8, r9\n    halt $0\n", {})
    m.taint |= (SECRET | PLANE) << R8 | LABELS << RCX
    assert step(m, prog) == "ok"
    assert m.taint == LABELS << RCX


def test_planes_survive_the_ssa_save_and_restore():
    m, prog = _two_planes("    halt $0\n", {})
    mask = m.taint
    assert m.aex(VEC_EXT_INT)
    assert m.ssa[0].taint == mask and m.taint == 0
    m.eresume()
    assert m.taint == mask and not m.influenced


def test_planes_survive_a_store_load_round_trip_and_memcpy():
    src = """
    store [rbp+0], r8
    store [rbp+8], r9
    load rax, [rbp+8]
    memcpy rsi, rbp, rdx
    halt $0
"""
    m, prog = _two_planes(src, {"rbp": DATA, "rsi": DATA + 0x200,
                                "rdx": 16})
    assert run(m, prog) == "halt"
    assert m.taint >> RAX & LABELS == ORIGINS[R9]
    assert m.mem.labels == {DATA: ORIGINS[R8], DATA + 8: ORIGINS[R9],
                            DATA + 0x200: ORIGINS[R8],
                            DATA + 0x208: ORIGINS[R9]}
    assert not m.influenced


# ---------------------------------------------------------------------------
# generated straight-line programs: a clean run ignores the payload value
# ---------------------------------------------------------------------------

_PAYLOAD = ("rax", "rbx", "rcx", "r8")     # labelled, set to the payload
_FIXED = ("rdx", "rsi", "rbp", "rsp")      # unlabelled, fixed addresses
_REGS = _PAYLOAD + _FIXED
_WORDS = st.sampled_from([0, 8, 16, DATA, DATA + 0x100, DATA + 0x7F8, PUB,
                          CODE, MASK64])

_plain_line = st.one_of(
    st.tuples(st.just("mov {0}, {1}"), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.just("mov {0}, ${1}"), st.sampled_from(_REGS), _WORDS),
    st.tuples(st.just("add {0}, ${1}"), st.sampled_from(_REGS),
              st.sampled_from([8, 0x100])),
    st.tuples(st.just("sub {0}, ${1}"), st.sampled_from(_REGS),
              st.sampled_from([8, 0x100])),
    st.tuples(st.just("load {0}, [{1}+8]"), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.just("store [{1}+8], {0}"), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.just("push {0}"), st.sampled_from(_REGS), st.just("")),
    st.tuples(st.just("pop {0}"), st.sampled_from(_REGS), st.just("")),
    st.tuples(st.just("cmpj {0}, {1}, eq, {skip}"), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.just("memcpy {0}, {1}, rdx"), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.just("scrub {0}"), st.sampled_from(_REGS), st.just("")),
    st.tuples(st.just("and {0}, ${1}"), st.sampled_from(_REGS),
              st.sampled_from([7, MASK64 & ~7])),
    st.tuples(st.just("cmpj {0}, ${1}, lt, {skip}"), st.sampled_from(_REGS),
              _WORDS),
)
# Two lines in three work on two shared cells, so that a labelled word is
# often stored, copied, loaded again and used as an address: a payload
# register is stored at [rbp] (rbp starts at DATA), memcpy moves rdx = 16
# bytes from there to [rsi] (PUB), and [rsi] loads into rdi, which no other
# line touches, right before rdi is used as an address.  Both cells start
# out holding a data address.
_shared_line = st.one_of(
    st.tuples(st.just("store [rbp+0], {0}"), st.sampled_from(_PAYLOAD),
              st.just("")),
    st.tuples(st.just("memcpy rsi, rbp, rdx"), st.just(""), st.just("")),
    st.tuples(st.just("load rdi, [rsi+0]\n    load {0}, [rdi+8]"),
              st.sampled_from(_REGS), st.just("")),
)
_line = st.integers(0, 2).flatmap(lambda n: _shared_line if n
                                  else _plain_line)


def _program(lines) -> str:
    out = []
    for i, (fmt, x, y) in enumerate(lines):
        out.append(f"l{i}:")
        out.append("    " + fmt.format(x, y, skip=f"l{min(i + 2, len(lines))}"))
    out += [f"l{len(lines)}:", "    halt $0"]
    return "\n".join(out)


def _raw_machine(source: str):
    """A raw machine for a straight-line program: a secret word in the
    data page, and the shared cells holding a data address."""
    m, prog = make_raw_machine(source, data_secret={DATA + 0x108: 7})
    for cell in (DATA, PUB):
        m.mem.write(cell, DATA + 0x100, 0)
    return m, prog


def _straight_line_run(source: str, words: dict):
    """The straight-line run with each payload register holding its word
    of `words`, on its own origin plane."""
    m, prog = _raw_machine(source)
    fixed = {"rdx": 16, "rsi": PUB, "rbp": DATA, "rsp": DATA + 0x800,
             "rdi": DATA}
    for name in _REGS + ("rdi",):
        m.regs[REG_IDS[name]] = fixed.get(name, words.get(name))
    m.taint |= _OWN_PLANES
    return m, run(m, prog)


# each payload register's own origin plane, as a register label mask
_OWN_PLANES = sum(ORIGINS[REG_IDS[name]] << REG_IDS[name]
                  for name in _PAYLOAD)


@settings(max_examples=400, deadline=None)
@given(st.lists(_line, min_size=1, max_size=12), _WORDS, _WORDS)
def test_a_clean_run_gives_the_same_trace_under_any_payload(lines, p1, p2):
    assume(p1 != p2)
    source = _program(lines)
    # one word in every payload register, each on its own plane, as in the
    # search's first binding
    m1, sig1 = _straight_line_run(source, dict.fromkeys(_PAYLOAD, p1))
    if m1.influenced:
        return
    m2, sig2 = _straight_line_run(source, dict.fromkeys(_PAYLOAD, p2))
    assert m2.trace == m1.trace and sig2 == sig1
    assert not m2.influenced
    # the label words, secret taint and payload both
    assert m2.mem.labels == m1.mem.labels and m2.taint == m1.taint


@settings(max_examples=400, deadline=None)
@given(st.lists(_line, min_size=1, max_size=12), _WORDS, st.integers(0))
def test_registers_off_the_influenced_planes_can_take_any_value(lines, p,
                                                                seed):
    # each payload register on its own plane: every register whose plane
    # no sink saw gets an independent random word, and the run repeats
    source = _program(lines)
    m1, sig1 = _straight_line_run(source, dict.fromkeys(_PAYLOAD, p))
    rng = random.Random(seed)
    words = {name: p if m1.influenced & ORIGINS[REG_IDS[name]]
             else rng.getrandbits(64) for name in _PAYLOAD}
    m2, sig2 = _straight_line_run(source, words)
    assert m2.trace == m1.trace and sig2 == sig1 and m2.cycle == m1.cycle
    assert m2.influenced == m1.influenced
    assert m2.mem.labels == m1.mem.labels and m2.taint == m1.taint


# ---------------------------------------------------------------------------
# the rsp plane: rsp words a recorded path admits
# ---------------------------------------------------------------------------

def _unmonitored(pc: int, sp: int) -> bool:
    """The stack test of a raw program, whose trace no monitor reads."""
    return True


def _rsp_labelled(source: str, rsp: int):
    """A raw machine with rsp = `rsp` on the rsp plane, recording its path
    into a fresh RspPath, the path and the program."""
    m, prog = make_raw_machine(source)
    m.regs[RSP] = rsp
    m.taint = ORIGINS[RSP] << RSP
    path = RspPath(rsp)
    m.path = path.run()
    return m, path, prog


def test_a_narrow_and_clears_the_rsp_plane_and_a_wide_one_keeps_it():
    # rsp & 7 is the same across words with the same low bits; rsp & ~7
    # stays rsp plus a constant across them
    m, path, prog = _rsp_labelled("    mov rax, rsp\n    mov rbx, rsp\n"
                                  "    and rax, $7\n    and rbx, $-8\n"
                                  "    halt $0\n", DATA + 0x804)
    assert run(m, prog) == "halt"
    assert m.taint >> RAX & LABELS == 0
    assert m.taint >> RBX & LABELS == ORIGINS[RSP]
    assert path.admits(DATA + 0x104, m.mem, _unmonitored)
    assert not path.admits(DATA + 0x100, m.mem, _unmonitored)


def test_pop_rsp_keeps_the_rsp_plane():
    # pop rsp leaves rsp at the popped address + 8
    m, path, prog = _rsp_labelled("    push rax\n    pop rsp\n    halt $0\n",
                                  DATA + 0x800)
    assert run(m, prog) == "halt"
    assert m.regs[RSP] == DATA + 0x800
    assert m.taint >> RSP & LABELS == ORIGINS[RSP]


def test_a_word_whose_stores_would_hit_a_cell_read_at_a_fixed_address():
    # the push at rsp - 8 is the first store on the plane; the load at the
    # fixed address DATA after it would read the pushed word at rsp = DATA
    # + 8, so that word is not admitted, while one whose push stays off
    # DATA is
    source = ("    push rax\n    load rbx, [rbp+0]\n"
              "    cmpj rbx, $0, eq, done\n    mov rcx, $1\ndone:\n"
              "    halt $0\n")
    m, path, prog = _rsp_labelled(source, DATA + 0x800)
    m.regs[RAX] = 5
    m.regs[REG_IDS["rbp"]] = DATA
    assert run(m, prog) == "halt"
    assert path.admits(DATA + 0x400, m.mem, _unmonitored)
    assert not path.admits(DATA + 8, m.mem, _unmonitored)


# staged stack pointers: inside the data page, at its edges, in public
# memory, in code and unmapped
_RSP_WORDS = (DATA + 0x800, DATA + 0x808, DATA + 0x7F0, DATA + 0x100,
              DATA + 0x108, DATA + 0xFF8, PUB + 0x800, PUB + 0x808,
              CODE + 0x10, 0, 8, MASK64 & ~7)


def _rsp_run(source: str, payload: int, rsp: int, path=None):
    """The straight-line run with the payload registers and the staged
    `rsp` each on its own origin plane, recording into `path`."""
    m, prog = _raw_machine(source)
    fixed = {"rdx": 16, "rsi": PUB, "rbp": DATA, "rsp": rsp, "rdi": DATA}
    for name in _REGS + ("rdi",):
        m.regs[REG_IDS[name]] = fixed.get(name, payload)
    m.taint |= _OWN_PLANES | ORIGINS[RSP] << RSP
    m.path = path
    return m, run(m, prog)


@settings(max_examples=400, deadline=None)
@given(st.lists(_line, min_size=1, max_size=12), _WORDS,
       st.sampled_from(_RSP_WORDS))
def test_rsp_words_a_recorded_path_admits_give_shifted_traces(lines, p, w1):
    # every other staged rsp that satisfies the predicates the run at w1
    # recorded repeats it: the same signal and cycles, and a trace whose
    # fields differ only by the difference of the words
    source = _program(lines)
    path = RspPath(w1)
    m1, sig1 = _rsp_run(source, p, w1, path.run())
    for w2 in _RSP_WORDS:
        if w2 == w1 or not path.admits(w2, m1.mem, _unmonitored):
            continue
        m2, sig2 = _rsp_run(source, p, w2)
        assert sig2 == sig1 and m2.cycle == m1.cycle, hex(w2)
        assert agreement.shifted_from(m2.trace, m1.trace,
                                      (w2 - w1) & MASK64) == -1, hex(w2)


# ---------------------------------------------------------------------------
# labels and the canonical state
# ---------------------------------------------------------------------------

def _staged(actions: list) -> list:
    """The plan with each entry's registers staged first, so that the
    payload labels apply at every entry."""
    out = []
    for action in actions:
        if isinstance(action, Eenter) and action.regs is not None:
            out += [PrepareRegs(action.regs),
                    Eenter(action.cmd, None, action.aep)]
        else:
            out.append(action)
    return out


def _recorded(image, sgx: int, actions: list, payload=()):
    """The trace lines with per-event digests of a recorded run, and the
    run."""
    m = build_machine(image, sgx)
    rec = reporting.TraceRecorder(m)
    res = run_plan(m, image, actions, on_action=rec.on_action,
                   after_events=rec.after_events, payload=payload)
    rec.flush()
    return rec.lines, res


def _carries_payload(m) -> bool:
    """Whether a register, saved-frame slot or cell has an origin plane's
    label: a register mask any bit past its secret plane."""
    return bool(m.taint & ~SECRET_REGS
                or any(w & PAYLOADS for w in m.mem.labels.values())
                or any(f.taint & ~SECRET_REGS for f in m.ssa))


def test_labels_stay_out_of_canonical_state_and_travel_with_clones():
    src = """
    mov rbx, rax
    store [rbp+0], rbx
    load rcx, [rbp+0]
    cmpj rcx, $0, eq, done
done:
    halt $0
"""
    m, prog = make_raw_machine(src)
    m.regs[REG_IDS["rbp"]] = DATA
    m.regs[RAX] = 3
    plain, marked = m.clone(), m.clone()
    marked.taint = PLANE << RAX
    for _ in range(5):
        step(plain, prog)
        step(marked, prog)
    assert payload_cells(marked) == {DATA} and marked.influenced
    assert plain.canonical() == marked.canonical()
    assert plain.digest() == marked.digest()

    marked.ssa[0].taint = PLANE << RSP
    copy = marked.clone()
    assert copy.taint == marked.taint
    assert copy.mem.labels == marked.mem.labels
    assert copy.mem.labels is not marked.mem.labels
    assert copy.ssa[0].taint == PLANE << RSP
    assert copy.influenced

    # recorded runs: labelling the payload registers changes no trace line
    # and no per-event digest
    sdk = build_runtime("sdk_style")
    runs = [("sdk_style scripted", sdk, SGX2,
             scripted_attack(sdk, SGX2).actions)]
    for variant in VARIANTS:
        image = build_runtime(variant)
        for sgx in (SGX1, SGX2):
            runs.append((f"{variant} benign sgx{sgx}", image, sgx,
                         _staged(benign_plan())))
    assert len(runs) == 17
    for name, image, sgx, actions in runs:
        plain, res = _recorded(image, sgx, actions)
        lines, labelled_res = _recorded(image, sgx, actions, PAYLOAD_REGS)
        assert lines == plain, name
        assert res.status == labelled_res.status, name
        # the labelled run ends with payload labels, the plain one without
        assert not _carries_payload(res.machine), name
        assert _carries_payload(labelled_res.machine), name




# ---------------------------------------------------------------------------
# the search: covered plans and the executed count
# ---------------------------------------------------------------------------

def test_covered_plans_repeat_their_representatives():
    # every plan not executed is covered by its clean representative or
    # counted by its rsp class, and the two oracles compare each once
    with agreement.covered() as compared, \
            agreement.classes() as (_, walked):
        for variant, sgx in (("dedicated_stack", SGX2), ("sdk_style", SGX1)):
            before = len(compared) + len(walked)
            out = exhaustive_attacker(build_runtime(variant), sgx,
                                      sp_mode="range")
            assert isinstance(out, NoneFound)
            assert (len(compared) + len(walked) - before
                    == out.stats.runs - out.stats.executed)


@pytest.mark.parametrize("off", (-1, 1))
def test_the_covered_oracle_catches_a_one_step_count_off_by_a_binding(
        monkeypatch, off):
    # the bindings after a branch's last run are counted in one call of the
    # wrapped name; a count that adds one binding too few or too many must
    # disagree with the plans the oracle runs
    count_covered = adversary._count_covered

    def miscounted(space, cmd, rsp, payloads, group, clean, stats):
        count_covered(space, cmd, rsp, payloads, group, clean, stats)
        if len(payloads) > 1:
            stats.runs += off * len(group.shapes)
            stats.steps += off * group.steps
            stats.boundaries += off * group.boundaries

    monkeypatch.setattr(adversary, "_count_covered", miscounted)
    with pytest.raises(agreement.Mismatch, match="^covered: group of "):
        with agreement.covered():
            exhaustive_attacker(build_runtime("dedicated_stack"), SGX2)


@pytest.mark.parametrize("variant,sgx", (("sdk_style", SGX1),
                                         ("dedicated_stack", SGX2)))
def test_a_counted_branch_builds_no_entry_and_counts_in_one_step(
        monkeypatch, variant, sgx):
    # per branch: the payload words whose entry was built, those of the
    # bindings that ran a plan, and the calls of the count function
    image = build_runtime(variant)
    words = adversary.search_space(image, sgx).words
    assert len(set(words)) == len(words)    # a payload word names a binding
    branches = []
    entry, search_branch = (adversary.SearchSpace.entry,
                            adversary._search_branch)
    attempt, count_covered = adversary._attempt, adversary._count_covered

    def recorded_branch(space, cmd_i, rsp_i, stats, spent):
        branches.append((stats, [], set(), []))
        return search_branch(space, cmd_i, rsp_i, stats, spent)

    def recorded_entry(space, cmd, rsp, payload):
        branches[-1][1].append(payload)
        return entry(space, cmd, rsp, payload)

    def recorded_attempt(space, staged, *args):
        branches[-1][2].add(dict(staged[0].regs)["r8"])
        return attempt(space, staged, *args)

    def recorded_count(space, *args):
        branches[-1][3].append(args)
        count_covered(space, *args)

    monkeypatch.setattr(adversary, "_search_branch", recorded_branch)
    monkeypatch.setattr(adversary.SearchSpace, "entry", recorded_entry)
    monkeypatch.setattr(adversary, "_attempt", recorded_attempt)
    monkeypatch.setattr(adversary, "_count_covered", recorded_count)
    out = exhaustive_attacker(image, sgx)
    assert isinstance(out, NoneFound)
    assert len(branches) == out.stats.branches
    assert sum(b[0].classed for b in branches) == out.stats.classed > 0
    for stats, built, ran, counts in branches:
        # an entry is built once per binding that runs a plan, and only then
        assert sorted(built) == sorted(ran)
        if stats.classed:
            assert built == [] and len(counts) == 1
            assert counts[0][2] == words[1:]


# the hunt's budget and class lists, the survey's VULN pairs, and the
# designs the survey certifies SAFE
_HUNT_BUDGET = harness.SearchBudget(max_runs=64, boundary_cap=8)
_HUNT_CLASS_LISTS = ((VEC_PAGE_FAULT, VEC_EXT_INT),
                     (VEC_EXT_INT, VEC_PAGE_FAULT), (VEC_PAGE_FAULT,),
                     (VEC_EXT_INT,))
_VULN_PAIRS = (("sdk_style", SGX2), ("open_enclave_style", SGX1),
               ("open_enclave_style", SGX2), ("enarx_style", SGX1),
               ("enarx_style", SGX2))
_SAFE_PAIRS = (("sdk_style", SGX1),) + tuple(
    (v, sgx) for v in ("dedicated_stack", "nssa_disabled",
                       "graphene_emulated", "hw_reentry_mask", "hw_irq_quota")
    for sgx in (SGX1, SGX2))


def test_a_search_records_only_what_it_reads(monkeypatch):
    # at the hunt's budget, a representative's branch after which the
    # search stops records no rsp path past its dry run, and a dry run
    # with page faults alone keeps only its boundary-0 point; the outcome
    # and every counter equal those of the search with both forced on,
    # with one process and with a worker per command
    path_unread, kept_boundaries = (adversary._path_unread,
                                    adversary._kept_boundaries)
    skipped, kept = [], []

    def recorded_unread(*args):
        skipped.append(path_unread(*args))
        return skipped[-1]

    def recorded_kept(space):
        kept.append(kept_boundaries(space))
        return kept[-1]

    def searches(workers):
        return [exhaustive_attacker(build_runtime(variant), sgx,
                                    classes=classes, budget=_HUNT_BUDGET,
                                    workers=workers)
                for variant, sgx in _VULN_PAIRS + _SAFE_PAIRS
                for classes in _HUNT_CLASS_LISTS]

    monkeypatch.setattr(multiprocessing, "get_context",
                        stub_pool_context([]))
    monkeypatch.setattr(adversary, "_path_unread", recorded_unread)
    monkeypatch.setattr(adversary, "_kept_boundaries", recorded_kept)
    got = searches(1)
    assert True in skipped and 0 in kept
    assert [_counters(out.stats) for out in searches(2)] == [
        _counters(out.stats) for out in got]
    monkeypatch.setattr(adversary, "_path_unread", lambda *args: False)
    monkeypatch.setattr(adversary, "_kept_boundaries",
                        lambda space: space.budget.boundary_cap)
    want = searches(1)
    assert {type(out) for out in want} == {Counterexample,
                                           adversary.BudgetExceeded}
    for out, ref in zip(got, want):
        assert type(out) is type(ref)
        assert getattr(out, "branch", None) == getattr(ref, "branch", None)
        assert _counters(out.stats) == _counters(ref.stats)


def test_the_default_budget_records_every_path(monkeypatch):
    # the survey's budget outlasts every branch: no path stops early, and
    # sdk_style sgx1 still counts 24 of its 36 branches by class
    path_unread = adversary._path_unread
    skipped = []

    def recorded(*args):
        skipped.append(path_unread(*args))
        return skipped[-1]

    monkeypatch.setattr(adversary, "_path_unread", recorded)
    out = exhaustive_attacker(build_runtime("sdk_style"), SGX1)
    assert isinstance(out, NoneFound)
    assert (out.stats.classed, out.stats.branches) == (24, 36)
    assert skipped and not any(skipped)


def test_pruning_stays_sound_where_the_payload_matters(monkeypatch):
    # with the monitor silenced, a VULN variant's search enumerates plans
    # whose payload lands on the anchor; their representatives are
    # influenced, so every binding of those shapes runs: more plans run
    # than the first bindings' plans that no rsp class counts
    class Silent:
        violated = False
    monkeypatch.setattr(adversary, "_monitored", lambda cp, trace: Silent())
    with agreement.covered() as compared, \
            agreement.classes() as (_, walked):
        out = exhaustive_attacker(build_runtime("open_enclave_style"), SGX2)
    assert isinstance(out, NoneFound)
    groups = out.stats.runs // len(adversary.search_space(
        build_runtime("open_enclave_style")).words)
    assert out.stats.executed > groups - len(walked)
    assert len(compared) + len(walked) == out.stats.runs - out.stats.executed


def test_rsp_classes_count_what_their_branches_give():
    # every first binding an rsp class counts is walked plan by plan next to
    # its representative's: same status, steps, boundaries and verdicts,
    # and traces that differ only by the two words' difference
    with agreement.classes() as (branches, walked):
        for variant, sgx in (("dedicated_stack", SGX2), ("sdk_style", SGX1)):
            for mode in ("range", "strict"):
                before = len(branches)
                out = exhaustive_attacker(build_runtime(variant), sgx,
                                          sp_mode=mode)
                assert isinstance(out, NoneFound)
                assert len(branches) - before == out.stats.classed > 0
    assert walked


def _sdk_testing_the_saved_stack_word():
    """sdk_style whose exception flow tests the low bits of the word at the
    saved stack pointer rather than of the pointer itself: a load on the
    rsp plane of a cell the run never wrote."""
    image = build_runtime("sdk_style")
    old = "    mov r12, r10\n    and r12, $15\n"
    source = runtimes.generate_source("sdk_style")
    assert source.count(old) == 1
    source = source.replace(old, "    load r12, [r10+0]\n    and r12, $15\n")
    return image._replace(program=isa.assemble(
        source, image.program.base, runtimes._symbols(image.layout)))


def test_the_classes_oracle_catches_a_recorder_without_compare_predicates(
        monkeypatch):
    monkeypatch.setattr(interp.RspPath, "compare", lambda *args: None)
    with pytest.raises(agreement.Mismatch, match="^classes: "):
        with agreement.classes():
            exhaustive_attacker(build_runtime("sdk_style"), SGX1)


def test_the_classes_oracle_catches_a_recorder_without_the_load_cell_rule(
        monkeypatch):
    # no stock variant loads a cell on the rsp plane that its run did not
    # write, so the rule is exercised through a variant that does
    image = _sdk_testing_the_saved_stack_word()
    with agreement.classes():
        assert isinstance(exhaustive_attacker(image, SGX1), NoneFound)
    monkeypatch.setattr(interp.RspPath, "stored", lambda self, d: True)
    with pytest.raises(agreement.Mismatch, match="^classes: "):
        with agreement.classes():
            exhaustive_attacker(image, SGX1)


def test_the_classes_oracle_catches_class_totals_one_step_off(monkeypatch):
    real = adversary._rsp_class

    def off(space, cmd, word):
        cls, counted = real(space, cmd, word)
        if counted:
            runs, steps, boundaries = cls.totals
            cls.totals = (runs, steps + 1, boundaries)
        return cls, counted

    monkeypatch.setattr(adversary, "_rsp_class", off)
    with pytest.raises(agreement.Mismatch, match="^classes: .* sum to "):
        with agreement.classes():
            exhaustive_attacker(build_runtime("dedicated_stack"), SGX2)


def test_the_resumed_oracle_catches_a_resume_that_shares_its_point(
        monkeypatch):
    # on dedicated_stack sgx2 both injected classes resume from boundary 0;
    # if the first took the point's machine instead of a copy, the second
    # would resume from the machine the first ran on
    image = build_runtime("dedicated_stack")
    with agreement.resumed() as compared:
        assert isinstance(exhaustive_attacker(image, SGX2), NoneFound)
    assert compared
    monkeypatch.setattr(harness.Point, "copy", lambda self: self)
    with pytest.raises(agreement.Mismatch, match="^resumed: "):
        with agreement.resumed():
            exhaustive_attacker(image, SGX2)


def test_the_roots_oracle_catches_root_lines_one_line_short(monkeypatch):
    sc = agreement.canonical("scripted_sdk_sgx2")
    with agreement.roots() as compared:
        explorer.run(sc)
    assert len(compared) == 1
    image = explorer._image_for(sc)
    monkeypatch.setattr(image.program, "roots", {})
    real = harness.Root.__init__

    def short(self, machine, image, recorder):
        real(self, machine, image, recorder)
        self.lines = self.lines[:-1]

    monkeypatch.setattr(harness.Root, "__init__", short)
    with pytest.raises(agreement.Mismatch, match="^roots: .*lines"):
        with agreement.roots():
            explorer.run(sc)


def test_the_roots_oracle_catches_an_after_point_one_step_early(
        monkeypatch):
    # the window point one step before the prefix's end resumes the plan
    # exactly, but the recorder, starting from the prefix's lines, records
    # the last step's events a second time
    sc = agreement.canonical("scripted_sdk_sgx2")
    image = explorer._image_for(sc)
    monkeypatch.setattr(image.program, "roots", {})
    real = harness.Root.__init__

    def early(self, machine, image, recorder=None):
        real(self, machine, image, recorder)
        run = run_plan(harness.Root.copy(self.fresh, image.program), image,
                       harness.prefix_plan(), keep=self.after.boundaries)
        point = run.points[-1]
        assert point.steps == self.after.steps - 1
        point.machine.mem.fetch_program = None
        self.after = point

    monkeypatch.setattr(harness.Root, "__init__", early)
    with pytest.raises(agreement.Mismatch, match="^roots: .*lines"):
        with agreement.roots():
            explorer.run(sc)


def test_the_recalled_oracle_catches_a_kept_run_without_its_first_point(
        monkeypatch):
    sc = agreement.canonical("exhaustive_sdk_sgx2")
    actions = [reporting.action_from_line(ln)
               for ln in explorer.run(sc).trace_lines if ln.startswith("A ")]
    with agreement.recalled() as compared:
        explorer.minimize(sc, actions)
    assert len(compared) == 1
    real = explorer._remember

    def short(scenario, actions, res, verdicts):
        real(scenario, actions, res._replace(points=res.points[1:]), verdicts)

    monkeypatch.setattr(explorer, "_remember", short)
    explorer.run(sc)
    with pytest.raises(agreement.Mismatch, match="^recalled: .*points"):
        with agreement.recalled():
            explorer.minimize(sc, actions)


def test_an_oracle_whose_name_is_gone_raises(monkeypatch):
    # a renamed name must not turn the oracle into a no-op: every name an
    # oracle wraps is checked
    for owner, name, oracle in (
            (adversary, "_count_covered", agreement.covered),
            (adversary, "_rsp_class", agreement.classes),
            (adversary, "run_plan", agreement.resumed),
            (adversary, "_prefix_snapshot", agreement.resumed),
            (adversary, "_monitored", agreement.monitored),
            (explorer, "_fires", agreement.trials),
            (explorer, "_unread", agreement.trials),
            (explorer, "_repeated", agreement.trials),
            (Machine, "digest", agreement.digests),
            (explorer, "replay", agreement.digests),
            (explorer, "_execute", agreement.roots),
            (harness.Root, "start", agreement.roots),
            (explorer, "_recall", agreement.recalled)):
        with monkeypatch.context() as patch:
            patch.delattr(owner, name)
            with pytest.raises(AttributeError,
                               match=f"{owner.__name__}.{name} is gone"):
                with oracle():
                    pass


def test_counterexample_is_found_by_an_executed_run():
    out = exhaustive_attacker(build_runtime("sdk_style"), SGX2)
    assert isinstance(out, Counterexample)
    assert out.branch == (0, 0, 0, 0, 14)
    assert out.stats.runs == out.stats.executed == 2


def test_dedicated_stack_executes_one_plan_per_shape(tmp_path, capsys):
    # 3 commands x 12 rsp words x 16 shapes (a dry run plus 15 injections)
    # = 576 groups of 12 payload bindings each; every representative runs
    # clean, so at most one plan per group executes, and one rsp class per
    # command counts the first binding of 11 of its 12 branches: only the
    # 48 shapes of the three representative branches execute
    scenario = reporting.normalize_scenario({
        "variant": "dedicated_stack", "sgx_version": 2,
        "adversary": "exhaustive"})
    path = tmp_path / "scenario.json"
    path.write_text(reporting.dumps_scenario(scenario))
    assert cli.main(["run", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    assert "executed 48 of 6912 plans;" in err
    report = (tmp_path / "out" / "report.json").read_text()
    assert '"executed"' not in report


def test_matrix_status_line_counts_each_certification_once(tmp_path,
                                                           capsys):
    # sgx2: sdk, open enclave and enarx stop at their second plan; graphene
    # runs 64 of 6336, nssa_disabled 44 of 6336 and dedicated_stack 48 of
    # 6912.  Rows that share a certification are counted once.
    assert cli.main(["matrix", "--sgx", "2", "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "executed 162 of 19590 plans;" in err


def test_status_line_counts_the_instructions_stepped(tmp_path, capsys):
    # each of the 45 executed injected plans resumes from its dry run's
    # point and steps only what follows it; run from the prefix snapshot,
    # the 48 executed plans would step 2,154 instructions
    scenario = reporting.normalize_scenario({
        "variant": "dedicated_stack", "sgx_version": 2,
        "adversary": "exhaustive"})
    path = tmp_path / "scenario.json"
    path.write_text(reporting.dumps_scenario(scenario))
    assert cli.main(["run", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    assert ("executed 48 of 6912 plans; stepped 1734 instructions; "
            "wall time ") in err
    assert '"stepped"' not in (tmp_path / "out" / "report.json").read_text()


# ---------------------------------------------------------------------------
# group counting against a plan-by-plan walk
# ---------------------------------------------------------------------------

def _plan_by_plan(image, sgx_version, classes, budget, grant, sp_mode):
    """The search walked plan by plan.  Each branch's rsp class is decided
    through `adversary._rsp_class`.  A plan counted without a run, one of
    a first binding its class counts, or of a later binding whose shape
    has a clean representative, adds one run, its representative's steps
    and, when it injects, one boundary; every other plan runs through
    `adversary._attempt`, in plan order, resuming from a copy of its
    point.  Returns the stats, the counterexample's branch (None without
    one) and the number of covered plans of the counterexample's binding
    counted before it."""
    space = adversary.search_space(image, sgx_version, classes, budget,
                                   grant, sp_mode)
    inside = tuple(v for v in space.classes if v != VEC_PAGE_FAULT)
    stats = adversary.SearchStats()
    for cmd_i, cmd in enumerate(space.commands):
        for rsp_i, rsp in enumerate(space.words):
            cls, counted = adversary._rsp_class(space, cmd, rsp)
            stats.branches += 1
            stats.classed += counted
            for pay_i, payload in enumerate(space.words):
                entry = space.entry(cmd, rsp, payload)
                points, covered = (), 0
                # the plans counted without a run, by shape
                rows = (cls.clean if pay_i else cls.shapes if counted
                        else {})
                # the plans of a representative's first binding, labelled
                rep = None if pay_i or counted else cls

                def walk(inject):
                    """One plan: its boundaries and whether it violates."""
                    nonlocal points, covered
                    row = rows.get(inject)
                    if row is not None:
                        stats.runs += 1
                        stats.steps += row[1]
                        covered += 1
                        return row[2], False
                    _, res = adversary._attempt(
                        space, entry, inject, points, False, rep, stats)
                    if inject is None:
                        points = res.points
                    monitor = adversary._monitored(space.checkpoint,
                                                   res.trace)
                    return res.boundaries, monitor.violated

                dry, violated = walk(None)
                if violated:
                    return stats, (cmd_i, rsp_i, pay_i, -1, -1), covered
                for k in range(min(dry, space.budget.boundary_cap) + 1):
                    for vec in space.classes if k == 0 else inside:
                        _, violated = walk((vec, k))
                        stats.boundaries += 1
                        if violated:
                            return (stats, (cmd_i, rsp_i, pay_i, k, vec),
                                    covered)
            if stats.runs >= space.budget.max_runs:
                return stats, None, 0
    return stats, None, 0


def _counters(stats) -> dict:
    """All eight counters of a SearchStats, including those reports leave
    out."""
    return {name: getattr(stats, name)
            for name in adversary.SearchStats.__slots__}


def _survey_searches(monkeypatch) -> list:
    """The searches of the survey: every matrix certification on sgx 1 and
    2 and the two hardware mitigations on sgx 2, each as (args, kwargs,
    outcome)."""
    search = adversary.exhaustive_attacker
    calls = []

    def recorded(*args, **kwargs):
        out = search(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(adversary, "exhaustive_attacker", recorded)
    for sgx in (SGX2, SGX1):
        explorer.run_matrix(explorer.load_mapping(), sgx)
    for variant in ("hw_reentry_mask", "hw_irq_quota"):
        explorer.run(reporting.normalize_scenario(
            {"variant": variant, "sgx_version": 2,
             "adversary": "exhaustive"}))
    return calls


def test_group_counting_equals_the_plan_by_plan_walk(monkeypatch):
    calls = _survey_searches(monkeypatch)
    assert len(calls) == 14
    outcomes = set()
    for (image, sgx), kwargs, out in calls:
        kwargs = {k: v for k, v in kwargs.items() if k != "workers"}
        stats, branch, _ = _plan_by_plan(image, sgx, **kwargs)
        assert _counters(out.stats) == _counters(stats), (image.variant, sgx)
        assert getattr(out, "branch", None) == branch, (image.variant, sgx)
        outcomes.add(type(out))
    assert outcomes == {Counterexample, NoneFound}


def test_a_counterexample_mid_binding_counts_the_covered_plans_before_it(
        monkeypatch):
    # flag the first executed injected plan of a later binding, with every
    # other plan silent: its binding's covered shapes before it are
    # counted, those after it are not
    image = build_runtime("open_enclave_style")
    executed, groups = [], {}
    attempt, count_covered = adversary._attempt, adversary._count_covered

    class Silent:
        violated = False

    class Flagged:
        violated = True

        def verdicts(self):
            return []

    def recorded_attempt(*args):
        # of a representative's first binding, inject
        executed.append((args[5] is not None, args[2]))
        return attempt(*args)

    def recorded_group(space, cmd, rsp, payloads, group, clean, stats):
        groups.setdefault((cmd, rsp, payloads), []).append(group)
        count_covered(space, cmd, rsp, payloads, group, clean, stats)

    monkeypatch.setattr(adversary, "_attempt", recorded_attempt)
    monkeypatch.setattr(adversary, "_count_covered", recorded_group)
    monkeypatch.setattr(adversary, "_monitored", lambda cp, trace: Silent())
    assert isinstance(exhaustive_attacker(image, SGX2), NoneFound)
    whole = {binding: got[0] for binding, got in groups.items()}
    target = next(n for n, (first, inject) in enumerate(executed)
                  if not first and inject is not None)

    monitored = []

    def flag_target(checkpoint, trace):
        monitored.append(trace)
        return Flagged() if len(monitored) - 1 == target else Silent()

    monkeypatch.setattr(adversary, "_monitored", flag_target)
    groups.clear()
    out = exhaustive_attacker(image, SGX2)
    assert isinstance(out, Counterexample) and len(monitored) == target + 1
    binding, [before] = groups.popitem()
    assert 0 < len(before.shapes) < len(whole[binding].shapes)
    assert out.branch[2] >= 1 and out.branch[3] >= 0

    monitored.clear()
    stats, branch, covered = _plan_by_plan(
        image, SGX2, (VEC_PAGE_FAULT, VEC_EXT_INT), adversary.SearchBudget(),
        DEFAULT_IRQ_GRANT, "range")
    assert branch == out.branch and covered == len(before.shapes)
    assert _counters(out.stats) == _counters(stats)
