"""Hardware-model unit and property tests: entry/exit/async-exit
semantics, save/restore fidelity, scrubbing, and determinism."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aexlab import adversary
from aexlab.harness import (
    BENIGN_OCALL_RESULT, BENIGN_REGS, Eenter, FlipPerms, InjectAex, run_plan,
)
from aexlab.interp import InterpError, RspPath, in_crit_ranges, step
from aexlab.isa import OP_EMULATE_CRITICAL, OP_WRITE_SSA
from aexlab.machine import (
    E_FAULT, E_HW_AEX, E_HW_EENTER, E_HW_FLIP, E_RETIRE, EntryDenied,
    HW_IRQ_QUOTA, HW_NONE, HW_REENTRY_MASK, HwExt, MachineError, MASK64,
    MODE_ENCLAVE, MODE_OS, NREGS, PERM_R, PERM_W, PERM_X, PRIVATE, PUBLIC, RDI, RIP, RSP,
    ResumeDenied, SCRUB_VALUES, SGX1, SGX2, SYNC_VECTORS, TCS, UnknownPage,
    VEC_DIV, VEC_EXT_INT, VEC_PAGE_FAULT, Memory, Page, reports_to_enclave,
)
from aexlab.runtimes import (
    ASLR_RANGE, CMD_ECALL_COMPUTE, CMD_ORET, Layout, aslr_shift,
    build_machine, build_runtime, layout_regions,
)

from conftest import CODE, DATA, PUB, load_script, make_raw_machine

canonical_digest = load_script("agreement").canonical_digest


def enclave_machine(nssa=2):
    m, prog = make_raw_machine("start:\n    jmp start\n", nssa=nssa)
    return m, prog


# ---------------------------------------------------------------------------
# eenter
# ---------------------------------------------------------------------------

def test_eenter_denied_when_no_slot_free():
    m, _ = enclave_machine(nssa=1)
    m.aex(VEC_EXT_INT)
    assert m.tcs.cssa == 1
    with pytest.raises(EntryDenied) as e:
        m.eenter([0] * NREGS, aep=0x4000)
    assert e.value.reason == "no_free_ssa_slot"


def test_eenter_registers_pass_through():
    m, _ = enclave_machine()
    m.eexit(0x4000)
    os_regs = [0] * NREGS
    os_regs[RDI] = 0xDEAD
    m.eenter(os_regs, aep=0x4000)
    assert m.mode == MODE_ENCLAVE
    assert m.regs[RIP] == m.tcs.entry_point
    assert m.regs[RDI] == 0xDEAD


def test_eenter_then_eexit_identity():
    m, _ = enclave_machine()
    m.eexit(0x4000)
    os_regs = [0x1111 * (i + 1) for i in range(NREGS)]
    m.eenter(list(os_regs), aep=0x4000)
    m.eexit(0x4321)
    for i in range(NREGS):
        if i == RIP:
            assert m.regs[i] == 0x4321
        else:
            assert m.regs[i] == os_regs[i]


def test_eenter_requires_os_mode_and_free_tcs():
    m, _ = enclave_machine()
    with pytest.raises(MachineError):
        m.eenter([0] * NREGS, aep=0)


# ---------------------------------------------------------------------------
# aex / eresume
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("vector,version,valid", [
    (VEC_PAGE_FAULT, SGX1, 0),
    (VEC_PAGE_FAULT, SGX2, 1),
    (VEC_DIV, SGX1, 1),
    (VEC_DIV, SGX2, 1),
    (VEC_EXT_INT, SGX1, 0),
    (VEC_EXT_INT, SGX2, 0),
])
def test_aex_exit_information_validity(vector, version, valid):
    m, _ = enclave_machine()
    m.sgx_version = version
    m.aex(vector)
    frame = m.ssa[0]
    assert frame.valid == valid
    assert frame.vector == vector


def test_reports_to_enclave_sync_family():
    for v in SYNC_VECTORS:
        assert reports_to_enclave(v, SGX1) and reports_to_enclave(v, SGX2)


def test_aex_scrubs_registers():
    m, _ = enclave_machine()
    m.regs = [0xAA00 + i for i in range(NREGS)]
    m.regs[RIP] = CODE
    m.taint = 0b1010
    m.aex(VEC_EXT_INT)
    assert m.mode == MODE_OS
    assert m.taint == 0
    for i in range(NREGS):
        if i == RIP:
            assert m.regs[i] == m.aep
        else:
            assert m.regs[i] == SCRUB_VALUES[i]


def test_aex_eresume_roundtrip_bit_identical():
    m, _ = enclave_machine()
    snapshot = [0xC0FFEE00 + 7 * i for i in range(NREGS)]
    m.regs = list(snapshot)
    m.taint = 0b110011
    m.aex(VEC_PAGE_FAULT)
    m.eresume()
    assert m.regs == snapshot
    assert m.taint == 0b110011
    assert m.mode == MODE_ENCLAVE


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=MASK64), min_size=NREGS,
                max_size=NREGS),
       st.sampled_from(sorted(SYNC_VECTORS | {VEC_PAGE_FAULT, VEC_EXT_INT})),
       st.integers(min_value=0, max_value=(1 << NREGS) - 1))
def test_roundtrip_property(regs, vector, taint):
    m, _ = enclave_machine()
    m.regs = list(regs)
    m.taint = taint
    m.aex(vector)
    m.eresume()
    assert m.regs == list(regs)
    assert m.taint == taint


def test_eresume_denied_when_nothing_saved():
    m, _ = enclave_machine()
    m.eexit(0x4000)
    with pytest.raises(ResumeDenied):
        m.eresume()


def test_eresume_ignores_os_registers():
    # exhaustive over a small register-value domain: the restored file
    # depends on the saved frame alone
    domain = [0, 1, 0xDEAD, MASK64]
    m0, _ = enclave_machine()
    saved = [0xBEEF00 + i for i in range(NREGS)]
    m0.regs = list(saved)
    m0.aex(VEC_EXT_INT)
    for value in domain:
        m = m0.clone()
        m.regs = [value] * NREGS          # OS tampers with live registers
        m.eresume()
        assert m.regs == saved


def test_resume_rip_comes_from_saved_frame():
    m, _ = enclave_machine()
    m.regs[RIP] = CODE
    m.aex(VEC_EXT_INT)
    m.ssa[0].regs[RIP] = CODE  # handler may rewrite it; resume must follow
    m.ssa[0].regs[RIP] = 0x1005
    m.eresume()
    assert m.regs[RIP] == 0x1005


# ---------------------------------------------------------------------------
# entry gating enumeration
# ---------------------------------------------------------------------------

def test_entry_gating_exhaustive():
    # eenter succeeds iff a save slot is free and re-entry is not masked
    for cssa in range(4):
        for nssa in range(4):
            for masked in (False, True):
                m, _ = enclave_machine(nssa=max(nssa, 1))
                m.eexit(0x4000)
                m.tcs.nssa = nssa
                m.tcs.cssa = cssa
                m.hw = HwExt(kind=HW_REENTRY_MASK, masked=masked)
                expect = cssa < nssa and not (masked and cssa >= 1)
                try:
                    m.eenter([0] * NREGS, aep=0x4000)
                    assert expect, (cssa, nssa, masked)
                except EntryDenied:
                    assert not expect, (cssa, nssa, masked)


def test_cssa_bounds_hold_across_transitions():
    m, prog = enclave_machine(nssa=2)
    ops = [lambda: m.aex(VEC_EXT_INT), m.eresume,
           lambda: m.aex(VEC_PAGE_FAULT), m.eresume]
    for op in ops:
        op()
        assert 0 <= m.tcs.cssa <= m.tcs.nssa


# ---------------------------------------------------------------------------
# page permissions
# ---------------------------------------------------------------------------

def test_flip_entry_page_faults_before_first_retire():
    m, prog = enclave_machine()
    m.eexit(0x4000)
    m.os_set_page_perms(CODE, PERM_R)      # non-executable
    m.eenter([0] * NREGS, aep=0x4000)
    mark = len(m.trace)
    sig = step(m, prog)
    assert sig == "fault"
    assert m.pending_fault == VEC_PAGE_FAULT
    assert not any(ev[0] == E_RETIRE for ev in m.trace[mark:])
    m.aex(m.pending_fault)
    assert m.trace[-1][0] == E_HW_AEX
    # restore and re-enter: the first instruction now executes
    m.os_set_page_perms(CODE, PERM_R | PERM_X)
    m.eresume()
    assert step(m, prog) == "ok"


def test_perm_flip_idempotent_digest():
    m, _ = enclave_machine()
    m.eexit(0x4000)
    page = m.mem.page_at(CODE)
    before = m.digest()
    events = len(m.trace)
    m.os_set_page_perms(CODE, page.perms)
    assert m.digest() == before
    assert len(m.trace) == events + 1


def test_unknown_page():
    m, _ = enclave_machine()
    m.eexit(0x4000)
    with pytest.raises(UnknownPage):
        m.os_set_page_perms(0x999000, PERM_R)


# ---------------------------------------------------------------------------
# atomicity extensions
# ---------------------------------------------------------------------------

def test_quota_zero_denies_every_request():
    m, _ = enclave_machine()
    m.hw = HwExt(kind="irq_quota")
    m.eexit(0x4000)
    m.grant_irq_quota(0, 10000)
    m.eenter([0] * NREGS, aep=0x4000)
    assert m.begin_atomic(1) is False
    assert m.begin_atomic(0) is True       # zero-length request fits


def test_quota_defers_injection_inside_section():
    m, _ = enclave_machine()
    m.hw = HwExt(kind="irq_quota")
    m.eexit(0x4000)
    m.grant_irq_quota(100, 10000)
    m.eenter([0] * NREGS, aep=0x4000)
    assert m.begin_atomic(40) is True
    assert m.aex(VEC_EXT_INT) is False     # deferred, not delivered
    assert m.hw.deferred_vector == VEC_EXT_INT
    assert m.mode == MODE_ENCLAVE
    assert m.end_atomic() == VEC_EXT_INT   # delivered at section end


def test_quota_accounting_per_window():
    m, _ = enclave_machine()
    m.hw = HwExt(kind="irq_quota")
    m.eexit(0x4000)
    m.grant_irq_quota(100, 10000)
    m.eenter([0] * NREGS, aep=0x4000)
    assert m.begin_atomic(60)
    m.end_atomic()
    assert m.begin_atomic(60) is False     # 120 > 100 within this window
    m.cycle = 10001                        # next window: quota replenishes
    assert m.begin_atomic(60) is True


def test_mask_cleared_by_end_atomic_and_eexit():
    m, _ = enclave_machine()
    m.hw = HwExt(kind=HW_REENTRY_MASK)
    m.eexit(0x4000)
    m.eenter([0] * NREGS, aep=0x4000)
    assert m.hw.masked
    m.end_atomic()
    assert not m.hw.masked
    m.begin_atomic(0)
    assert m.hw.masked
    m.eexit(0x4000)
    assert not m.hw.masked


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_identical_event_sequences_identical_digests():
    def drive():
        m, prog = enclave_machine()
        m.regs[RSP] = DATA + 0x800
        for _ in range(5):
            step(m, prog)
        m.aex(VEC_EXT_INT)
        m.eresume()
        return m.digest()

    assert drive() == drive()


def test_digest_of_empty_and_one_cell_memory():
    # the cell part is `repr` of a tuple: "()" when empty, and a trailing
    # comma for exactly one cell
    m, _ = enclave_machine()
    assert m.mem.canonical() == []
    assert m.digest() == canonical_digest(m)
    for value, secret in ((5, False), (0, True), (MASK64, True)):
        one, _ = enclave_machine()
        one.mem.write(DATA, value, secret)
        assert len(one.mem.canonical()) == 1
        assert one.digest() == canonical_digest(one)


_WORDS = [DATA, DATA + 8, DATA + 0x800, PUB, PUB + 8]
_digest_ops = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(_WORDS),
              st.sampled_from([0, 1, MASK64]) | st.integers(0, MASK64),
              st.booleans()),
    st.tuples(st.just("perms"), st.integers(0, 2),
              st.integers(0, PERM_R | PERM_W | PERM_X)),
    st.tuples(st.just("eenter")),
    st.tuples(st.just("eexit"), st.sampled_from([CODE, PUB])),
    st.tuples(st.just("aex"),
              st.sampled_from([VEC_EXT_INT, VEC_PAGE_FAULT, VEC_DIV])),
    st.tuples(st.just("eresume")),
    st.tuples(st.just("step"), st.sampled_from([OP_WRITE_SSA,
                                                OP_EMULATE_CRITICAL])),
    st.tuples(st.just("grant"), st.integers(0, 64), st.integers(0, 64)),
    st.tuples(st.just("begin_atomic"), st.integers(0, 16)),
    st.tuples(st.just("end_atomic")),
    st.tuples(st.just("clone")),
)

# The start runs a critical span, so every frame an aex saves before a step
# is interrupted inside it; `emulate_critical` then completes the span
# (one frame rewrite plus a memory write).
_SPAN_PROGRAM = """
    .crit start span
start:
    add rbx, $1
    store [r15+0x20010], rbx
    .crit end span
    jmp start
    write_ssa rbx, rax
    emulate_critical
"""


@pytest.fixture(scope="module")
def graphene_interrupted():
    """A graphene_emulated machine whose ocall return took an async exit
    inside a critical span: in OS mode, one frame saved."""
    img = build_runtime("graphene_emulated")
    m = build_machine(img, SGX2)
    plan = [Eenter.of(CMD_ECALL_COMPUTE, regs=dict(BENIGN_REGS)),
            InjectAex(VEC_EXT_INT, 5),
            Eenter.of(CMD_ORET, regs={"rsp": 0, "rsi": BENIGN_OCALL_RESULT})]
    run_plan(m, img, plan)
    assert m.mode == MODE_OS and m.tcs.cssa == 1
    assert in_crit_ranges(img.program, m.ssa[0].regs[RIP])
    return m, img.program


def _digest_start(start, graphene_interrupted):
    if start == "graphene":
        m, prog = graphene_interrupted
        return m.clone(), prog
    m, prog = make_raw_machine(_SPAN_PROGRAM)
    m.hw = HwExt(kind=start)
    return m, prog


def _step_at(m, prog, op):
    """Step the program's first instruction of opcode `op` once."""
    if m.mode == MODE_ENCLAVE and m.pending_fault < 0:
        m.regs[RIP] = min(pc for pc, ins in prog.code.items()
                          if ins[0] == op)
        step(m, prog)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([HW_NONE, HW_IRQ_QUOTA, HW_REENTRY_MASK, "graphene"]),
       st.lists(_digest_ops, max_size=40))
@example(HW_NONE, [("aex", VEC_EXT_INT), ("eenter",), ("clone",),
                   ("step", OP_WRITE_SSA), ("clone",),
                   ("step", OP_EMULATE_CRITICAL), ("eexit", PUB),
                   ("write", DATA + 0x10, 0, True),
                   ("write", DATA + 0x10, 0, False), ("perms", 1, PERM_R),
                   ("eresume",)])
@example(HW_IRQ_QUOTA, [("aex", VEC_EXT_INT), ("grant", 8, 64),
                        ("eenter",), ("begin_atomic", 4),
                        ("aex", VEC_PAGE_FAULT), ("end_atomic",),
                        ("aex", VEC_PAGE_FAULT), ("eresume",)])
@example(HW_REENTRY_MASK, [("begin_atomic", 1), ("aex", VEC_EXT_INT),
                           ("eenter",), ("end_atomic",), ("eenter",),
                           ("eexit", PUB)])
@example("graphene", [("eenter",), ("clone",),
                      ("step", OP_EMULATE_CRITICAL), ("clone",),
                      ("step", OP_WRITE_SSA), ("eexit", PUB)])
def test_digest_equals_the_canonical_repr(graphene_interrupted, start, ops):
    # digest after every operation, so a cached segment that a mutator
    # failed to clear would show; a clone's writes, frame writes included,
    # must not move its parent's digest
    m, prog = _digest_start(start, graphene_interrupted)
    ancestors = []
    assert m.digest() == canonical_digest(m)
    for op in ops:
        try:
            if op[0] == "write":
                m.mem.write(*op[1:])
            elif op[0] == "perms":
                m.os_set_page_perms(m.mem.pages[op[1]].base, op[2])
            elif op[0] == "eenter":
                m.eenter([0] * NREGS, aep=PUB)
            elif op[0] == "eexit":
                m.eexit(op[1])
            elif op[0] == "aex":
                m.aex(op[1])
            elif op[0] == "eresume":
                m.eresume()
            elif op[0] == "step":
                _step_at(m, prog, op[1])
            elif op[0] == "grant":
                m.grant_irq_quota(op[1], op[2])
            elif op[0] == "begin_atomic":
                m.begin_atomic(op[1])
            elif op[0] == "end_atomic":
                m.end_atomic()
            else:
                ancestors.append((m, m.digest()))
                m = m.clone()
        except (MachineError, EntryDenied, ResumeDenied, InterpError):
            pass
        assert m.digest() == canonical_digest(m)
        for parent, digest in ancestors:
            assert parent.digest() == digest == canonical_digest(parent)


def test_clone_is_independent():
    m, prog = enclave_machine()
    c = m.clone()
    assert c.digest() == m.digest()
    c.mem.write(DATA, 77, False)
    c.regs[0] = 1
    assert c.digest() != m.digest()
    assert m.mem.read(DATA) == (0, False)

    # page tables are shared between clones and copied on a flip
    m.eexit(0x4000)
    parent, sibling = m.digest(), m.clone()
    flipped = m.clone()
    flipped.os_set_page_perms(CODE, PERM_R)
    assert flipped.mem.page_at(CODE).perms == PERM_R
    assert not flipped.mem.executable(CODE)
    for other in (m, sibling):
        assert other.mem.page_at(CODE).perms == PERM_R | PERM_X
        assert other.mem.executable(CODE)
    assert m.digest() == sibling.digest() == parent
    assert flipped.digest() != parent


def test_a_clone_shares_no_mutable_state_with_its_source(
        graphene_interrupted):
    # a machine with a saved frame, extension state and an rsp path whose
    # run has written; every part of its clone is mutated in place
    m = graphene_interrupted[0].clone()
    m.hw = HwExt(kind=HW_IRQ_QUOTA, allowed=8, window=64, used=2)
    m.path = RspPath(m.ssa[0].regs[RSP])
    m.path.written = {8}
    before = (m.canonical(), m.digest(), canonical_digest(m), list(m.trace))
    c = m.clone()
    c.regs[RDI] ^= 1
    c.taint ^= 1
    for name in TCS.__slots__:
        setattr(c.tcs, name, -1)
    for frame in c.ssa:
        frame.regs[RIP] ^= 1
        frame.taint ^= 1
        frame.valid ^= 1
        frame.vector ^= 1
    for name in HwExt.__slots__:
        setattr(c.hw, name, -1)
    c.mem.write(c.mem.pages[0].base, 0x5eed, True)
    c.trace.append((E_RETIRE, 0, 0, 0, 0))
    c.path.written.add(16)
    assert (m.canonical(), m.digest(), canonical_digest(m),
            m.trace) == before
    assert m.path.written == {8}
    assert c.path.preds is m.path.preds     # the branch's, shared


def test_digest_is_canonical_right_after_a_perms_flip():
    # the page permissions' digest text is cached on the machine, and
    # os_set_page_perms clears it
    m, _ = enclave_machine()
    m.eexit(0x4000)
    before = m.digest()
    m.os_set_page_perms(CODE, PERM_R)
    assert m.digest() == canonical_digest(m) != before
    m.os_set_page_perms(CODE, PERM_R | PERM_X)
    assert m.digest() == canonical_digest(m) == before


def test_digest_is_canonical_after_a_flip_on_a_clone():
    # the parent's page text is cached, the clone builds its own; the
    # flip changes the clone's only
    m, _ = enclave_machine()
    m.eexit(0x4000)
    before = m.digest()
    flipped = m.clone()
    flipped.os_set_page_perms(DATA, PERM_R)
    assert flipped.digest() == canonical_digest(flipped) != before
    assert m.digest() == canonical_digest(m) == before


def test_digest_is_canonical_after_writes_to_a_clone_of_a_digested_memory():
    # the parent's cell parts are built, the clone builds its own at its
    # first digest; a write to either re-encodes only the writer's,
    # whichever digests first
    m, _ = enclave_machine()
    m.mem.write(DATA, 5, False)
    m.mem.write(DATA + 8, 0, True)
    before = m.digest()
    c = m.clone()
    c.mem.write(DATA + 16, 7, False)
    assert m.digest() == canonical_digest(m) == before
    assert c.digest() == canonical_digest(c) != before
    c.mem.write(DATA, 0, False)
    c.mem.write(DATA + 8, 0, False)
    assert c.digest() == canonical_digest(c)
    m.mem.write(DATA, 6, False)
    assert c.digest() == canonical_digest(c)
    assert m.digest() == canonical_digest(m) != before


def test_digest_is_canonical_for_extreme_register_words():
    # the registers are rendered by %d, which must give each word's repr
    # at both ends of the 64-bit range
    m, _ = enclave_machine()
    m.eexit(0x4000)
    for i in range(6):
        m.regs[RDI] = MASK64 - i
        m.regs[RSP] = i << 40
        assert m.digest() == canonical_digest(m)


def test_flip_perms_runs_end_to_end_on_a_snapshot_clone():
    # a FlipPerms action through run_plan: the re-entry fetch faults on the
    # flipped code page, in the flipped clone only
    img = build_runtime("sdk_style")
    snapshot = adversary._prefix_snapshot(img, SGX2, None)
    before = snapshot.digest()
    code = img.layout.code_base
    resume = [Eenter.of(CMD_ORET, regs={"rsp": 0, "rsi": 42})]
    flipped = run_plan(snapshot.clone(), img,
                       [FlipPerms(code, PERM_R)] + resume)
    plain = run_plan(snapshot.clone(), img, resume)
    new = flipped.trace[len(snapshot.trace):]
    assert new[:3] == [(E_HW_FLIP, code, PERM_R, 0, 0),
                       (E_HW_EENTER, img.entry, CMD_ORET, 42, 0),
                       (E_FAULT, img.entry, VEC_PAGE_FAULT, img.entry, 0)]
    assert new[3][0] == E_HW_AEX and flipped.steps == 1
    assert not any(ev[0] == E_FAULT for ev in plain.trace)
    assert plain.machine.mem.page_at(code).perms == PERM_R | PERM_X
    assert snapshot.mem.page_at(code).perms == PERM_R | PERM_X
    assert snapshot.digest() == before


def _linear_page_at(mem, addr):
    for p in mem.pages:
        if p.base <= addr < p.base + p.size:
            return p
    return None


@st.composite
def _layouts(draw):
    """Layouts with word-aligned (not page-aligned) region bases in the
    default order, gaps of 0 to 0x1800 bytes, a stack of up to 2**36 bytes,
    and a thread-data page that may overlap the save area (only 0x100 bytes
    are reserved for it here, so the layout check may reject the layout)."""
    gap = lambda: draw(st.integers(0, 0x300)) * 8
    at = 0x1000 + gap()
    code_base, at = at, at + 0x1000 + gap()
    stack_limit = at
    size = draw(st.sampled_from([0x1000, 0x8000, 0x10008, 1 << 36])
                | st.integers(0x100, 0x3000).map(lambda w: w * 8))
    stack_base = stack_limit + size
    at = stack_base + gap()
    td_base, at = at, at + 0x100 + gap()
    bases = {}
    for name in ("ssa_base", "secret_base", "scratch_base", "dedicated_page",
                 "host_base", "pubbuf_base"):
        bases[name], at = at, at + 0x1000 + gap()
    lay = Layout(code_base=code_base, stack_limit=stack_limit,
                 stack_base=stack_base, td_base=td_base,
                 dedicated_stack_base=bases["dedicated_page"] + 0xF00,
                 **bases)
    offset = draw(st.integers(0, ASLR_RANGE))
    return lay, offset


@settings(max_examples=150, deadline=None)
@given(_layouts())
def test_indexed_page_lookup_agrees_with_a_linear_scan(drawn):
    # the pages are built directly from the region table, so overlapping
    # pages (which `build_machine` never maps) resolve in list order too
    lay, offset = drawn
    mem = Memory([Page(*region) for region in layout_regions(lay)])
    edges = {lay.stack_base - aslr_shift(offset)}
    for p in mem.pages:
        edges |= {p.base, p.base + p.size}
    for edge in edges:
        for addr in (edge - 8, edge, edge + 8):
            p = _linear_page_at(mem, addr)
            assert mem.page_at(addr) is p
            assert mem.readable(addr) == bool(p and p.perms & PERM_R)
            assert mem.writable(addr) == bool(p and p.perms & PERM_W)
            assert mem.executable(addr) == bool(
                p and p.perms & PERM_X and p.kind == PRIVATE)
            assert mem.is_public(addr) == bool(p and p.kind == PUBLIC)
