"""Runtime-variant behavior: the ocall-return checks, handler stack-pointer
sanity, critical-span emulation, delivery policies, and benign completeness
across every variant."""

import os
from dataclasses import dataclass

import pytest

from aexlab import (
    adversary, explorer, harness, isa, properties, reporting, runtimes,
)
from aexlab.harness import (
    BENIGN_OCALL_RESULT, Eenter, InjectAex, PrepareRegs, Stop,
    benign_critical_exception_plan, benign_nested_plan, benign_plan,
    prefix_plan, run_plan,
)
from aexlab.interp import UnknownCriticalRange, complete_critical
from aexlab.machine import E_EXIT, MODE_ENCLAVE, RSP, SGX2, VEC_EXT_INT
from aexlab.runtimes import (
    CMD_ECALL_COMPUTE, CMD_EXCEPTION, CMD_ORET, CTX_GUARD_WORDS, OCALL_MAGIC,
    ST_UNHANDLED, TD_LAST_SP, TD_STACK_BASE, TD_STACK_LIMIT, Toggles,
    build_machine, build_runtime, fixtures_dir, generate_source,
)

from conftest import load_script

agreement = load_script("agreement")


def fresh(variant, sgx=SGX2, toggles=None):
    img = build_runtime(variant, toggles=toggles or Toggles())
    m = build_machine(img, sgx)
    return img, m


# ---------------------------------------------------------------------------
# ocall-return checks
# ---------------------------------------------------------------------------

@dataclass
class ThreadData:
    """The thread-data words the check specifications read."""

    last_sp: int
    stack_base_addr: int
    stack_limit_addr: int


def td_view(img, m):
    word = lambda off: m.mem.read(img.layout.td_base + off)[0]
    return ThreadData(word(TD_LAST_SP), word(TD_STACK_BASE),
                      word(TD_STACK_LIMIT))


def validate_oret(td, ctx_addr, mem):
    """Specification of the ocall-return checks, in flow order; the first
    failure wins.  `ctx_addr` is the candidate saved-context base (equal to
    last_sp in the assembled flow)."""
    if td.last_sp == 0:
        return "zero_sp"
    if td.last_sp > td.stack_base_addr - CTX_GUARD_WORDS * 8:
        return "sp_too_high"
    if mem.read(ctx_addr + 0)[0] != OCALL_MAGIC:
        return "bad_flag"
    pre = mem.read(ctx_addr + 8)[0]
    if pre <= ctx_addr or pre > td.stack_base_addr:
        return "bad_pre_sp"
    return "ok"


def test_validate_oret_zero_sp():
    img, m = fresh("sdk_style")
    run_plan(m, img, prefix_plan())
    td = td_view(img, m)
    td.last_sp = 0
    assert validate_oret(td, 0, m.mem) == "zero_sp"


def test_validate_oret_inside_guard_band():
    img, m = fresh("sdk_style")
    run_plan(m, img, prefix_plan())
    td = td_view(img, m)
    td.last_sp = td.stack_base_addr - 100   # inside the 30-word band
    assert validate_oret(td, td.last_sp, m.mem) == "sp_too_high"


def test_validate_oret_bad_flag_and_bad_pre():
    img, m = fresh("sdk_style")
    run_plan(m, img, prefix_plan())
    td = td_view(img, m)
    ctx = td.last_sp
    assert validate_oret(td, ctx, m.mem) == "ok"
    flag = m.mem.read(ctx)[0]
    m.mem.write(ctx, flag ^ 1, False)
    assert validate_oret(td, ctx, m.mem) == "bad_flag"
    m.mem.write(ctx, flag, False)
    m.mem.write(ctx + 8, ctx, False)        # pre_last_sp <= ctx
    assert validate_oret(td, ctx, m.mem) == "bad_pre_sp"
    m.mem.write(ctx + 8, td.stack_base_addr + 8, False)
    assert validate_oret(td, ctx, m.mem) == "bad_pre_sp"


def test_crafted_write_bypasses_oret_checks():
    # the corruption span covers the anchor but none of the checked fields
    img, m = fresh("sdk_style")
    run_plan(m, img, prefix_plan())
    plan = adversary.scripted_attack(img, SGX2)
    craft = adversary.craft_sp(img)
    span = range(craft.info_base, craft.info_base + runtimes.INFO_SIZE)
    ctx = td_view(img, m).last_sp
    assert img.anchor_addr in span
    assert ctx not in span and ctx + 8 not in span
    res = run_plan(m, img, plan.actions)
    td = td_view(img, m)
    # checks still pass over the corrupted state: that is the bypass
    assert validate_oret(td, td.last_sp, m.mem) in ("ok", "sp_too_high")
    assert properties.evaluate(res.trace, img,
                               ("anchor_integrity",))[0].violated


# ---------------------------------------------------------------------------
# handler stack-pointer sanity
# ---------------------------------------------------------------------------

def handler_sp_check(sp, td, alignment=16):
    """Specification of the handler's stack-pointer checks: inside the
    thread stack and aligned."""
    if not td.stack_limit_addr <= sp <= td.stack_base_addr:
        return "out_of_range"
    if sp % alignment:
        return "misaligned"
    return "ok"


def test_handler_sp_check_examples():
    img, m = fresh("sdk_style")
    run_plan(m, img, prefix_plan())
    td = td_view(img, m)
    legit = adversary.craft_sp(img).crafted_rsp
    assert handler_sp_check(legit, td) == "ok"
    assert handler_sp_check(img.layout.pubbuf_base, td) == "out_of_range"
    assert handler_sp_check(td.stack_base_addr, td) == "ok"
    assert handler_sp_check(td.stack_base_addr + 8, td) == "out_of_range"
    assert handler_sp_check(td.stack_base_addr - 8, td) == "misaligned"


def drive_handler_with_sp(img, sp):
    """Deliver an exception whose saved frame carries `sp`; report the
    enclave's verdict through its exit payload."""
    m = build_machine(img, SGX2)
    run_plan(m, img, prefix_plan())
    actions = [
        PrepareRegs.of(rsp=sp, rsi=0),
        InjectAex(VEC_EXT_INT, 0),
        Eenter.of(CMD_ORET),
        Eenter.of(CMD_EXCEPTION, regs={"rsp": 0, "rsi": 0}),
        Stop(),
    ]
    run_plan(m, img, actions)
    exits = [ev for ev in m.trace if ev[0] == E_EXIT]
    return exits[-1][4]


def test_sp_check_flow_matches_predicate_at_bounds():
    # enumerate +-3 words around both bounds; the assembled flow must agree
    # with the standalone predicate
    img = build_runtime("sdk_style")
    m0 = build_machine(img, SGX2)
    run_plan(m0, img, prefix_plan())
    td = td_view(img, m0)
    probes = [td.stack_base_addr + 8 * d for d in range(-3, 4)]
    probes += [td.stack_limit_addr + 8 * d for d in range(-3, 4)]
    for sp in probes:
        want = handler_sp_check(sp, td)
        got = drive_handler_with_sp(img, sp)
        if want == "ok":
            assert got != runtimes.ERR_BAD_SP, hex(sp)
        else:
            assert got == runtimes.ERR_BAD_SP, hex(sp)


# ---------------------------------------------------------------------------
# critical-span emulation
# ---------------------------------------------------------------------------

def graphene_frame_at(img, pc_picker, plan=None):
    """Run a cooperative scenario until the chosen pc, take an async exit
    there, and return (machine, frame)."""
    m = build_machine(img, SGX2)
    target = {}

    def collect():
        pc = m.regs[16]
        if (m.mode == MODE_ENCLAVE and m.pending_fault < 0 and pc_picker(pc)
                and "snap" not in target):
            target["snap"] = m.clone()

    run_plan(m, img, plan or benign_plan(), after_events=collect)
    snap = target["snap"]
    snap.aex(VEC_EXT_INT)
    return snap, snap.ssa[snap.tcs.cssa - 1]


def test_emulation_identity_at_span_boundary():
    from aexlab.interp import in_crit_ranges
    img = build_runtime("graphene_emulated")
    hi = max(h for _, h in img.crit_ranges)
    assert not in_crit_ranges(img.program, hi)
    m = build_machine(img, SGX2)
    from aexlab.machine import SSAFrame
    frame = SSAFrame()
    frame.regs[16] = hi                     # first address after the span
    out = complete_critical(m, img.program, frame)
    assert out.canonical() == frame.canonical()


def test_emulation_out_of_table_raises():
    img = build_runtime("graphene_emulated")
    m = build_machine(img, SGX2)
    from aexlab.machine import SSAFrame
    frame = SSAFrame()
    frame.regs[16] = img.program.labels["ecall0_body"] + 2
    with pytest.raises(UnknownCriticalRange):
        complete_critical(m, img.program, frame)


def test_emulation_completes_context_restore():
    # interrupt exactly at the instruction that moves the saved context
    # into the stack pointer: the emulated frame must land after the
    # return, stack fully unwound
    img = build_runtime("graphene_emulated")
    labels = img.program.labels
    mov_rsp_pc = None
    for pc in range(labels["oret_flow"], labels["oret_ret"] + 1):
        ins = img.program.code[pc]
        if ins[0] == 0 and ins[1] == RSP:   # mov rsp, r11
            mov_rsp_pc = pc
            break
    assert mov_rsp_pc is not None
    oret_plan = [
        Eenter.of(CMD_ECALL_COMPUTE, regs={"rsp": 0, "rsi": 0}),
        Eenter.of(CMD_ORET, regs={"rsp": 0, "rsi": BENIGN_OCALL_RESULT}),
        Stop(),
    ]
    snap, frame = graphene_frame_at(img, lambda pc: pc == mov_rsp_pc,
                                    oret_plan)
    ctx = frame.regs[11]                    # r11 holds the validated last_sp
    out = complete_critical(snap, img.program, frame)
    assert out.regs[16] == labels["after_ocall"]
    assert out.regs[RSP] == ctx + 72        # context and anchor popped


def test_emulation_differential_every_offset():
    img = build_runtime("graphene_emulated")
    diff = agreement.emulation_differential(img)
    assert diff.clean, (diff.missing, diff.mismatches)
    assert diff.covered == diff.range_pcs


# ---------------------------------------------------------------------------
# critical-section delivery policies
# ---------------------------------------------------------------------------

def test_postpone_handler_runs_exactly_once_after_drain():
    img = build_runtime("sdk_style",
                        toggles=Toggles(flag_strategy="postpone"))
    m = build_machine(img, SGX2)
    res = run_plan(m, img, benign_critical_exception_plan(boundary=5))
    func = properties.check_functionality(res.trace, img)
    assert func.outcome == "no_violation_found"
    assert func.stats["handler_runs"] == 1
    assert any(ev[0] == E_EXIT and ev[4] == runtimes.ST_EXC_POSTPONED
               for ev in res.trace)


def test_postpone_with_empty_pending_set_no_invocation():
    img = build_runtime("sdk_style",
                        toggles=Toggles(flag_strategy="postpone"))
    m = build_machine(img, SGX2)
    res = run_plan(m, img, benign_plan()[3:])   # the ocall leg only
    func = properties.check_functionality(res.trace, img)
    assert func.outcome == "no_violation_found"
    assert func.stats["handler_runs"] == 0


def test_ignore_policy_loses_the_exception():
    img = build_runtime("sdk_style", toggles=Toggles(flag_strategy="ignore"))
    m = build_machine(img, SGX2)
    res = run_plan(m, img, benign_critical_exception_plan(boundary=5))
    func = properties.check_functionality(res.trace, img)
    assert func.outcome == "functionality_broken"
    assert func.detail == "lost_exception"


def test_quota_defers_mid_window_injection_to_section_end():
    # an exception landing inside the ocall-return window is deferred by
    # the hardware contract and delivered right after the section closes,
    # where the saved frame is already trustworthy
    from aexlab.machine import VEC_PAGE_FAULT
    img = build_runtime("hw_irq_quota")
    m = build_machine(img, SGX2)
    res = run_plan(m, img, benign_critical_exception_plan(
        boundary=5, vector=VEC_PAGE_FAULT))
    from aexlab.machine import E_HW_AEX, E_HW_DEFER
    kinds = [ev[0] for ev in res.trace]
    defer_at = kinds.index(E_HW_DEFER)
    assert E_HW_AEX in kinds[defer_at:]
    func = properties.check_functionality(res.trace, img)
    assert func.outcome == "no_violation_found"
    assert func.stats["handler_runs"] == 1
    assert not properties.any_violation(properties.evaluate(
        res.trace, img, properties.SAFETY_PROPERTIES))


def test_build_machine_grants_the_quota_extension_once():
    from aexlab.machine import DEFAULT_IRQ_GRANT, E_HW_GRANT, HW_IRQ_QUOTA

    def grants(m):
        return [ev for ev in m.trace if ev[0] == E_HW_GRANT]

    quota = build_runtime("hw_irq_quota")
    assert grants(build_machine(quota, SGX2)) == [
        (E_HW_GRANT, *DEFAULT_IRQ_GRANT, 0, 0)]
    assert grants(build_machine(quota, SGX2, (64, 5000))) == [
        (E_HW_GRANT, 64, 5000, 0, 0)]
    assert grants(build_machine(quota, SGX2, None)) == []
    # a design without the extension is never granted
    for variant in runtimes.VARIANTS:
        img = build_runtime(variant)
        if img.design.hw != HW_IRQ_QUOTA:
            assert grants(build_machine(img, SGX2)) == []


# ---------------------------------------------------------------------------
# benign completeness and variant behavior
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", runtimes.VARIANTS)
def test_benign_completeness(variant):
    img, m = fresh(variant)
    res = run_plan(m, img, benign_plan())
    verdicts = properties.evaluate(res.trace, img, properties.ALL_PROPERTIES)
    func = [v for v in verdicts if v.property_id == "functionality"][0]
    assert not properties.any_violation(verdicts)
    if variant == "nssa_disabled":
        assert func.outcome == "design_limitation"
        assert func.detail == "entry_denied"
    else:
        assert func.outcome == "no_violation_found"
        assert func.stats["handler_runs"] == 1
        done = [ev for ev in res.trace
                if ev[0] == E_EXIT and ev[2] == img.layout.host_done]
        assert done[-1][4] == BENIGN_OCALL_RESULT + 1


def test_benign_anchor_matches_recorded_save():
    for variant in runtimes.VARIANTS:
        if variant == "nssa_disabled":
            continue
        img, m = fresh(variant)
        res = run_plan(m, img, benign_plan())
        assert not properties.evaluate(res.trace, img,
                                       ("anchor_integrity",))[0].violated


def test_dedicated_stack_rejects_nesting_explicitly():
    img, m = fresh("dedicated_stack")
    res = run_plan(m, img, benign_nested_plan())
    func = properties.check_functionality(res.trace, img)
    assert func.outcome == "design_limitation"
    assert func.detail == "no_nesting"
    assert any(ev[0] == E_EXIT and ev[4] == ST_UNHANDLED for ev in res.trace)
    # never silent corruption: the other detectors stay quiet
    assert not properties.any_violation(
        properties.evaluate(res.trace, img, properties.SAFETY_PROPERTIES))


def test_cssa_bounds_hold_through_benign_runs():
    img, m = fresh("dedicated_stack")

    def check():
        assert 0 <= m.tcs.cssa <= m.tcs.nssa

    run_plan(m, img, benign_nested_plan(), after_events=check)


# ---------------------------------------------------------------------------
# image construction
# ---------------------------------------------------------------------------

def test_unknown_variant_rejected():
    with pytest.raises(runtimes.UnknownVariant):
        build_runtime("no_such_runtime")


def test_layout_overlap_rejected():
    bad = runtimes.Layout(td_base=0x20000)   # collides with the stack
    # a layout is checked once per distinct value, and a failed check is
    # not kept: every build of the same layout raises again
    for variant in ("sdk_style", "sdk_style", "enarx_style"):
        with pytest.raises(runtimes.LayoutOverlap):
            build_runtime(variant, layout=bad)


def test_gadgets_are_code_addresses():
    for variant in runtimes.VARIANTS:
        img = build_runtime(variant)
        for name, addr in img.gadgets.items():
            assert addr in img.program.code, (variant, name)


def test_fixture_sources_match_generator():
    # the committed fixtures are the canonical, reviewable programs
    for variant in runtimes.VARIANTS:
        path = os.path.join(fixtures_dir(), f"{variant}.easm")
        with open(path) as fh:
            assert fh.read() == generate_source(variant), variant


def test_toggle_removes_validity_check():
    with_check = generate_source("sdk_style")
    without = generate_source(
        "sdk_style", Toggles(sgx1_valid_check_removed=True))
    assert "exitinfo_valid" in with_check
    assert "exitinfo_valid" not in without
    # exactly the one-line check (read + branch) disappears
    delta = len(with_check.splitlines()) - len(without.splitlines())
    assert delta == 2


def _program_pin(variant: str, toggles: Toggles) -> str:
    img = build_runtime(variant, toggles=toggles)
    m = build_machine(img, SGX2)
    meta = (
        sorted(img.gadgets.items()), sorted(img.legit_ret_targets),
        sorted(img.restore_ret_pcs), sorted(img.ocall_call_sites),
        img.oret_ret_pc, img.stack_base, img.trusted_stack_ranges,
        img.sp_windows, img.crit_ranges, img.entry_atomic_cycles,
        m.tcs.nssa, m.hw.kind, m.entry_atomic_cycles,
    )
    code = sorted(img.program.code.items())
    text = [isa.render(ins) for _, ins in code]
    return generate_source(variant, toggles) + repr(meta) + repr((code, text))


PROGRAM_GRID = [
    Toggles(sgx1_valid_check_removed=removed, alignment_required=align,
            critical_pad=pad, flag_strategy=flag)
    for removed in (False, True) for align in (8, 16, 4096)
    for pad in (0, 3) for flag in (None, "postpone", "ignore")]


def test_every_generated_program_is_pinned():
    # 8 variants x 36 toggle combinations: the program text, the image
    # and machine metadata the detectors and the adversary read, and the
    # assembled instructions with their rendered text
    import hashlib
    h = hashlib.sha256()
    for variant in runtimes.VARIANTS:
        for toggles in PROGRAM_GRID:
            h.update(_program_pin(variant, toggles).encode())
    assert len(PROGRAM_GRID) * len(runtimes.VARIANTS) == 288
    assert h.hexdigest() == ("87c5c3aadae73e17c366702508c09531"
                            "b8039199997b5105d5ba8a17154bcec2")


def _cold_program(variant: str, layout: runtimes.Layout, toggles: Toggles):
    return isa.assemble(generate_source(variant, toggles), layout.code_base,
                        runtimes._symbols(layout))


def _same_assembly(program, cold) -> bool:
    return (program.code == cold.code and program.labels == cold.labels
            and program.windows == cold.windows
            and program.crit_ranges == cold.crit_ranges
            and program.source == cold.source)


def test_images_share_one_program_per_assembly_input(tmp_path):
    # the program depends on its source, code_base and the layout symbols
    # only: images that move the public buffer or the ASLR shift share it,
    # and it stays what a cold assembly of the same text gives, also after
    # runs, replays and minimizations of scenarios that use it
    pages = (0x30000, 0x31000, 0x42000)
    offsets = (8, 24, runtimes.ASLR_RANGE)
    for variant in runtimes.VARIANTS:
        images = [build_runtime(variant,
                                layout=runtimes.Layout(pubbuf_base=page),
                                toggles=Toggles(aslr_stack_offset=off))
                  for page in pages for off in offsets]
        program = images[0].program
        assert all(img.program is program for img in images), variant
        assert _same_assembly(program, _cold_program(
            variant, images[0].layout, images[0].toggles)), variant
        for img in images:
            off = img.toggles.aslr_stack_offset
            stack_base = img.layout.stack_base - runtimes.aslr_shift(off)
            assert img.stack_base == stack_base, (variant, off)
            assert img.anchor_addr == (stack_base - runtimes.ECALL0_FRAME
                                       - 8), (variant, off)
            assert img.trusted_stack_ranges[0] == (
                img.layout.stack_limit, stack_base), (variant, off)
        assert len({img.stack_base for img in images}) == len(offsets)

        # a toggle gives another program exactly when it changes the text
        base = build_runtime(variant)
        for toggles in (Toggles(critical_pad=4), Toggles(alignment_required=32),
                        Toggles(sgx1_valid_check_removed=True)):
            img = build_runtime(variant, toggles=toggles)
            same_text = (generate_source(variant, toggles)
                         == generate_source(variant))
            assert (img.program is base.program) == same_text, \
                (variant, toggles)
            assert _same_assembly(img.program, _cold_program(
                variant, img.layout, toggles)), (variant, toggles)
        assert build_runtime(variant, toggles=Toggles(
            critical_pad=4)).program is not base.program, variant
        moved = runtimes.Layout(code_base=0x3000)
        img = build_runtime(variant, layout=moved)
        assert img.program is not base.program, variant
        assert img.program.base == 0x3000, variant
        assert _same_assembly(img.program, _cold_program(
            variant, moved, Toggles())), variant

        # a cached program is read-only under run, replay and minimize
        vulnerable = runtimes.DESIGNS[variant].blocked is None
        sc = reporting.normalize_scenario(
            {"variant": variant,
             "adversary": "scripted" if vulnerable else "benign",
             "layout": {"pubbuf_base": 0x31000}})
        img = explorer._image_for(sc)
        out = explorer.run(sc)
        path = tmp_path / f"{variant}.trace"
        reporting.write_trace(str(path), sc, out.trace_lines)
        got, declared, lines = reporting.read_trace(str(path))
        assert explorer.replay(got, lines, declared).ok, variant
        if vulnerable:
            actions = (harness.prefix_plan()
                       + adversary.scripted_attack(img, SGX2).actions)
            assert explorer.minimize(sc, actions), variant
        assert explorer._image_for(sc).program is img.program, variant
        assert _same_assembly(img.program, _cold_program(
            variant, img.layout, img.toggles)), variant


def test_images_of_one_program_hold_its_derived_fields_once():
    # every field derived from the program alone is one object shared by
    # the images of that program, and the gadget map cannot be changed
    # through any of them
    fields = runtimes.EnclaveImage._fields
    derived = fields[fields.index("program"):fields.index("crit_ranges") + 1]
    assert len(derived) == 9
    for variant in runtimes.VARIANTS:
        a = build_runtime(variant, toggles=Toggles(aslr_stack_offset=24))
        b = build_runtime(variant, layout=runtimes.Layout(pubbuf_base=0x30000))
        assert a.stack_base != b.stack_base
        for name in derived:
            assert getattr(a, name) is getattr(b, name), (variant, name)
        with pytest.raises(TypeError):
            a.gadgets["pivot"] = 0
