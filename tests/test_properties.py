"""Detector behavior over benign and adversarial traces: no false
positives on the cooperative suite, the right witnesses on attack traces,
and agreement with the brute-force taint re-derivation."""

import pytest

from aexlab import adversary, harness, properties, runtimes
from aexlab.harness import benign_plan, prefix_plan, run_plan
from aexlab.machine import (
    CTRL_JMPI, CTRL_RET, E_CTRL, E_EXIT, SGX2,
)
from aexlab.runtimes import build_machine, build_runtime


def attack_trace(variant="sdk_style", sgx=SGX2, **script_kw):
    img = build_runtime(variant)
    m = build_machine(img, sgx)
    run_plan(m, img, prefix_plan())
    plan = adversary.scripted_attack(img, sgx, **script_kw)
    res = run_plan(m, img, plan.actions)
    return img, res.trace


def benign_trace(variant):
    img = build_runtime(variant)
    m = build_machine(img, SGX2)
    res = run_plan(m, img, benign_plan())
    return img, res.trace


# ---------------------------------------------------------------------------
# no false positives on the cooperative suite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", runtimes.VARIANTS)
def test_benign_runs_raise_no_detector(variant):
    img, trace = benign_trace(variant)
    for mode in ("range", "strict"):
        verdicts = properties.evaluate(trace, img,
                                       properties.SAFETY_PROPERTIES,
                                       sp_mode=mode)
        assert properties.any_violation(verdicts) is None, (variant, mode)


# ---------------------------------------------------------------------------
# stack-pointer confinement
# ---------------------------------------------------------------------------

def test_public_buffer_pivot_fires_range_mode():
    img, trace = attack_trace("open_enclave_style", route="public")
    v = properties.evaluate(trace, img, ("sp_confinement",),
                            sp_mode="range")[0]
    assert v.violated


def test_private_region_pivot_needs_strict_mode():
    # the pivot target overlaps the legal stack range, so only the strict
    # configuration flags the pivot; the control-flow detector still fires
    img, trace = attack_trace("sdk_style", route="private")
    loose = properties.evaluate(trace, img, ("sp_confinement",),
                                sp_mode="range")[0]
    strict = properties.evaluate(trace, img, ("sp_confinement",),
                                 sp_mode="strict")[0]
    cfi = properties.evaluate(trace, img, ("cfi",))[0]
    assert not loose.violated
    assert strict.violated
    assert cfi.violated


def test_stack_ok_exempts_window_pcs_only():
    img = build_runtime("sdk_style")
    monitor = properties.SafetyMonitor(img)
    lo, hi = img.trusted_stack_ranges[0]
    wild = hi + 8
    assert not any(a <= wild <= b for a, b in img.trusted_stack_ranges)
    window = min(img.sp_window_pcs)
    assert img.oret_ret_pc not in img.sp_window_pcs
    assert monitor.stack_ok(window, wild)
    assert not monitor.stack_ok(img.oret_ret_pc, wild)
    assert monitor.stack_ok(img.oret_ret_pc, lo)


# ---------------------------------------------------------------------------
# anchor integrity
# ---------------------------------------------------------------------------

def test_attack_violates_anchor_at_the_oret_ret():
    img, trace = attack_trace()
    v = properties.evaluate(trace, img, ("anchor_integrity",))[0]
    assert v.violated
    assert trace[v.witness_index][1] == img.oret_ret_pc


def test_payload_missing_anchor_by_one_word_is_clean():
    # shift the crafted pointer two words up: the copy span starts one word
    # above the anchor, so this detector stays quiet
    img = build_runtime("sdk_style")
    m = build_machine(img, SGX2)
    run_plan(m, img, prefix_plan())
    plan = adversary.scripted_attack(img, SGX2)
    shifted = []
    for a in plan.actions:
        if isinstance(a, harness.PrepareRegs):
            regs = dict(a.regs)
            regs["rsp"] += 16
            a = harness.PrepareRegs.of(**regs)
        shifted.append(a)
    res = run_plan(m, img, shifted)
    span_lo = (regs["rsp"] - runtimes.INFO_SIZE) & ~0xF
    assert span_lo == img.anchor_addr + 8
    assert not properties.evaluate(res.trace, img,
                                   ("anchor_integrity",))[0].violated


def test_unmatched_oret_is_itself_a_violation():
    img = build_runtime("sdk_style")
    fake = [(E_CTRL, img.oret_ret_pc, 0x1234, CTRL_RET, 0x27000)]
    v = properties.evaluate(fake, img, ("anchor_integrity",))[0]
    assert v.violated
    assert "no recorded save" in v.detail


# ---------------------------------------------------------------------------
# control-flow integrity
# ---------------------------------------------------------------------------

def test_cfi_fires_at_first_gadget_entry():
    img, trace = attack_trace()
    v = properties.evaluate(trace, img, ("cfi",))[0]
    assert v.violated
    assert trace[v.witness_index][2] == img.gadgets["pivot"]


def test_cfi_allows_context_restore_to_any_code():
    img, trace = benign_trace("sdk_style")
    assert not properties.evaluate(trace, img, ("cfi",))[0].violated


def _only_witness(img, events):
    """The one violated property of a monitor fed `events`."""
    monitor = properties.SafetyMonitor(img)
    monitor.feed(events)
    violated = [v for v in monitor.verdicts() if v.violated]
    assert len(violated) == 1, violated
    return violated[0]


def test_cfi_flags_a_context_restore_past_the_code():
    # the restore site may return to any code address, and only there
    img = build_runtime("sdk_style")
    pc = min(img.restore_ret_pcs)
    sp = img.trusted_stack_ranges[0][0]
    code_lo, code_hi = img.program.base, img.program.end
    v = _only_witness(img, [(E_CTRL, pc, code_lo, CTRL_RET, sp),
                            (E_CTRL, pc, code_hi - 1, CTRL_RET, sp),
                            (E_CTRL, pc, code_hi, CTRL_RET, sp)])
    assert v == properties.Verdict("cfi", properties.VIOLATED, 2,
                                   f"context restore to {code_hi:#x}")


def test_cfi_flags_an_indirect_jump_past_the_code():
    img = build_runtime("sdk_style")
    pc = img.program.base
    sp = img.trusted_stack_ranges[0][0]
    code_lo, code_hi = img.program.base, img.program.end
    v = _only_witness(img, [(E_CTRL, pc, code_lo, CTRL_JMPI, sp),
                            (E_CTRL, pc, code_hi - 1, CTRL_JMPI, sp),
                            (E_CTRL, pc, code_hi, CTRL_JMPI, sp)])
    assert v == properties.Verdict("cfi", properties.VIOLATED, 2,
                                   f"indirect jump to {code_hi:#x}")


# ---------------------------------------------------------------------------
# confidentiality
# ---------------------------------------------------------------------------

def test_leak_event_counts_full_secret():
    img, trace = attack_trace()
    v = properties.evaluate(trace, img, ("confidentiality",))[0]
    assert v.violated
    assert "128 bytes" in v.detail


def test_scrubbed_exits_and_declared_outputs_are_clean():
    img, trace = benign_trace("sdk_style")
    assert not properties.evaluate(trace, img,
                                   ("confidentiality",))[0].violated


def test_unscrubbed_exit_with_secret_register_fires():
    from conftest import DATA, make_raw_image, make_raw_machine
    src = """
    mov rbx, $data
    load rax, [rbx]
    eexit $pub
"""
    m, prog = make_raw_machine(src, data_secret={DATA: 0x5EC})
    img = make_raw_image(prog)
    from aexlab.interp import step
    while step(m, prog) == "ok":
        pass
    v = properties.evaluate(m.trace, img, ("confidentiality",))[0]
    assert v.violated and "tainted registers" in v.detail


# ---------------------------------------------------------------------------
# functionality
# ---------------------------------------------------------------------------

def test_wrong_ocall_result_detected():
    img, trace = benign_trace("sdk_style")
    tampered = []
    for ev in trace:
        if ev[0] == E_EXIT and ev[2] == img.layout.host_done:
            ev = (ev[0], ev[1], ev[2], ev[3], ev[4] ^ 1)
        tampered.append(ev)
    v = properties.check_functionality(tampered, img)
    assert v.outcome == "functionality_broken"


# ---------------------------------------------------------------------------
# trace-only determinism, milestones, shadow oracle
# ---------------------------------------------------------------------------

def test_detectors_reproduce_on_stored_trace():
    img, trace = attack_trace()
    a = [v.to_dict() for v in properties.evaluate(
        trace, img, properties.SAFETY_PROPERTIES)]
    b = [v.to_dict() for v in properties.evaluate(
        list(trace), img, properties.SAFETY_PROPERTIES)]
    assert a == b


@pytest.mark.parametrize("mode", ["range", "strict"])
def test_monitor_resumes_from_any_split_point(mode):
    # a checkpoint taken after any prefix, cloned and fed the rest, reaches
    # the verdicts (global witness indices included) of one whole pass
    img, trace = attack_trace("open_enclave_style", route="public")
    whole = [v.to_dict() for v in properties.evaluate(
        trace, img, properties.SAFETY_PROPERTIES, sp_mode=mode)]
    assert sum(v["outcome"] == "violated" for v in whole) == 4
    for k in range(len(trace) + 1):
        checkpoint = properties.SafetyMonitor(img, mode)
        checkpoint.feed(trace[:k])
        # a second clone of the same checkpoint must not see the first
        # clone's progress
        for _ in range(2):
            resumed = checkpoint.clone()
            resumed.feed(trace[k:])
            assert [v.to_dict() for v in resumed.verdicts()] == whole, k
        assert checkpoint.position == k


def test_milestone_monotonicity():
    cases = [attack_trace(), attack_trace("open_enclave_style"),
             attack_trace("enarx_style")]
    order = properties.MILESTONES
    for img, trace in cases:
        reached = properties.milestones(trace, img)
        assert reached == order[:len(reached)]
        assert "leaked" in reached


def test_shadow_taint_agrees_on_suite():
    traces = []
    for variant in ("sdk_style", "open_enclave_style", "enarx_style",
                    "dedicated_stack", "hw_reentry_mask", "hw_irq_quota"):
        traces.append(benign_trace(variant))
    traces.append(attack_trace())
    traces.append(attack_trace("open_enclave_style", route="public"))
    for img, trace in traces:
        assert properties.shadow_agrees(trace, img)


def test_confidentiality_matches_shadow_derivation():
    # the detector fires exactly when the re-derived flow contains a leak
    img, trace = attack_trace()
    leaks, _ = properties.shadow_taint_leaks(trace, img)
    assert bool(leaks) == properties.evaluate(
        trace, img, ("confidentiality",))[0].violated
    img2, trace2 = benign_trace("sdk_style")
    leaks2, _ = properties.shadow_taint_leaks(trace2, img2)
    assert bool(leaks2) == properties.evaluate(
        trace2, img2, ("confidentiality",))[0].violated
