"""Acceptance gate: the model-level reproduction criteria, one test per
criterion, each printing its own pass line.  Run with -s to see them."""

import json
import random
import subprocess
import sys

import pytest

from aexlab import adversary, explorer, properties, reporting, runtimes
from aexlab.harness import benign_nested_plan, benign_plan, run_plan
from aexlab.machine import (
    DENY_NO_FREE_SLOT, E_HW_DENIED, NREGS, SGX1, SGX2, VEC_EXT_INT,
    VEC_PAGE_FAULT,
)
from aexlab.runtimes import Toggles, build_machine, build_runtime

from conftest import CLI_ENV as ENV
from conftest import CLI_TIMEOUT, load_script

agreement = load_script("agreement")


def cli(*argv):
    r = subprocess.run([sys.executable, "-m", "aexlab.cli", *argv],
                       capture_output=True, text=True, env=ENV,
                       timeout=CLI_TIMEOUT)
    return r.returncode, r.stdout, r.stderr


TABLE_VULNERABLE = {
    "Intel SGX SDK", "Microsoft Open Enclave", "RedHat Enarx",
    "Apache Teaclave", "Google Asylo", "SGX-LKL", "EdgelessRT",
    "Rust SGX SDK", "CoSMIX", "Veracruz",
}
TABLE_SAFE = {"Graphene-SGX", "Fortanix Rust EDP", "Alibaba Inclave",
              "Ratel"}


def test_criterion_1_survey_matrix_sgx2(tmp_path):
    rc, stdout, _ = cli("matrix", "--sgx", "2", "--out", str(tmp_path),
                        "--workers", "8")
    assert rc == 0
    doc = json.loads((tmp_path / "matrix.json").read_text())
    verdicts = {c["runtime"]: c["verdict"] for c in doc["cells"]}
    assert len(verdicts) == 14
    for name in TABLE_VULNERABLE:
        assert verdicts[name] == "VULN", name
    for name in TABLE_SAFE:
        assert verdicts[name] == "SAFE", name
    assert "totals: 10 vulnerable, 4 safe (of 14)" in stdout
    print("criterion 1: PASS - survey matrix on sgx2 exactly matches the "
          "published 10/4 split via exhaustive certification")


def test_criterion_2_sgx1_divergence():
    sdk = build_runtime("sdk_style")
    out = adversary.exhaustive_attacker(sdk, SGX1)
    assert isinstance(out, adversary.NoneFound)

    sdk_rm = build_runtime(
        "sdk_style", toggles=Toggles(sgx1_valid_check_removed=True))
    out_rm = adversary.exhaustive_attacker(sdk_rm, SGX1)
    assert isinstance(out_rm, adversary.Counterexample)

    oe = build_runtime("open_enclave_style")
    out_oe = adversary.exhaustive_attacker(oe, SGX1, classes=(VEC_EXT_INT,))
    assert isinstance(out_oe, adversary.Counterexample)
    assert out_oe.branch[4] == VEC_EXT_INT
    print("criterion 2: PASS - sdk-style safe on sgx1 with the validity "
          "check intact, vulnerable with it removed; oe-style vulnerable "
          "on sgx1 with timer injections alone")


def test_criterion_3_end_to_end_attack_and_golden_trace(tmp_path):
    sc = runtimes.fixture_path("scenarios/scripted_sdk_sgx2.json")
    rc, stdout, _ = cli("run", "--scenario", sc, "--out", str(tmp_path))
    assert rc == 10
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["milestones"] == ["anchor_written", "pivoted", "leaked"]
    fired = {v["property"] for v in report["verdicts"]
             if v["outcome"] == "violated"}
    assert fired == {"anchor_integrity", "cfi", "confidentiality"}
    leak = [v for v in report["verdicts"]
            if v["property"] == "confidentiality"][0]
    assert "128 bytes" in leak["detail"]

    golden = runtimes.fixture_path("golden/scripted_sdk_sgx2.trace")
    fresh = (tmp_path / "run.trace").read_bytes()
    assert fresh == open(golden, "rb").read()
    rc2, _, stderr = cli("replay", "--trace", golden)
    assert rc2 == 10 and "replay ok" in stderr
    print("criterion 3: PASS - scripted attack reaches anchor-written -> "
          "pivoted -> leaked with the full 128-byte secret out; golden "
          "trace replays byte-identically")


def test_criterion_4_randomized_stack_rates():
    assert adversary.exact_single_shot_rate() == 64 / 2048
    mc = adversary.estimate_single_shot_rate(100000, seed=7)
    assert abs(mc - 0.03125) <= 0.002
    worst = 0
    for off in range(1, 2049):
        img = build_runtime("sdk_style",
                            toggles=Toggles(aslr_stack_offset=off))
        res = adversary.multi_round_aslr(img, max_rounds=32)
        assert not res.exhausted, off
        worst = max(worst, res.rounds_needed)
    assert worst == 32
    for off in (0, 33, 64, 1000, 2048):
        out = explorer.run(reporting.normalize_scenario({
            "variant": "sdk_style", "adversary": "multi_round_aslr",
            "toggles": {"aslr_stack_offset": off}}))
        assert out.stats["success"], off
    print(f"criterion 4: PASS - single-shot rate exactly 64/2048, "
          f"monte-carlo {mc:.5f} within 0.2pp, every offset corrupted "
          f"within 32 rounds")


MITIGATIONS = ("dedicated_stack", "nssa_disabled", "graphene_emulated",
               "hw_reentry_mask", "hw_irq_quota")


# The work each sgx2 certification does (runs, steps, boundaries): a faster
# oracle must still enumerate the same space.
MITIGATION_WORK = {
    "dedicated_stack": (6912, 310176, 6480),
    "nssa_disabled": (6336, 63360, 5904),
    "graphene_emulated": (6336, 268104, 5904),
    "hw_reentry_mask": (6480, 84096, 6048),
    "hw_irq_quota": (6480, 274032, 6048),
}


def test_criterion_5_mitigation_certification():
    for variant in MITIGATIONS:
        img = build_runtime(variant)
        out = adversary.exhaustive_attacker(img, SGX2)
        assert isinstance(out, adversary.NoneFound), variant
        st = out.stats
        assert (st.runs, st.steps, st.boundaries) == \
            MITIGATION_WORK[variant], variant

    ded = build_runtime("dedicated_stack")
    m = build_machine(ded, SGX2)
    res = run_plan(m, ded, benign_nested_plan())
    func = properties.check_functionality(res.trace, ded)
    assert (func.outcome, func.detail) == ("design_limitation", "no_nesting")

    nssa = build_runtime("nssa_disabled")
    m2 = build_machine(nssa, SGX2)
    res2 = run_plan(m2, nssa, benign_plan())
    assert any(ev[0] == E_HW_DENIED and ev[2] == DENY_NO_FREE_SLOT
               for ev in res2.trace)
    func2 = properties.check_functionality(res2.trace, nssa)
    assert (func2.outcome, func2.detail) == ("design_limitation",
                                             "entry_denied")
    print("criterion 5: PASS - all five mitigations certify "
          "no-violation-found at full enumeration; dedicated stack "
          "declines nesting, save-slot exhaustion declines delivery")


def test_criterion_6_emulation_differential():
    img = build_runtime("graphene_emulated")
    for vector in (VEC_EXT_INT, VEC_PAGE_FAULT):
        diff = agreement.emulation_differential(img, vector=vector)
        assert diff.covered == diff.range_pcs
        assert diff.clean, (vector, diff.missing, diff.mismatches)
    print(f"criterion 6: PASS - span completion equals the native oracle "
          f"at every one of {diff.range_pcs} interruption offsets, "
          f"zero mismatches")


def test_criterion_7_hardware_property_suite():
    rng = random.Random(2026)
    vectors = sorted({VEC_PAGE_FAULT, VEC_EXT_INT, 0, 3, 6})
    from conftest import make_raw_machine
    for _ in range(1000):
        m, _ = make_raw_machine("    jmp 0\n0:    halt $0\n"
                                .replace("0:", "zero:").replace("jmp 0",
                                                                "jmp zero"))
        regs = [rng.randrange(0, 1 << 64) for _ in range(NREGS)]
        taint = rng.randrange(0, 1 << NREGS)
        m.regs = list(regs)
        m.taint = taint
        m.aex(rng.choice(vectors))
        assert m.taint == 0
        assert all(m.regs[i] in (m.aep, 0x5C00 + i) for i in range(NREGS))
        m.regs = [rng.randrange(0, 1 << 64) for _ in range(NREGS)]
        m.eresume()
        assert m.regs == regs and m.taint == taint

    # exhaustive sub-suites: entry gating and resume independence
    from aexlab.machine import EntryDenied, HwExt, HW_REENTRY_MASK
    for cssa in range(4):
        for nssa in range(4):
            for masked in (False, True):
                m, _ = make_raw_machine("    halt $0\n", nssa=max(nssa, 1))
                m.eexit(0x40000)
                m.tcs.cssa, m.tcs.nssa = cssa, nssa
                m.hw = HwExt(kind=HW_REENTRY_MASK, masked=masked)
                expect = cssa < nssa and not (masked and cssa >= 1)
                try:
                    m.eenter([0] * NREGS, aep=0x40000)
                    ok = True
                except EntryDenied:
                    ok = False
                assert ok == expect
    print("criterion 7: PASS - 1000 randomized save/restore round trips "
          "with clean scrubs, plus exhaustive entry-gating and "
          "resume-independence sub-suites")


def test_criterion_8_byte_identical_determinism(tmp_path):
    for name in ("scripted_sdk_sgx2.json", "exhaustive_nssa_sgx2.json"):
        sc = runtimes.fixture_path(f"scenarios/{name}")
        outs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "8")):
            out = tmp_path / name / tag
            rc, _, _ = cli("run", "--scenario", sc, "--out", str(out),
                           "--workers", workers)
            files = {}
            for f in ("report.json", "run.trace"):
                p = out / f
                files[f] = p.read_bytes() if p.exists() else None
            outs.append(files)
        assert outs[0] == outs[1] == outs[2], name
    print("criterion 8: PASS - reports and traces byte-identical across "
          "repeated runs and worker counts 1 vs 8")
