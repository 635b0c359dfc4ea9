"""Adversary behavior: scripted-plan feasibility, the exhaustive
certification oracle, plan determinism, and the randomized-stack bypass."""

import multiprocessing

import pytest

from aexlab import adversary, explorer, properties, reporting, runtimes
from aexlab.adversary import (
    BudgetExceeded, Counterexample, NoneFound, PlanInfeasible, SearchBudget,
    craft_sp, estimate_single_shot_rate, exact_single_shot_rate,
    exhaustive_attacker, multi_round_aslr, scripted_attack, search_space,
)
from aexlab.harness import BUDGET_EXCEEDED, Eenter, prefix_plan, run_plan
from aexlab.isa import OP_EMULATE_CRITICAL
from aexlab.machine import (
    E_EXIT, E_FAULT, E_HW_AEX, E_HW_DEFER, E_RETIRE, MODE_OS, RSP,
    SCRUB_VALUES, SGX1, SGX2, VEC_EXT_INT, VEC_PAGE_FAULT,
)
from aexlab.runtimes import (
    CMD_EXCEPTION, CMD_INVALID, CMD_ORET, Layout, Toggles, build_machine,
    build_runtime,
)

from conftest import (
    load_script, make_raw_image, make_raw_machine, stub_pool_context,
)

agreement = load_script("agreement")

VULNERABLE = [
    ("sdk_style", SGX2, Toggles(), (VEC_PAGE_FAULT, VEC_EXT_INT)),
    ("open_enclave_style", SGX2, Toggles(), (VEC_PAGE_FAULT, VEC_EXT_INT)),
    ("open_enclave_style", SGX1, Toggles(), (VEC_EXT_INT,)),
    ("enarx_style", SGX2, Toggles(), (VEC_PAGE_FAULT, VEC_EXT_INT)),
    ("sdk_style", SGX1, Toggles(sgx1_valid_check_removed=True),
     (VEC_PAGE_FAULT, VEC_EXT_INT)),
]

IMMUNE = [
    ("graphene_emulated", SGX2),
    ("dedicated_stack", SGX2),
    ("nssa_disabled", SGX2),
    ("hw_reentry_mask", SGX2),
    ("hw_irq_quota", SGX2),
    ("sdk_style", SGX1),
]


def run_scripted(variant, sgx, toggles, classes):
    img = build_runtime(variant, toggles=toggles)
    plan = scripted_attack(img, sgx, classes=classes)
    m = build_machine(img, sgx)
    run_plan(m, img, prefix_plan())
    res = run_plan(m, img, plan.actions)
    return img, plan, res


# ---------------------------------------------------------------------------
# scripted plans
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant,sgx,toggles,classes", VULNERABLE)
def test_scripted_reaches_all_milestones(variant, sgx, toggles, classes):
    img, plan, res = run_scripted(variant, sgx, toggles, classes)
    reached = properties.milestones(res.trace, img)
    assert reached == ("anchor_written", "pivoted", "leaked")
    verdicts = properties.evaluate(res.trace, img,
                                   ("anchor_integrity", "cfi",
                                    "confidentiality"))
    assert all(v.violated for v in verdicts)


def test_scripted_sdk_sgx1_with_check_intact_infeasible():
    img = build_runtime("sdk_style")
    with pytest.raises(PlanInfeasible) as e:
        scripted_attack(img, SGX1)
    assert "valid" in e.value.reason


@pytest.mark.parametrize("variant,sgx", IMMUNE[:-1])
def test_scripted_infeasible_on_immune_designs(variant, sgx):
    img = build_runtime(variant)
    with pytest.raises(PlanInfeasible):
        scripted_attack(img, sgx)


def test_scripted_leaks_whole_modeled_key():
    img, plan, res = run_scripted("sdk_style", SGX2, Toggles(),
                                  (VEC_PAGE_FAULT,))
    v = properties.evaluate(res.trace, img, ("confidentiality",))[0]
    assert v.violated
    leak = res.trace[v.witness_index]
    assert leak[4] == img.layout.secret_len == 128


def test_plan_replay_is_deterministic():
    img = build_runtime("sdk_style")
    plan = scripted_attack(img, SGX2)

    def go():
        m = build_machine(img, SGX2)
        run_plan(m, img, prefix_plan())
        run_plan(m, img, plan.actions)
        return m.trace, m.digest()

    t1, d1 = go()
    t2, d2 = go()
    assert t1 == t2 and d1 == d2


# ---------------------------------------------------------------------------
# exhaustive certification
# ---------------------------------------------------------------------------

def test_domain_has_twelve_words():
    img = build_runtime("sdk_style")
    space = search_space(img)
    crafted = craft_sp(img).crafted_rsp
    anchor = img.anchor_addr
    assert len(space.words) == 12
    assert space.words == (
        crafted, crafted + 8, crafted - 8, anchor, anchor + 8,
        img.stack_base, img.layout.stack_limit, img.layout.pubbuf_base,
        img.gadgets["pivot"], img.gadgets["pop_rdi"], SCRUB_VALUES[RSP], 0)
    assert space.commands == (CMD_ORET, CMD_INVALID, CMD_EXCEPTION)
    assert space.payload_regs == ("r8", "r9", "r10", "r11", "r12", "r13",
                                  "r14", "r15", "rax", "rbx", "rcx")
    assert space.classes == (VEC_PAGE_FAULT, VEC_EXT_INT)
    with pytest.raises(ValueError, match="budget depth 7 is not enumerated"):
        search_space(img, budget=SearchBudget(depth=7))


def test_exhaustive_rediscovers_without_hints():
    img = build_runtime("sdk_style")
    out = exhaustive_attacker(img, SGX2)
    assert isinstance(out, Counterexample)
    reached = properties.milestones(out.trace, img)
    assert "anchor_written" in reached
    # the scripted plan's trace reaches the same opening milestone
    plan = scripted_attack(img, SGX2)
    m = build_machine(img, SGX2)
    run_plan(m, img, prefix_plan())
    res = run_plan(m, img, plan.actions)
    assert "anchor_written" in properties.milestones(res.trace, img)


@pytest.mark.parametrize("variant,sgx", IMMUNE)
def test_exhaustive_certifies_immune_designs(variant, sgx):
    img = build_runtime(variant)
    out = exhaustive_attacker(img, sgx)
    assert isinstance(out, NoneFound), variant
    assert out.stats.runs > 1000          # the space was really enumerated


@pytest.mark.parametrize("variant,sgx,toggles,classes", VULNERABLE)
def test_oracle_dominance(variant, sgx, toggles, classes):
    # wherever the scripted plan succeeds, the oracle finds a witness too
    img = build_runtime(variant, toggles=toggles)
    out = exhaustive_attacker(img, sgx, classes=classes)
    assert isinstance(out, Counterexample)


def test_budget_exhaustion_is_not_reported_safe():
    img = build_runtime("graphene_emulated")
    out = exhaustive_attacker(img, SGX2, budget=SearchBudget(max_runs=50))
    assert isinstance(out, BudgetExceeded)


@pytest.mark.parametrize("depth", [5, 7])
def test_unenumerated_depth_is_refused(depth):
    # a SAFE verdict must not claim a depth other than the template's
    img = build_runtime("graphene_emulated")
    with pytest.raises(ValueError, match="budget depth"):
        exhaustive_attacker(img, SGX2, budget=SearchBudget(depth=depth))


def test_candidate_plans_have_the_budgeted_depth(sdk_image):
    space = search_space(sdk_image)
    entry = space.entry(space.commands[0], 0, 0)
    assert len(adversary._candidate_actions(entry, (VEC_EXT_INT, 3))) == \
        SearchBudget().depth == adversary.CANDIDATE_DEPTH


def test_quota_oversized_section_reopens_the_attack():
    img = build_runtime("hw_irq_quota", toggles=Toggles(critical_pad=130))
    out = exhaustive_attacker(img, SGX2)
    assert isinstance(out, Counterexample)


@pytest.mark.usefixtures("deadline")
def test_worker_fanout_matches_sequential():
    img = build_runtime("nssa_disabled")
    seq = exhaustive_attacker(img, SGX2, workers=1)
    par = exhaustive_attacker(img, SGX2, workers=2)
    assert isinstance(seq, NoneFound) and isinstance(par, NoneFound)
    assert seq.stats.to_dict() == par.stats.to_dict()

    img2 = build_runtime("sdk_style")
    seq2 = exhaustive_attacker(img2, SGX2, workers=1)
    par2 = exhaustive_attacker(img2, SGX2, workers=2)
    assert isinstance(seq2, Counterexample) and isinstance(par2, Counterexample)
    assert seq2.branch == par2.branch
    assert ([v.to_dict() for v in seq2.verdicts]
            == [v.to_dict() for v in par2.verdicts])


@pytest.mark.usefixtures("deadline")
def test_workers_search_the_callers_image():
    # a moved stack changes the crafted words: workers must search this
    # image and search space, not a rebuild with the default layout
    img = build_runtime("sdk_style", layout=Layout(stack_base=0x27000))
    seq = exhaustive_attacker(img, SGX2, workers=1)
    par = exhaustive_attacker(img, SGX2, workers=2)
    assert isinstance(seq, Counterexample) and isinstance(par, Counterexample)
    assert seq.branch == par.branch
    assert seq.trace == par.trace
    assert ([v.to_dict() for v in seq.verdicts]
            == [v.to_dict() for v in par.verdicts])


def test_search_pool_is_capped_at_the_command_count(monkeypatch):
    # a stub context records the pool size asked for and computes the
    # commands in-process, so no pool is started; a worker searches every
    # branch of a command, since they share its rsp classes
    sizes = []
    monkeypatch.setattr(multiprocessing, "get_context",
                        stub_pool_context(sizes))
    img = build_runtime("sdk_style")
    out = exhaustive_attacker(img, SGX2, workers=10**6)
    assert isinstance(out, Counterexample)
    space = search_space(img)
    assert sizes == [len(space.commands)]


def test_search_pool_is_closed_not_killed_after_a_counterexample(
        monkeypatch):
    # a worker killed while it sends a result can leave the result queue's
    # lock held and hang the pool's shutdown: the search hands the pool at
    # most `workers` branches at a time, so none is busy when it stops, and
    # closes and joins the pool before the terminate every search ends with
    calls = []
    monkeypatch.setattr(multiprocessing, "get_context",
                        stub_pool_context([], calls))
    out = exhaustive_attacker(build_runtime("sdk_style"), SGX2, workers=2)
    assert isinstance(out, Counterexample)
    batches = [c[1] for c in calls if c[0] == "map"]
    assert batches and max(batches) <= 2
    assert [c for c in calls if c[0] != "map"] == [
        ("close",), ("join",), ("terminate",)]


@pytest.mark.parametrize("variant,sp_mode,expect", [
    ("dedicated_stack", "range", NoneFound),
    ("sdk_style", "strict", Counterexample),
])
def test_checkpointed_monitor_agrees_with_full_evaluation(variant, sp_mode,
                                                        expect):
    # every run resumes the monitor saved after the shared prefix; its
    # verdicts must equal a from-scratch evaluation of the whole trace
    with agreement.monitored() as compared:
        out = exhaustive_attacker(build_runtime(variant), SGX2,
                                  sp_mode=sp_mode)
    assert isinstance(out, expect)
    # every executed run is monitored; a plan covered by its clean
    # representative is not run (tests/test_pruning.py checks those)
    assert len(compared) == out.stats.executed
    assert compared.count(True) == (expect is Counterexample)


# ---------------------------------------------------------------------------
# randomized stack base
# ---------------------------------------------------------------------------

def test_rates():
    assert exact_single_shot_rate() == 64 / 2048 == 0.03125
    mc = estimate_single_shot_rate(100000, seed=7)
    assert abs(mc - 0.03125) <= 0.002
    assert estimate_single_shot_rate(2000, seed=3, window=2048) == 1.0
    with pytest.raises(ValueError):
        estimate_single_shot_rate(0, seed=1)


def multi_round_stats(offset: int) -> dict:
    """The stats of the multi-round scenario's recorded run at `offset`."""
    return explorer.run(reporting.normalize_scenario({
        "variant": "sdk_style", "adversary": "multi_round_aslr",
        "toggles": {"aslr_stack_offset": offset}})).stats


def test_multi_round_degenerate_offset_zero():
    stats = multi_round_stats(0)
    assert stats["success"] and stats["rounds_needed"] == 1


def test_single_round_budget_equals_single_shot_rate():
    hits = 0
    for off in range(1, 2049):
        img = build_runtime("sdk_style",
                            toggles=Toggles(aslr_stack_offset=off))
        res = multi_round_aslr(img, max_rounds=1)
        hits += 0 if res.exhausted else 1
    assert hits / 2048 == exact_single_shot_rate()


def test_multi_round_concrete_corrupts_for_sampled_offsets():
    for off in (0, 7, 63, 64, 512, 1024, 2048):
        stats = multi_round_stats(off)
        assert stats["success"], off
        assert stats["rounds_needed"] <= 32


# ---------------------------------------------------------------------------
# injected plans resumed from their dry run's points
# ---------------------------------------------------------------------------

def _after_point(at, res) -> list:
    return res.trace[at:]


def test_resumed_plans_equal_fresh_runs():
    with agreement.resumed() as resumed:
        out = exhaustive_attacker(build_runtime("dedicated_stack"), SGX2)
    assert isinstance(out, NoneFound)
    # every injected plan of the tracked bindings resumes: 15 per branch,
    # in the 3 branches that represent their command's one rsp class
    assert len(resumed) == 3 * 15
    assert out.stats.stepped == 1734 < sum(r.steps for _, r in resumed)


def test_resumed_plans_equal_fresh_runs_under_irq_quota():
    # the injection lands in the granted atomic window: it is deferred, and
    # delivered when the window expires unless the enclave halts first
    with agreement.resumed() as resumed:
        out = exhaustive_attacker(build_runtime("hw_irq_quota"), SGX2)
    assert isinstance(out, NoneFound)
    kinds = [[e[0] for e in _after_point(p, r)] for p, r in resumed]
    deferred = [k for k in kinds if E_HW_DEFER in k]
    assert deferred and len(deferred) < len(resumed)
    assert any(E_HW_AEX in k[k.index(E_HW_DEFER):] for k in deferred)


def test_resumed_plans_equal_fresh_runs_with_critical_completion():
    # an injection inside an emulated critical span, completed by the
    # handler's emulate_critical
    img = build_runtime("graphene_emulated")
    with agreement.resumed() as resumed:
        out = exhaustive_attacker(img, SGX1)
    assert isinstance(out, NoneFound)
    spans = img.program.crit_ranges.values()
    emulate = {pc for pc, ins in img.program.code.items()
               if ins[0] == OP_EMULATE_CRITICAL}
    inside = [_after_point(p, r) for p, r in resumed
              if any(e[0] == E_HW_AEX and any(lo < e[1] < hi
                                              for lo, hi in spans)
                     for e in _after_point(p, r))]
    assert inside
    assert all(any(e[0] == E_RETIRE and e[1] in emulate for e in events)
               for events in inside)


def test_resumed_plans_equal_fresh_runs_over_the_step_budget():
    with agreement.resumed() as resumed:
        out = exhaustive_attacker(build_runtime("dedicated_stack"), SGX2,
                                  budget=SearchBudget(max_steps=50))
    # the step budget cut plans it ran, so the space was not covered
    assert isinstance(out, BudgetExceeded)
    ends = {r.status for _, r in resumed}
    assert "budget_exceeded" in ends and len(ends) > 1


def test_no_default_certification_is_cut_by_the_step_budget(monkeypatch):
    # the step budget's verdict rule changes no default verdict: no plan
    # the 16 default certifications run ends at the budget
    real = adversary.run_plan
    ends = []

    def counted(start, image, actions, **kwargs):
        res = real(start, image, actions, **kwargs)
        ends.append(res.status)
        return res

    real_build = adversary.build_machine
    built = []

    def build(*args):
        built.append(args)
        return real_build(*args)

    monkeypatch.setattr(adversary, "run_plan", counted)
    monkeypatch.setattr(adversary, "build_machine", build)
    runtimes._program.cache_clear()     # programs without roots
    executed = 0
    for variant in runtimes.VARIANTS:
        for sgx in (1, 2):
            out = explorer.certify(reporting.normalize_scenario(
                {"variant": variant, "sgx_version": sgx})).outcome
            assert not isinstance(out, BudgetExceeded), (variant, sgx)
            assert out.stats.cut == 0, (variant, sgx)
            executed += out.stats.executed
    # every executed plan, each from the root its certification built
    assert len(ends) == executed
    assert len(built) == 16
    assert "budget_exceeded" not in ends


def test_no_point_is_kept_past_the_boundary_cap(monkeypatch):
    real = adversary.run_plan
    kept = []

    def counted(start, image, actions, **kwargs):
        res = real(start, image, actions, **kwargs)
        if res.points:
            kept.append([p.window_count for p in res.points])
        return res

    monkeypatch.setattr(adversary, "run_plan", counted)
    out = exhaustive_attacker(build_runtime("dedicated_stack"), SGX2,
                              budget=SearchBudget(boundary_cap=3))
    assert isinstance(out, NoneFound)
    assert kept and all(k == [0, 1, 2, 3] for k in kept)


# ---------------------------------------------------------------------------
# window points a dry run keeps
# ---------------------------------------------------------------------------

def _labelled_state(m) -> tuple:
    return (m.canonical(), m.trace, m.taint, m.influenced)


@pytest.mark.parametrize("variant", runtimes.VARIANTS)
@pytest.mark.parametrize("sgx", (SGX1, SGX2))
def test_each_kept_window_point_equals_a_run_cut_there(variant, sgx):
    # the first dry run of the search, labelled as a representative's is;
    # from the root it opens one window, so a run cut at a point's steps
    # has the point's window count as its boundaries
    space = search_space(build_runtime(variant), sgx)
    actions = adversary._candidate_actions(
        space.entry(space.commands[0], space.words[0], space.words[0]), None)
    payload = space.payload_regs + ("rsp",)
    res = run_plan(space.root.clone(), space.image, actions,
                   max_steps=space.max_steps, payload=payload,
                   keep=adversary._kept_boundaries(space))
    kept = min(res.boundaries, space.budget.boundary_cap)
    assert [p.window_count for p in res.points] == list(range(kept + 1))
    # the point at boundary 0 is kept at the entry, before any step
    for p in res.points[1:]:
        cut = run_plan(space.root.clone(), space.image, actions,
                       max_steps=p.steps, payload=payload)
        assert cut.status == BUDGET_EXCEEDED
        assert _labelled_state(p.machine) == _labelled_state(cut.machine)
        assert (p.steps, p.boundaries, p.window_count, p.idx) == (
            cut.steps, cut.boundaries, cut.boundaries, cut.actions_applied)


@pytest.mark.parametrize("last,ends", (
    ("    eexit $pub\n", [E_EXIT]),
    ("    load rbx, [rax+0]\n", [E_FAULT, E_HW_AEX]),
))
def test_a_kept_stretch_keeps_no_point_where_it_did_not_retire(last, ends):
    # two instructions retire, then the third exits or faults at the
    # unmapped address 3: the window keeps the boundaries 0 to 2 only
    m, prog = make_raw_machine("    mov rax, $1\n    add rax, $2\n" + last)
    m.mode = MODE_OS
    m.tcs.busy = False
    res = run_plan(m, make_raw_image(prog), [Eenter.of(0)], keep=8)
    assert [e[0] for e in res.trace[-len(ends):]] == ends
    assert (res.steps, res.boundaries) == (3, 2)
    assert [(p.window_count, p.steps) for p in res.points] == [
        (0, 0), (1, 1), (2, 2)]
