"""Scenario orchestration: run modes, counterexample minimization, trace
replay, matrix assembly, and cross-worker determinism."""

import collections
import json
import multiprocessing
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aexlab import (
    adversary, cli, explorer, harness, isa, properties, reporting, runtimes,
)
from aexlab.explorer import (
    EXIT_BUDGET, EXIT_DIGEST_MISMATCH, EXIT_OK, EXIT_VIOLATION,
)
from aexlab.harness import (
    DEFAULT_MAX_STEPS, Eenter, Eresume, InjectAex, PrepareRegs,
)
from aexlab.machine import (
    E_FAULT, E_HW_AEX, E_HW_DEFER, EVENT_NAMES, MASK64, SGX2,
)
from aexlab.runtimes import (
    VARIANTS, build_machine, build_runtime, fixture_path,
)

from conftest import load_script, stub_pool_context

agreement = load_script("agreement")


def scenario(**kv):
    return reporting.normalize_scenario(kv)


# ---------------------------------------------------------------------------
# run modes
# ---------------------------------------------------------------------------

def test_scripted_run_reports_and_traces():
    out = explorer.run(scenario(variant="sdk_style", adversary="scripted"))
    assert out.exit_code == EXIT_VIOLATION
    assert out.milestones == ("anchor_written", "pivoted", "leaked")
    assert out.trace_lines
    assert sum(1 for v in out.verdicts if v.violated) == 3


def test_benign_run_is_quiet():
    out = explorer.run(scenario(variant="sdk_style", adversary="benign"))
    assert out.exit_code == EXIT_OK
    assert not properties.any_violation(out.verdicts)


def test_exhaustive_none_found_reports_stats():
    out = explorer.run(scenario(variant="nssa_disabled",
                                adversary="exhaustive"))
    assert out.exit_code == EXIT_OK
    assert out.status == "ok"
    assert all(v.outcome == "no_violation_found" for v in out.verdicts)
    assert out.stats["runs"] > 1000


def test_exhaustive_budget_exceeded_is_distinct():
    out = explorer.run(scenario(variant="graphene_emulated",
                                adversary="exhaustive",
                                budgets={"max_runs": 10}))
    assert out.status == "budget_exceeded"
    assert out.exit_code == EXIT_BUDGET
    assert not out.verdicts


def test_monte_carlo_mode():
    out = explorer.run(scenario(variant="sdk_style", adversary="monte_carlo",
                                seed=7, trials=20000))
    assert out.exit_code == EXIT_OK
    assert abs(out.stats["rate"] - out.stats["exact_rate"]) < 0.005


def test_multi_round_mode_draws_offset_from_seed():
    out = explorer.run(scenario(variant="sdk_style",
                                adversary="multi_round_aslr", seed=11))
    assert out.stats["success"]
    assert out.stats["stack_shift"] > 0
    assert out.stats["rounds_needed"] <= 32


@pytest.mark.parametrize("max_steps", (20, 50))
def test_multi_round_success_is_the_recorded_run_under_its_budget(max_steps):
    # the step budget ends the recorded run inside the prefix (20 steps)
    # or inside the first round (50): the anchor is never written
    with open(fixture_path("scenarios/aslr_multi_round.json")) as fh:
        doc = json.load(fh)
    doc["budgets"]["max_steps"] = max_steps
    out = explorer.run(reporting.normalize_scenario(doc))
    assert out.stats["success"] is False
    assert out.milestones == ()
    assert out.trace_lines is not None


@pytest.mark.parametrize("max_steps,code", [
    (60, EXIT_BUDGET), (100, EXIT_BUDGET), (145, EXIT_BUDGET),
    (146, EXIT_VIOLATION), (160, EXIT_VIOLATION)])
def test_the_search_and_the_recorded_run_share_one_step_budget(max_steps,
                                                               code):
    # max_steps bounds every run from a fresh machine, the 35-step prefix
    # included: the search's counterexample [0, 0, 0, 0, 14] runs 146
    # steps from there, so below that the search cuts it and some plans
    # more, and its certificate is BUDGET, not SAFE
    sc = scenario(variant="sdk_style", sgx_version=2, adversary="exhaustive",
                  budgets={"max_steps": max_steps})
    cert = explorer.certify(sc)
    out = explorer.run(sc)
    assert out.exit_code == code
    assert out.stats == cert.stats
    if code == EXIT_BUDGET:
        assert isinstance(cert.outcome, adversary.BudgetExceeded)
        assert cert.outcome.reason.startswith("max_steps cut ")
        assert out.status == "budget_exceeded" and "branch" not in out.stats
    else:
        assert isinstance(cert.outcome, adversary.Counterexample)
        assert out.stats["branch"] == [0, 0, 0, 0, 14]
        assert properties.any_violation(out.verdicts) is not None


@pytest.mark.parametrize("mode", ("scripted", "benign", "benign_critical",
                                  "multi_round_aslr"))
def test_a_run_the_step_budget_cut_is_budget(mode, tmp_path):
    # 60 steps end each of these recorded runs early, before any safety
    # violation: the scripted attack after anchor_written, before its
    # pivot and leak.  A cut run claims no verdict and exits 2, as a
    # certification the budget cut does, and its replay agrees
    doc = {"variant": "sdk_style", "sgx_version": 2, "adversary": mode,
           "budgets": {"max_steps": 60}}
    out = explorer.run(reporting.normalize_scenario(doc))
    assert (out.status, out.exit_code, out.verdicts) == \
        ("budget_exceeded", EXIT_BUDGET, [])
    assert out.trace_lines is not None
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--scenario", str(path),
                     "--out", str(tmp_path)]) == EXIT_BUDGET
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    assert (report["status"], report["exit_code"], report["verdicts"]) == \
        ("budget_exceeded", EXIT_BUDGET, [])
    assert cli.main(["replay", "--trace",
                     str(tmp_path / "run.trace")]) == EXIT_BUDGET


@pytest.mark.parametrize("max_steps,code", [
    (145, EXIT_BUDGET), (146, EXIT_VIOLATION), (156, EXIT_VIOLATION),
    (DEFAULT_MAX_STEPS, EXIT_VIOLATION)])
def test_a_violation_stands_on_a_run_the_step_budget_cut(max_steps, code):
    # the scripted sdk_style sgx2 run violates anchor_integrity and cfi at
    # its 146th step and halts at its 158th: cut at 145 it witnessed no
    # violation and is BUDGET; cut at 146 or 156 its violation stands
    sc = scenario(variant="sdk_style", sgx_version=2, adversary="scripted",
                  budgets={"max_steps": max_steps})
    out = explorer.run(sc)
    assert out.exit_code == code
    cut = max_steps < 158
    assert (out.stats["status"] == "budget_exceeded") == cut
    assert out.status == ("budget_exceeded" if code == EXIT_BUDGET
                          else "ok")
    assert (properties.any_violation(out.verdicts) is not None) == \
        (code == EXIT_VIOLATION)
    replayed = explorer.replay(sc, out.trace_lines, len(out.trace_lines))
    assert replayed.ok and replayed.exit_code == code


def test_only_modes_that_read_the_image_build_it(monkeypatch):
    # a monte_carlo scenario never reads an image; every other mode builds
    # exactly one
    build = explorer.build_runtime
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(explorer, "build_runtime", counted)
    docs = []
    for name in sorted(os.listdir(fixture_path("scenarios"))):
        with open(fixture_path(f"scenarios/{name}")) as fh:
            docs.append(json.load(fh))
    docs += [{"variant": "graphene_emulated", "adversary": mode}
             for mode in ("benign_nested", "benign_critical")]
    modes = set()
    for doc in docs:
        sc = reporting.normalize_scenario(doc)
        calls.clear()
        explorer.run(sc)
        modes.add(sc["adversary"])
        assert len(calls) == (sc["adversary"] != "monte_carlo"), doc
    assert modes == {"monte_carlo", "multi_round_aslr", "benign",
                     "benign_nested", "benign_critical", "scripted",
                     "exhaustive"}


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def attack_setup():
    sc = scenario(variant="sdk_style", adversary="scripted")
    img = build_runtime("sdk_style")
    plan = adversary.scripted_attack(img, SGX2)
    actions = harness.prefix_plan() + plan.actions
    return sc, actions


def test_minimize_keeps_one_inject_one_delivery_one_resume():
    sc, actions = attack_setup()
    small = explorer.minimize(sc, actions)
    injects = [a for a in small if isinstance(a, InjectAex)]
    resumes = [a for a in small if isinstance(a, Eresume)]
    exc_enters = [a for a in small if isinstance(a, Eenter)
                  and a.cmd == runtimes.CMD_EXCEPTION]
    assert len(injects) == 1
    assert len(exc_enters) == 1
    assert len(resumes) == 1
    assert len(small) <= len(actions)


def test_minimize_is_idempotent():
    sc, actions = attack_setup()
    once = explorer.minimize(sc, actions)
    twice = explorer.minimize(sc, once)
    assert twice == once


def test_minimize_preserves_the_fired_property():
    sc, actions = attack_setup()
    img = build_runtime("sdk_style")
    small = explorer.minimize(sc, actions)
    verdicts = explorer.evaluate_with_scenario(sc, img, small)
    fired = [v.property_id for v in verdicts if v.violated]
    assert "anchor_integrity" in fired


def test_minimization_trials_keep_no_points(monkeypatch):
    # a later trial past an accepted change resumes from a stale point, or
    # from points rebuilt once when that one cannot stand
    fires = explorer._fires
    returned = []

    def wrapped(*args):
        res, fired = fires(*args)
        if fired:
            returned.append(res)
        return res, fired
    monkeypatch.setattr(explorer, "_fires", wrapped)
    sc, actions = attack_setup()
    explorer.minimize(sc, actions)
    assert returned
    assert all(res.points == [] for res in returned)


def test_minimize_rejects_non_violation():
    sc = scenario(variant="sdk_style", adversary="benign")
    with pytest.raises(ValueError):
        explorer.minimize(sc, harness.benign_plan())


def _points_case(name: str):
    """(image, plan, max_steps, status) of one action-point case."""
    sdk = build_runtime("sdk_style")
    scripted = (harness.prefix_plan()
                + adversary.scripted_attack(sdk, SGX2).actions)
    if name == "scripted":
        return sdk, scripted, DEFAULT_MAX_STEPS, "halted"
    if name == "scripted_over_the_step_budget":
        return sdk, scripted, 120, "budget_exceeded"
    if name == "benign":
        return sdk, harness.benign_plan(), DEFAULT_MAX_STEPS, "stopped"
    if name == "benign_nested":
        return (sdk, harness.benign_nested_plan(), DEFAULT_MAX_STEPS,
                "entry_denied")
    if name == "benign_nested_dedicated_stack":
        ded = build_runtime("dedicated_stack")
        return ded, harness.benign_nested_plan(), DEFAULT_MAX_STEPS, "stopped"
    return (build_runtime("hw_irq_quota"),
            harness.benign_critical_exception_plan(5), DEFAULT_MAX_STEPS,
            "stopped")


@pytest.mark.parametrize("case", [
    "scripted", "scripted_over_the_step_budget", "benign", "benign_nested",
    "benign_nested_dedicated_stack", "benign_critical_irq_quota"])
def test_action_points_resume_like_fresh_runs(case):
    image, plan, max_steps, status = _points_case(case)

    def fresh(actions, **kwargs):
        m = build_machine(image, SGX2)
        return harness.run_plan(m, image, actions, max_steps=max_steps,
                                **kwargs)

    base = fresh(plan, keep_from=0)
    assert base.status == status
    # one point before every action the run applied; the scripted plan
    # halts, and the nested one is denied entry, before their last action
    assert [p.idx for p in base.points] == list(range(base.actions_applied))
    kinds = {e[0] for e in base.trace}
    if case == "benign":
        assert E_FAULT in kinds
    if case.startswith("benign_nested"):
        # the point between the injection and the entry it arms
        assert base.points[2].armed == plan[1]
    if case == "benign_critical_irq_quota":
        assert E_HW_DEFER in kinds and E_HW_AEX in kinds
    if case == "scripted_over_the_step_budget":
        assert 0 < base.points[-1].steps < max_steps
    for p in base.points:
        # a plan sharing the first p.idx actions: the one without action
        # p.idx, from a copy of the point
        dropped = plan[:p.idx] + plan[p.idx + 1:]
        assert agreement.run_fields(harness.run_plan(
            p.copy(), image, dropped, max_steps=max_steps)) == \
            agreement.run_fields(fresh(dropped))
        # the plan itself, taking the point's machine
        assert agreement.run_fields(harness.run_plan(
            p, image, plan, max_steps=max_steps)) == \
            agreement.run_fields(base)


# The VULN pairs of the survey with hunt-style toggles.  enarx_style's
# crafting crashes at every non-zero ASLR offset that is a multiple of 16
# bytes (a known defect), so its offsets are odd words.
_HUNT_PAIRS = (("sdk_style", 2), ("open_enclave_style", 1),
               ("open_enclave_style", 2), ("enarx_style", 1),
               ("enarx_style", 2))
_HUNT_CLASSES = (("page_fault", "external_interrupt"),
                 ("external_interrupt", "page_fault"),
                 ("page_fault",), ("external_interrupt",))
_PUBLIC_PAGES = ([0x30000 + 0x1000 * i for i in range(16)]
                 + [0x41000 + 0x1000 * i for i in range(15)])


def _hunt_scenarios(seed: int, n: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for i in range(n):
        variant, sgx = _HUNT_PAIRS[i % len(_HUNT_PAIRS)]
        words = rng.randrange(1, 257)
        if variant == "enarx_style" and words % 2 == 0:
            words -= 1
        out.append(scenario(
            variant=variant, sgx_version=sgx, adversary="exhaustive",
            seed=seed, budgets={"max_runs": 64, "boundary_cap": 8},
            toggles={"aslr_stack_offset": 8 * words,
                     "critical_pad": rng.choice((0, 2, 4, 8)),
                     "sgx1_valid_check_removed": rng.random() < 0.5,
                     "alignment_required": rng.choice((8, 16, 32))},
            layout={"pubbuf_base": rng.choice(_PUBLIC_PAGES)},
            sp_confinement_mode=rng.choice(("range", "strict")),
            inject_classes=list(rng.choice(_HUNT_CLASSES))))
    return out


def _fresh_minimize(sc, actions) -> tuple[list, list]:
    """The reference: the same greedy reduction with every trial a fresh
    run through `evaluate_with_scenario`.  Returns the plan and the
    candidates it tried, in order."""
    image = explorer._image_for(sc)
    prop = properties.any_violation(
        explorer.evaluate_with_scenario(sc, image, actions)).property_id
    tried = []

    def fires(candidate):
        tried.append(candidate)
        return any(v.violated and v.property_id == prop for v in
                   explorer.evaluate_with_scenario(sc, image, candidate))

    current = list(actions)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(current):
            candidate = current[:i] + current[i + 1:]
            if fires(candidate):
                current = candidate
                changed = True
            else:
                i += 1
        for i, action in enumerate(current):
            if not isinstance(action, PrepareRegs):
                continue
            regs = list(action.regs)
            for j, (name, val) in enumerate(regs):
                if val == 0:
                    continue
                trial = list(regs)
                trial[j] = (name, 0)
                candidate = list(current)
                candidate[i] = PrepareRegs(tuple(trial))
                if fires(candidate):
                    regs = trial
                    current = candidate
                    changed = True
    return current, tried


def test_minimize_matches_fresh_trials(monkeypatch):
    # each trial's run from an exact point is the fresh run of its plan,
    # and from a stale point is that run but for the final digest
    # and each trial decided by labels fires with its accepted plan's run
    # and each trial rejected again without a run does not fire.
    # Counted per caller, minimize steps nothing outside its trials
    # (`_fires`) and its base run (`_execute`) when no trial runs again
    stepped = collections.Counter()
    callers = ["test"]
    run_steps = harness.run_steps

    def counted(m, program, limit, after=None):
        n, sig = run_steps(m, program, limit, after)
        stepped[callers[-1]] += n
        return n, sig

    def caller(name, fn):
        def called(*args, **kwargs):
            callers.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                callers.pop()
        return called

    monkeypatch.setattr(harness, "run_steps", counted)
    cases = [attack_setup()]
    for sc in _hunt_scenarios(11, 12):
        out = explorer.run(sc)
        if out.trace_lines is not None:
            cases.append((sc, _recorded_actions(out)))
    assert len(cases) > 10
    by_labels = again = from_stale = 0
    with agreement.trials() as (tried, decided, repeated, stale, fell), \
            monkeypatch.context() as patch:
        patch.setattr(explorer, "_fires", caller("_fires", explorer._fires))
        patch.setattr(explorer, "_execute",
                      caller("_execute", explorer._execute))
        for sc, actions in cases:
            for c in (tried, decided, repeated, stale, fell):
                c.clear()
            stepped.clear()
            got = caller("minimize", explorer.minimize)(sc, actions)
            assert not fell
            assert stepped["minimize"] == 0 and stepped["_fires"] > 0
            want, want_tried = _fresh_minimize(sc, actions)
            assert got == want
            assert tried == want_tried
            by_labels += len(decided)
            again += len(repeated)
            from_stale += len(stale)
    assert by_labels > 0 and again > 0 and from_stale > 0


def _sdk_checking_the_exception_rbx():
    """sdk_style whose exception handler, once the saved frame is valid,
    rejects a staged rbx other than 0: a compare-and-jump on rbx's
    payload plane.  The check runs out of line, so that no address the
    scripted attack reads moves."""
    image = build_runtime("sdk_style")
    old = "    cmpj r12, $1, ne, exc_default\n    read_ssa r12, r8\n"
    source = runtimes.generate_source("sdk_style")
    assert source.count(old) == 1
    source = (source.replace(old, "    cmpj r12, $1, ne, exc_default\n"
                                  "    jmp exc_check\n"
                                  "exc_checked:\n")
              + "exc_check:\n"
                "    cmpj rbx, $0, ne, exc_reject\n"
                "    read_ssa r12, r8\n"
                "    jmp exc_checked\n")
    return image._replace(program=isa.assemble(
        source, image.program.base, runtimes._symbols(image.layout)))


def test_a_stale_trial_whose_zeroed_plane_reaches_a_sink_runs_again(
        monkeypatch):
    # The scripted attack on an sdk_style whose exception handler rejects
    # a non-zero staged rbx, with rbx and rcx in the attack's payload and
    # the handler's entry staged by a PrepareRegs of its own, which clears
    # them.  Zeroing the payload's rbx, then its rcx, is accepted and
    # leaves the points after the payload stale on both planes.  Deleting the handler's
    # PrepareRegs then resumes from a stale point whose staged rbx is the
    # old one: the handler's check reads it, so from there the trial does
    # not fire.  The trial runs again from a rebuilt point, where it fires,
    # and the deletion is accepted, as in a minimization of fresh trials
    image = _sdk_checking_the_exception_rbx()
    monkeypatch.setattr(explorer, "_image_for", lambda sc: image)
    sc = scenario(variant="sdk_style", adversary="scripted")
    attack = harness.prefix_plan() + adversary.scripted_attack(
        image, SGX2).actions
    payload, inject, oret, exc = attack[1:5]
    assert dict(payload.regs)["rbx"] and exc.regs is not None
    handler = PrepareRegs(exc.regs)
    kept = [(n, v) for n, v in payload.regs
            if n in ("rbx", "rcx", "rsi", "rsp")]
    tail = [inject, oret, handler, Eenter(exc.cmd, None, exc.aep), Eresume()]
    plan = harness.prefix_plan() + [PrepareRegs(tuple(kept))] + tail
    verdicts = []
    with agreement.trials() as (tried, _, _, stale, fell), \
            monkeypatch.context() as patch:
        fires = explorer._fires

        def recorded(image, sc, actions, *args):
            res, fired = fires(image, sc, actions, *args)
            verdicts.append((list(actions), fired))
            return res, fired

        patch.setattr(explorer, "_fires", recorded)
        got = explorer.minimize(sc, plan)
    want, want_tried = _fresh_minimize(sc, plan)
    assert got == want and handler not in got
    assert tried == want_tried
    zeroed = PrepareRegs(tuple((n, v if n == "rsp" else 0) for n, v in kept))
    assert fell == [harness.prefix_plan() + [zeroed] + tail[:2] + tail[3:]]
    assert [fired for actions, fired in verdicts
            if actions == fell[0]] == [False, True]
    assert stale


def _whole_trace_fires(image, sc, actions, prop, start, checkpoint,
                       staged):
    """A minimization trial judged without its checkpoint: a fresh
    evaluation of the trial run's whole trace."""
    res = harness.run_plan(start.copy(), image, actions,
                           max_steps=sc["budgets"]["max_steps"],
                           payload=staged)
    verdicts = explorer._verdicts(sc, image, res.trace, (prop,))
    return res, properties.any_violation(verdicts) is not None


def _recorded_actions(out) -> list:
    """The actions of a recorded outcome's trace."""
    return [reporting.action_from_line(ln) for ln in out.trace_lines
            if ln.startswith("A ")]


def _vuln_counterexamples() -> list:
    """(scenario, actions) of every VULN pair's counterexample under each
    hunt class list, where the hunt's run budget finds one."""
    cases = []
    for variant, sgx in _HUNT_PAIRS:
        for classes in _HUNT_CLASSES:
            sc = scenario(variant=variant, sgx_version=sgx,
                          adversary="exhaustive",
                          budgets={"max_runs": 64, "boundary_cap": 8},
                          inject_classes=list(classes))
            out = explorer.run(sc)
            if out.trace_lines is not None:
                cases.append((sc, _recorded_actions(out)))
    assert len(cases) == 19
    return cases


def test_recording_a_counterexample_for_minimize_costs_no_bytes():
    # the recorded run with action points and staged labels gives the
    # lines, verdicts and milestones of a plain recorded run, and the
    # points of the run a minimization without it takes
    for sc, actions in _vuln_counterexamples():
        image = explorer._image_for(sc)
        staged = explorer._staged(actions)
        plain, plain_lines = explorer._execute(sc, image, actions,
                                               record=True)
        kept, kept_lines = explorer._execute(sc, image, actions, record=True,
                                             keep_from=0, payload=staged)
        assert kept_lines == plain_lines
        assert ([v.to_dict() for v in explorer._judged(sc, image, kept)[0]]
                == [v.to_dict()
                    for v in explorer._judged(sc, image, plain)[0]])
        assert (properties.milestones(kept.trace, image)
                == properties.milestones(plain.trace, image))
        base, _ = explorer._execute(sc, image, actions, keep_from=0,
                                    payload=staged)
        assert len(kept.points) == len(actions)
        assert agreement._rooted(kept, None) == agreement._rooted(base, None)


def test_minimize_from_the_recorded_run_equals_a_rerun(monkeypatch):
    # minimize right after `run` takes the run `run` recorded of an
    # exhaustive counterexample and steps nothing before its first trial;
    # once taken, the kept run is gone, and minimize runs the plan again.
    # Both try the same plans and give the same result.  A scripted run
    # keeps nothing.
    stepped = []
    run_steps = harness.run_steps

    def counted(m, program, limit, after=None):
        n, sig = run_steps(m, program, limit, after)
        stepped.extend([None] * n)
        return n, sig

    monkeypatch.setattr(harness, "run_steps", counted)
    monkeypatch.setattr(explorer, "_recorded", None)
    cases = [attack_setup()[0]] + _hunt_scenarios(11, 12)
    hits = 0
    with agreement.trials() as (tried, decided, repeated, _, _), \
            agreement.recalled() as taken, monkeypatch.context() as patch:
        fires, recall = explorer._fires, explorer._recall
        first = []      # steps before the first trial, less `checked`
        checked = []    # steps of the recalled oracle's own run

        def marked(*args):
            first.append(len(stepped) - len(checked))
            return fires(*args)

        def uncounted(*args):
            before = len(stepped)
            recorded = recall(*args)
            checked.extend(stepped[before:])
            return recorded

        patch.setattr(explorer, "_fires", marked)
        patch.setattr(explorer, "_recall", uncounted)
        for sc in cases:
            out = explorer.run(sc)
            if out.trace_lines is None:
                continue
            kept = explorer._recorded is not None
            assert kept == (sc["adversary"] == "exhaustive")
            actions = _recorded_actions(out)
            got = []
            for _ in range(2):
                for c in (tried, decided, repeated, first, checked):
                    c.clear()
                before = len(stepped)
                plan = explorer.minimize(sc, actions)
                assert explorer._recorded is None
                got.append((plan, list(tried), list(decided),
                            list(repeated), first[0] - before))
            hit, miss = got
            assert hit[:4] == miss[:4]
            assert miss[4] > 0
            assert (hit[4] == 0) == kept
            hits += kept
    assert hits > 10 and len(taken) == hits


def test_minimization_runs_no_plan_twice_and_keeps_its_result(monkeypatch):
    # every VULN pair's counterexample under each hunt class list,
    # minimized with monitor checkpoints and the rejected plans, and again
    # with every trial judged over its whole trace and nothing remembered
    cases = _vuln_counterexamples()
    tried = []

    def recording(fires):
        def recorded(image, sc, actions, *args):
            tried.append(tuple(actions))
            return fires(image, sc, actions, *args)
        return recorded

    monkeypatch.setattr(explorer, "_fires", recording(explorer._fires))
    got = []
    for sc, actions in cases:
        tried.clear()
        got.append(explorer.minimize(sc, actions))
        assert len(set(tried)) == len(tried)

    monkeypatch.setattr(explorer, "_fires", recording(_whole_trace_fires))
    monkeypatch.setattr(explorer, "_repeated", lambda *args: False)
    repeats = 0
    for (sc, actions), plan in zip(cases, got):
        tried.clear()
        assert explorer.minimize(sc, actions) == plan
        repeats += len(tried) - len(set(tried))
    assert repeats > 0


# ---------------------------------------------------------------------------
# stretches: one interpreter call per stretch of a window
# ---------------------------------------------------------------------------

def _stretch_fields(res) -> dict:
    """What a run must give whatever its stretches: status, steps,
    boundaries, actions applied, trace, `influenced`, digest and kept
    points."""
    return dict(agreement.run_fields(res), influenced=res.machine.influenced,
                points=[(agreement._point_state(p), p.machine.influenced)
                        for p in res.points])


def _stretched_and_stepped(monkeypatch, fn):
    """Call fn() twice: as the harness runs it and with every
    `harness.run_steps` call capped at one instruction, the per-step loop
    the stretches replace.  Asserts that both give the same result and
    the same fields for every run_plan call, that each run counts the
    steps its run_steps calls stepped and the boundaries of those that
    retired, and that the stretches made fewer interpreter calls.
    Returns the uncapped side's run_steps calls as (limit, stepped,
    signal)."""
    real = harness.run_steps
    sides = []
    for cap in (False, True):
        runs, calls = [], []

        def stepping(m, program, limit, after=None):
            n, sig = real(m, program, 1 if cap else limit, after)
            calls.append((limit, n, sig))
            return n, sig

        def recording(run_plan):
            def recorded(start, *args, **kwargs):
                first = len(calls)
                before = ((start.steps, start.boundaries)
                          if isinstance(start, harness.Point) else (0, 0))
                res = run_plan(start, *args, **kwargs)
                stepped = calls[first:]
                assert res.steps - before[0] == sum(n for _, n, _ in stepped)
                assert res.boundaries - before[1] == sum(
                    n - (sig != "ok") for _, n, sig in stepped)
                runs.append(_stretch_fields(res))
                return res
            return recorded

        with monkeypatch.context() as patch:
            patch.setattr(harness, "run_steps", stepping)
            for mod in (harness, explorer, adversary):
                patch.setattr(mod, "run_plan", recording(mod.run_plan))
            patch.setattr(explorer, "_recorded", None)
            runtimes._program.cache_clear()     # roots built on each side
            result = fn()
        sides.append((result, runs, calls))
    (got, runs, calls), (want, want_runs, want_calls) = sides
    assert got == want
    assert len(runs) == len(want_runs) > 0
    for i, (run, want_run) in enumerate(zip(runs, want_runs)):
        assert run == want_run, f"run {i}"
    assert sum(n for _, n, _ in calls) == sum(n for _, n, _ in want_calls)
    assert len(calls) < len(want_calls)
    return calls


def test_stretches_equal_single_steps_over_the_default_certifications(
        monkeypatch):
    # every plan the 16 default certifications execute, their roots'
    # prefix runs included, and the outcomes
    def certify_all():
        outs = []
        for variant in VARIANTS:
            for sgx in (1, 2):
                out = explorer.certify(scenario(variant=variant,
                                                sgx_version=sgx)).outcome
                outs.append((type(out).__name__, out.stats,
                             getattr(out, "branch", None),
                             getattr(out, "trace", None)))
        return outs

    _stretched_and_stepped(monkeypatch, certify_all)


def test_stretches_equal_single_steps_over_hunt_runs_and_minimizations(
        monkeypatch):
    def hunt():
        outs = []
        for sc in [attack_setup()[0]] + _hunt_scenarios(11, 12):
            out = explorer.run(sc)
            tried = []
            plan = None
            if out.trace_lines is not None:
                with monkeypatch.context() as patch:
                    fires = explorer._fires

                    def recorded(image, sc, actions, *args):
                        tried.append(list(actions))
                        return fires(image, sc, actions, *args)

                    patch.setattr(explorer, "_fires", recorded)
                    plan = explorer.minimize(sc, _recorded_actions(out))
            outs.append((out.status, out.exit_code, out.trace_lines,
                         out.stats, out.search,
                         [v.to_dict() for v in out.verdicts], plan, tried))
        assert sum(o[6] is not None for o in outs) > 10
        return outs

    _stretched_and_stepped(monkeypatch, hunt)


@pytest.mark.parametrize("name", ["benign", "scripted"])
def test_stretches_equal_single_steps_under_every_budget_cut(monkeypatch,
                                                             name):
    # from the root's points, keeping window and action points, at every
    # step budget from the prefix's steps up to the whole run's
    image = build_runtime("sdk_style")
    actions = (harness.benign_plan() if name == "benign"
               else attack_setup()[1])
    root = adversary.image_root(image, SGX2, None)

    def run(max_steps):
        return harness.run_plan(root.start(image.program, actions, max_steps),
                                image, actions, max_steps=max_steps, keep=8,
                                keep_from=0)

    whole = run(DEFAULT_MAX_STEPS)
    assert whole.status == ("stopped" if name == "benign" else "halted")

    def cuts():
        return [run(k).status
                for k in range(root.after.steps, whole.steps + 1)]

    _stretched_and_stepped(monkeypatch, cuts)


def test_stretches_equal_single_steps_where_an_entry_window_expires(
        monkeypatch):
    # hw_irq_quota arms a 32-cycle window at every entry.  The nested
    # plans' second exception lands inside the handler's entry window, is
    # deferred, and is delivered where that window expires: inside a
    # stretch, which must end there.  The critical-span plans' deferred
    # exception is delivered by the span's end_atomic instead.
    image = build_runtime("hw_irq_quota")
    plans = ([harness.benign_plan()]
             + [harness.benign_nested_plan(b) for b in (3, 15)]
             + [harness.benign_critical_exception_plan(b) for b in (1, 5, 20)])

    def runs():
        traces = []
        for actions in plans:
            m = build_machine(image, SGX2)
            traces.append([e[0] for e in
                           harness.run_plan(m, image, actions).trace])
        return traces

    calls = _stretched_and_stepped(monkeypatch, runs)
    assert any(sig == "ok" and n < limit for limit, n, sig in calls)
    for kinds in runs()[1:]:
        assert E_HW_AEX in kinds[kinds.index(E_HW_DEFER):]


def test_stretches_equal_single_steps_for_an_injection_at_every_boundary(
        monkeypatch):
    # every boundary of the ocall-return window, and the first past it
    image = build_runtime("sdk_style")

    def run(actions):
        return harness.run_plan(build_machine(image, SGX2), image, actions)

    compute, _, ocall_return, *_ = harness.benign_critical_exception_plan(0)
    window = (run([compute, ocall_return, harness.Stop()]).boundaries
              - run([compute, harness.Stop()]).boundaries)

    def injected():
        return [run(harness.benign_critical_exception_plan(b)).status
                for b in range(window + 2)]

    assert window > 10
    calls = _stretched_and_stepped(monkeypatch, injected)
    assert any(n > 1 for _, n, _ in calls)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def make_trace(tmp_path, sc):
    out = explorer.run(sc)
    path = tmp_path / "run.trace"
    reporting.write_trace(str(path), sc, out.trace_lines)
    return path, out


def test_replay_reproduces_digests_and_verdicts(tmp_path):
    sc = scenario(variant="sdk_style", adversary="scripted")
    path, out = make_trace(tmp_path, sc)
    got_sc, declared, lines = reporting.read_trace(str(path))
    result = explorer.replay(got_sc, lines, declared)
    assert result.ok
    assert result.exit_code == EXIT_VIOLATION
    assert ([v.to_dict() for v in result.verdicts]
            == [v.to_dict() for v in out.verdicts])


def test_replay_detects_tampered_event(tmp_path):
    sc = scenario(variant="sdk_style", adversary="scripted")
    path, _ = make_trace(tmp_path, sc)
    _, declared, recorded = reporting.read_trace(str(path))
    actions = [i for i, ln in enumerate(recorded) if ln.startswith("A ")]
    # tamper with the event right after the first and the last action that
    # is directly followed by one
    followed = [k for k, a in enumerate(actions)
                if a + 1 < len(recorded)
                and recorded[a + 1].startswith("E ")]
    assert followed[-1] > followed[0]
    for k in (followed[0], followed[-1]):
        idx = actions[k] + 1
        lines = list(recorded)
        parts = lines[idx].split()
        parts[-1] = "0" * 16
        lines[idx] = " ".join(parts)
        result = explorer.replay(sc, lines, declared)
        assert not result.ok
        assert result.divergence_line == idx
        assert result.exit_code == EXIT_DIGEST_MISMATCH
        assert f"after action {k} ({recorded[actions[k]]})" in result.detail
        assert f"expected event kind {parts[1]}:" in result.detail
    # an event emitted by an instruction also names that instruction
    program = build_runtime("sdk_style").program
    for kind in ("retire", "store", "sp_assign", "ctrl", "leak", "exit",
                 "halt", "memr", "memcpy"):
        idx = next(i for i, ln in enumerate(recorded)
                   if ln.startswith(f"E {kind} "))
        lines = list(recorded)
        parts = lines[idx].split()
        parts[-1] = "0" * 16
        lines[idx] = " ".join(parts)
        result = explorer.replay(sc, lines, declared)
        assert not result.ok and result.divergence_line == idx
        pc = int(parts[2], 16)
        assert result.detail.endswith(
            f"; instruction {pc:#x}: {isa.render(program.code[pc])}")
    # an eenter carries the entry point, not an emitting instruction
    first = recorded[actions[0] + 1]
    assert first.startswith("E eenter ")
    lines = list(recorded)
    lines[actions[0] + 1] = first[:-16] + "0" * 16
    assert "instruction" not in explorer.replay(sc, lines, declared).detail


def test_event_lines_round_trip_every_kind():
    fields = (0, 1, 0x41ff8, MASK64)
    for kind in range(len(EVENT_NAMES)):
        ev = (kind, *fields)
        line = reporting.event_to_line(ev, "0123456789abcdef")
        assert line == (f"E {EVENT_NAMES[kind]} 0x0 0x1 0x41ff8 "
                        "0xffffffffffffffff 0123456789abcdef")
        assert reporting.event_from_line(line) == (ev, "0123456789abcdef")
    golden = open(fixture_path("golden/scripted_sdk_sgx2.trace")).read()
    events = [ln for ln in golden.splitlines() if ln.startswith("E ")]
    assert {ln.split()[1] for ln in events} >= {"eenter", "aex", "retire"}
    for ln in events:
        assert reporting.event_to_line(*reporting.event_from_line(ln)) == ln
    for bad in ("E retire 0x1 0x2 0x3 0123456789abcdef",
                "A retire 0x1 0x2 0x3 0x4 0123456789abcdef"):
        with pytest.raises(ValueError):
            reporting.event_from_line(bad)


_FIELDS = st.integers(0, MASK64) | st.booleans()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(EVENT_NAMES) - 1), _FIELDS, _FIELDS, _FIELDS,
       _FIELDS)
@example(0, 0, 0, 0, 0)
@example(len(EVENT_NAMES) - 1, MASK64, MASK64, MASK64, MASK64)
@example(1, True, False, True, False)
def test_event_lines_render_fields_as_the_hex_format_spec(kind, pc, a, b, c):
    # `event_to_line` renders with hex(); the trace format is the "#x"
    # format spec, for any 64-bit field and for bools
    digest = "0123456789abcdef"
    assert reporting.event_to_line((kind, pc, a, b, c), digest) == (
        f"E {EVENT_NAMES[kind]} {pc:#x} {a:#x} {b:#x} {c:#x} {digest}")


def test_every_digest_is_the_canonical_digest():
    # the digest sweep of scripts/agreement.py on the golden scenario and
    # one ASLR sweep: every digest of the recording and of the replay is the
    # SHA-256 of repr(canonical())
    named = [agreement.canonical("scripted_sdk_sgx2"),
             agreement.aslr_sweep(300)[1]]
    with agreement.digests() as compared:
        for sc in named:
            lines = explorer.run(sc).trace_lines
            assert explorer.replay(sc, lines, len(lines)).ok
    assert len(compared) > 2 * 1000


def test_a_refused_entry_window_leaves_an_event():
    # a grant smaller than the 32-cycle entry window: every entry's charge
    # is refused and the entry runs unprotected, which the trace says right
    # after the entry (entry, cycles, used, allowed); replay agrees
    sc = scenario(variant="hw_irq_quota", adversary="exhaustive",
                  hw_ext={"allowed": 20, "window": 5000})
    out = explorer.run(sc)
    lines = out.trace_lines
    unarmed = [i for i, ln in enumerate(lines) if ln.startswith("E unarmed ")]
    assert len(unarmed) == 4
    for i in unarmed:
        assert lines[i - 1].startswith("E eenter 0x1000 ")
        assert lines[i].split()[2:6] == ["0x1000", "0x20", "0x0", "0x14"]
    assert explorer.replay(sc, lines, len(lines)).ok


def test_replay_detects_truncation(tmp_path):
    sc = scenario(variant="sdk_style", adversary="scripted")
    path, _ = make_trace(tmp_path, sc)
    _, declared, lines = reporting.read_trace(str(path))
    result = explorer.replay(sc, lines[:-3], declared)
    assert not result.ok and result.exit_code == EXIT_DIGEST_MISMATCH


@pytest.mark.parametrize("short", [True, False])
def test_replay_names_a_body_of_another_length(tmp_path, short):
    # a body whose line count matches its header but which ends three
    # event lines early, or has one event line more: every line replay
    # wrote agrees, and the mismatch is the number of lines
    sc = scenario(variant="sdk_style", adversary="scripted")
    path, _ = make_trace(tmp_path, sc)
    _, _, lines = reporting.read_trace(str(path))
    assert all(ln.startswith("E ") for ln in lines[-3:])
    body = lines[:-3] if short else lines + [lines[-1]]
    result = explorer.replay(sc, body, len(body))
    assert not result.ok and result.exit_code == EXIT_DIGEST_MISMATCH
    assert result.divergence_line == (len(body) if short else len(lines))
    assert result.detail == "replay produced a different number of lines"


def test_run_and_replay_share_one_assembly(tmp_path, monkeypatch):
    assemble = isa.assemble
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return assemble(*args, **kwargs)
    monkeypatch.setattr(isa, "assemble", counted)
    sc = scenario(variant="sdk_style", adversary="scripted")
    runtimes._program.cache_clear()
    path, out = make_trace(tmp_path, sc)
    got_sc, declared, lines = reporting.read_trace(str(path))
    assert explorer.replay(got_sc, lines, declared).ok
    assert len(calls) == 1
    # a scenario that moves only the public buffer builds a new image but
    # reuses the program: the program never reads pubbuf_base
    moved = scenario(variant="sdk_style", adversary="scripted",
                     layout={"pubbuf_base": 0x30000})
    assert explorer.run(moved).exit_code == out.exit_code
    assert len(calls) == 1
    # a cold image records the same bytes as the memoized one
    runtimes._program.cache_clear()
    assert explorer.run(sc).trace_lines == out.trace_lines
    assert len(calls) == 2


@pytest.mark.parametrize("mode,default", [("benign_nested", 15),
                                          ("benign_critical", 5)])
def test_boundary_zero_is_recorded_not_defaulted(tmp_path, mode, default):
    """`"boundary": 0` injects at boundary 0; only an absent boundary takes
    the mode's default."""
    zero = scenario(variant="sdk_style", adversary=mode, boundary=0)
    path, out = make_trace(tmp_path, zero)
    injects = [ln for ln in out.trace_lines if ln.startswith("A inject")]
    assert injects == ["A inject external_interrupt 0"]
    absent = explorer.run(scenario(variant="sdk_style", adversary=mode))
    assert [ln for ln in absent.trace_lines if ln.startswith("A inject")] \
        == [f"A inject external_interrupt {default}"]
    got_sc, declared, lines = reporting.read_trace(str(path))
    assert got_sc["boundary"] == 0
    result = explorer.replay(got_sc, lines, declared)
    assert result.ok, result.detail
    assert result.exit_code == out.exit_code


TRACED_MODES = {
    "benign": {}, "benign_nested": {}, "benign_critical": {}, "scripted": {},
    "exhaustive": {"budgets": {"max_runs": 64, "boundary_cap": 8}},
    "multi_round_aslr": {"toggles": {"aslr_stack_offset": 300},
                         "max_rounds": 8},
}


@pytest.mark.parametrize("sgx", (1, 2))
@pytest.mark.parametrize("variant", VARIANTS)
def test_report_is_a_function_of_its_own_trace(variant, sgx):
    """Whatever a mode did to find its outcome, the verdicts, milestones
    and exit code recomputed from the recorded trace's events are the
    report's, and replaying that trace reproduces it."""
    traced = 0
    for mode, extra in TRACED_MODES.items():
        sc = scenario(variant=variant, sgx_version=sgx, adversary=mode,
                      **extra)
        out = explorer.run(sc)
        if out.trace_lines is None:
            continue
        traced += 1
        events = [reporting.event_from_line(ln)[0]
                  for ln in out.trace_lines if ln.startswith("E ")]
        image = explorer._image_for(sc)
        verdicts = properties.evaluate(
            events, image, tuple(sc["properties"]),
            sp_mode=sc["sp_confinement_mode"],
            cooperative=mode.startswith("benign"))
        assert ([v.to_dict() for v in verdicts]
                == [v.to_dict() for v in out.verdicts]), mode
        assert properties.milestones(events, image) == out.milestones, mode
        violated = properties.any_violation(verdicts) is not None
        assert out.exit_code == (EXIT_VIOLATION if violated else EXIT_OK)
        result = explorer.replay(sc, out.trace_lines, len(out.trace_lines))
        assert result.ok, (mode, result.detail)
        assert result.exit_code == out.exit_code, mode
    assert traced >= 3      # the benign modes always record a trace


# ---------------------------------------------------------------------------
# determinism across runs and workers
# ---------------------------------------------------------------------------

def report_bytes(sc, workers):
    out = explorer.run(sc, workers=workers)
    return json.dumps(out.report("run.trace" if out.trace_lines else None),
                      sort_keys=True), out.trace_lines


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("kv", [
    dict(variant="sdk_style", adversary="scripted"),
    dict(variant="nssa_disabled", adversary="exhaustive"),
])
def test_worker_counts_do_not_change_outputs(kv):
    sc = scenario(**kv)
    r1, t1 = report_bytes(sc, 1)
    r2, t2 = report_bytes(sc, 2)
    assert r1 == r2
    assert t1 == t2


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

# one VULN row, a row repeating its certification, one SAFE row
MAPPING = [
    {"runtime": "A", "variant": "sdk_style", "exception_handling": True},
    {"runtime": "B", "variant": "sdk_style", "exception_handling": True},
    {"runtime": "C", "variant": "nssa_disabled",
     "exception_handling": False},
]


def test_matrix_shares_certifications_across_rows():
    cells = explorer.run_matrix(MAPPING, SGX2)
    assert [c.verdict for c in cells] == ["VULN", "VULN", "SAFE"]
    assert cells[0].stats == cells[1].stats
    # the repeated row reuses the certification: no search work of its own
    assert [c.search is not None for c in cells] == [True, False, True]


@pytest.mark.usefixtures("deadline")
def test_matrix_cells_do_not_depend_on_workers():
    assert (explorer.run_matrix(MAPPING, SGX2, workers=2)
            == explorer.run_matrix(MAPPING, SGX2, workers=1))


def test_matrix_fans_out_only_through_the_search_pool(monkeypatch):
    # one pool of the asked-for size per distinct certification, started
    # by the search; the matrix itself starts none
    assert not hasattr(explorer, "mp")
    sizes = []
    monkeypatch.setattr(multiprocessing, "get_context",
                        stub_pool_context(sizes))
    cells = explorer.run_matrix(MAPPING, SGX2, workers=2)
    assert [c.verdict for c in cells] == ["VULN", "VULN", "SAFE"]
    assert sizes == [2, 2]


@pytest.mark.parametrize("sgx", [1, 2])
def test_matrix_cells_equal_the_recorded_run_of_each_row(sgx):
    # `run` re-runs and records a counterexample and evaluates its
    # verdicts; the matrix reads the search alone and must agree with it
    mapping = explorer.load_mapping()
    cells = explorer.run_matrix(mapping, sgx)
    assert len(cells) == len(mapping)
    for row, cell in zip(mapping, cells):
        out = explorer.run(reporting.normalize_scenario({
            "variant": row["variant"], "sgx_version": sgx,
            "adversary": "exhaustive", "toggles": row.get("toggles") or {}}))
        if out.status == "budget_exceeded":
            want = "BUDGET"
        else:
            want = "VULN" if properties.any_violation(out.verdicts) else "SAFE"
        assert cell.verdict == want, row["runtime"]
        assert cell.stats == out.stats, row["runtime"]


def test_matrix_neither_records_nor_re_runs_a_counterexample(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the matrix re-ran a plan outside its search")

    monkeypatch.setattr(reporting, "TraceRecorder", refused)
    monkeypatch.setattr(explorer, "_execute", refused)
    mapping = explorer.load_mapping()
    verdicts = {sgx: [c.verdict for c in explorer.run_matrix(mapping, sgx)]
                for sgx in (1, 2)}
    assert verdicts[2].count("VULN") == 10
    assert verdicts[1].count("VULN") == 4


def test_matrix_rendering_header_only_for_empty_mapping():
    text = explorer.render_matrix([], SGX2)
    assert "runtime" in text
    assert "totals: 0 vulnerable, 0 safe (of 0)" in text


def test_mapping_fixture_loads_fourteen_rows():
    mapping = explorer.load_mapping()
    assert len(mapping) == 14
    assert sum(1 for r in mapping if r.get("exception_handling")) == 12


def test_missing_mapping_fixture():
    with pytest.raises(explorer.FixtureMissing):
        explorer.load_mapping("/nonexistent/mapping.json")


def test_scenario_round_trip_is_identity():
    sc = scenario(variant="hw_irq_quota", adversary="exhaustive", seed=3,
                  hw_ext={"allowed": 50}, layout={"pubbuf_base": 0x50000})
    text = reporting.dumps_scenario(sc)
    again = reporting.loads_scenario(text)
    assert again == sc
    assert reporting.dumps_scenario(again) == text
    assert reporting.scenario_digest(again) == reporting.scenario_digest(sc)
