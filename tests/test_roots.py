"""Roots: every run of a scenario starts from a copy of a point of the
root its image's program keeps per platform, and equals a run from a fresh
machine.  A root is keyed by everything `build_machine` reads, the sgx
version and the grant, and runs its prefix once, recording the same lines
whether a search or a recorded run builds it; a budget below the prefix's
steps runs fresh; replay still checks the prefix's lines; a recorded run
from `after` starts from its own copy of the root's digest text and
records what a run from plain state records; and a program
that holds roots, or whose counterexample run is kept for minimization,
is freed by reference counting alone."""

import gc
import weakref

import pytest

from aexlab import adversary, explorer, harness, reporting, runtimes
from aexlab.explorer import EXIT_DIGEST_MISMATCH
from aexlab.harness import Root, prefix_plan, run_plan
from aexlab.machine import E_HW_GRANT, SGX1, SGX2
from aexlab.runtimes import build_machine, build_runtime, fixture_path

from conftest import load_script

agreement = load_script("agreement")

GOLDEN = "golden/scripted_sdk_sgx2.trace"


def _fresh_and_rooted(image, sgx, grant, actions, max_steps):
    """The fields of a run of `actions` from a fresh machine and from the
    image's root, and the index of the point the root started it from."""
    start = adversary.image_root(image, sgx, grant).start(
        image.program, actions, max_steps)
    runs = [run_plan(build_machine(image, sgx, grant), image, actions,
                     max_steps=max_steps),
            run_plan(start, image, actions, max_steps=max_steps)]
    return [agreement.run_fields(res) for res in runs], start.idx


def test_each_platform_and_grant_gets_its_own_root():
    # one program under sgx 1 then 2, and the irq-quota design under three
    # grants, None among them: each run equals a fresh run
    image = build_runtime("hw_irq_quota")
    actions = harness.benign_critical_exception_plan(5)
    keys = [(SGX1, (100, 10000)), (SGX2, (100, 10000)), (SGX2, (64, 5000)),
            (SGX2, None), (SGX2, (20, 5000))]
    for sgx, grant in keys:
        (fresh, rooted), idx = _fresh_and_rooted(image, sgx, grant, actions,
                                                 20000)
        assert rooted == fresh and idx == 1, (sgx, grant)
    roots = [adversary.image_root(image, sgx, grant) for sgx, grant in keys]
    assert len({id(r) for r in roots}) == len(keys)
    # only the granted roots' prefixes hold the grant event
    grants = [sum(ev[0] == E_HW_GRANT for ev in r.fresh.machine.trace)
              for r in roots]
    assert grants == [1, 1, 1, 0, 1]


def test_each_layout_and_aslr_offset_gets_its_own_root():
    # images that share one program but not a layout or a stack base
    images = [build_runtime("sdk_style"),
              build_runtime("sdk_style", toggles=runtimes.Toggles(
                  aslr_stack_offset=300)),
              build_runtime("sdk_style", layout=runtimes.Layout(
                  pubbuf_base=0x30000))]
    assert len({id(img.program) for img in images}) == 1
    actions = prefix_plan() + harness.benign_critical_exception_plan(5)[1:]
    roots = set()
    for img in images:
        (fresh, rooted), idx = _fresh_and_rooted(img, SGX2, None, actions,
                                                 20000)
        assert rooted == fresh and idx == 1
        roots.add(id(adversary.image_root(img, SGX2, None)))
    assert len(roots) == len(images)


@pytest.mark.parametrize("max_steps", [34, 35, 36])
def test_a_budget_at_the_prefix_runs_fresh_below_it(max_steps):
    # sdk_style's prefix takes 35 steps: a budget below them starts the run
    # fresh, one at or above them after the prefix; both equal a fresh run
    sc = agreement.canonical("scripted_sdk_sgx2")
    sc["budgets"] = dict(sc["budgets"], max_steps=max_steps)
    image = explorer._image_for(sc)
    root = adversary.image_root(image, SGX2, (100, 10000))
    assert root.after.steps == 35
    with agreement.roots() as compared:
        out = explorer.run(sc)
        replayed = explorer.replay(sc, out.trace_lines, len(out.trace_lines))
    assert replayed.ok and out.status == "budget_exceeded"
    assert len(compared) == (0 if max_steps < 35 else 2)
    (fresh, rooted), idx = _fresh_and_rooted(
        image, SGX2, (100, 10000), prefix_plan(), max_steps)
    assert rooted == fresh and idx == (max_steps >= 35)


@pytest.mark.parametrize("warm", [False, True])
def test_replay_checks_the_prefix_lines(warm, monkeypatch):
    # a digest flipped inside the golden trace's 37 prefix lines fails
    # replay at its line, whether an earlier run of the scenario recorded
    # the root's lines (warm) or the replay records them (cold)
    sc, declared, lines = reporting.read_trace(fixture_path(GOLDEN))
    image = explorer._image_for(sc)
    monkeypatch.setattr(image.program, "roots", {})
    if warm:
        assert explorer.run(sc).trace_lines == lines
    for idx in (1, 20, 36):
        if not warm:
            monkeypatch.setattr(image.program, "roots", {})
        tampered = list(lines)
        want = tampered[idx]
        tampered[idx] = want[:-1] + ("0" if want[-1] != "0" else "1")
        result = explorer.replay(sc, tampered, declared)
        assert not result.ok and result.exit_code == EXIT_DIGEST_MISMATCH
        assert result.divergence_line == idx
        assert repr(tampered[idx]) in result.detail
        assert repr(want) in result.detail
        root, = image.program.roots.values()
        assert root.lines == tuple(lines[:37])


def test_a_root_built_by_a_search_holds_its_lines_for_a_recorded_run(
        monkeypatch):
    # a search builds the root with its lines; the recorded run of its
    # counterexample and a minimization start from them and run no second
    # prefix
    sc = agreement.canonical("exhaustive_sdk_sgx2")
    image = explorer._image_for(sc)
    monkeypatch.setattr(image.program, "roots", {})
    out = explorer.certify(sc).outcome
    root, = image.program.roots.values()
    assert root.lines is not None and len(root.lines) == 37
    recorded = root.lines
    prefix = prefix_plan() + [harness.Stop()]
    real = harness.run_plan
    prefix_runs = []

    def counted(start, image, actions, *args, **kwargs):
        if actions == prefix:
            prefix_runs.append(start)
        return real(start, image, actions, *args, **kwargs)

    monkeypatch.setattr(harness, "run_plan", counted)
    actions = prefix_plan() + out.plan.actions
    with agreement.roots() as compared:
        res, lines = explorer._execute(sc, image, actions, record=True)
    assert len(compared) == 1 and lines[:37] == list(root.lines)
    explorer._execute(sc, image, actions, record=True)
    explorer.minimize(sc, actions)
    assert root.lines is recorded and prefix_runs == []


# the scripted plan is infeasible on sgx 1 and under the irq quota; the
# benign_critical run starts from the prefix too
@pytest.mark.parametrize("variant, sgx, recorded_mode", [
    ("sdk_style", SGX1, "benign_critical"), ("sdk_style", SGX2, "scripted"),
    ("hw_irq_quota", SGX2, "benign_critical")])
def test_a_roots_lines_and_after_point_do_not_depend_on_its_builder(
        variant, sgx, recorded_mode, monkeypatch):
    # a root built by a search and one built by a recorded run hold the
    # same lines and the same state after the prefix; under a grant the
    # fresh trace's grant event comes before the first action line
    built = []
    for mode in ("exhaustive", recorded_mode):
        sc = reporting.normalize_scenario(
            {"variant": variant, "sgx_version": sgx, "adversary": mode})
        image = explorer._image_for(sc)
        monkeypatch.setattr(image.program, "roots", {})
        if mode == "exhaustive":
            explorer.certify(sc)
        else:
            lines = explorer.run(sc).trace_lines
        root, = image.program.roots.values()
        built.append((root.lines, root.after.machine.digest()))
    (searched, searched_digest), (recorded, recorded_digest) = built
    assert searched == recorded and searched_digest == recorded_digest
    assert lines[:len(recorded)] == list(recorded)
    granted = variant == "hw_irq_quota"
    first_action = next(i for i, ln in enumerate(recorded)
                        if ln.startswith("A "))
    assert first_action == granted
    assert recorded[0].startswith("E grant ") == granted


def test_a_roots_points_and_every_copy_hold_no_digest_text(monkeypatch):
    # a recorded run digests a copy of the root's `after` point; the points,
    # the search's copy and every later copy stay plain state, and a copy's
    # first digest builds the canonical text
    sc = agreement.canonical("scripted_sdk_sgx2")
    image = explorer._image_for(sc)
    monkeypatch.setattr(image.program, "roots", {})
    explorer.run(sc)
    (key, root), = image.program.roots.items()
    after = root.after
    assert root.ended == (harness.DONE, after.steps, after.machine.cycle)
    machines = [root.fresh.machine, after.machine,
                adversary._prefix_snapshot(image, SGX2, key[-1])]
    machines += [Root.copy(p, image.program).machine
                 for p in (root.fresh, after)]
    for m in machines:
        assert m.mem._dirty is None and m._platform is None
        assert m._pages is None and all(f._repr is None for f in m.ssa)
    copy = machines[-1]
    assert copy.digest() == agreement.canonical_digest(copy)


def _recorded(sc, image, actions, start, lines):
    """The lines, verdicts and exit code of `actions` recorded from
    `start`, a machine or a point, whose recording begins with `lines`."""
    m = start.machine if isinstance(start, harness.Point) else start
    rec = reporting.TraceRecorder(m, lines)
    res = run_plan(start, image, actions,
                   max_steps=sc["budgets"]["max_steps"],
                   on_action=rec.on_action, after_events=rec.after_events)
    rec.flush()
    verdicts, code = explorer._judged(sc, image, res)
    return rec.lines, [v.to_dict() for v in verdicts], code


SEEDED = {
    "golden": lambda: reporting.read_trace(fixture_path(GOLDEN))[0],
    "enarx_scripted": lambda: reporting.normalize_scenario(
        {"variant": "enarx_style", "adversary": "scripted"}),
    "aslr_round": lambda: agreement.aslr_sweep(300)[1],
    "exhaustive": lambda: agreement.canonical("exhaustive_sdk_sgx2"),
}


@pytest.mark.parametrize("name", SEEDED)
def test_a_run_from_the_roots_text_records_what_plain_state_records(
        name, monkeypatch):
    # the recorded run starts from its own copy of the root's digest text;
    # recorded from a plain copy of `after`, whose first digest builds the
    # text, and from a fresh machine, the plan writes the same lines,
    # digests and verdicts
    sc = SEEDED[name]()
    image = explorer._image_for(sc)
    grant = (sc["hw_ext"]["allowed"], sc["hw_ext"]["window"])
    real = explorer.run_plan
    starts = []

    def watched(start, *args, **kwargs):
        m = start.machine
        starts.append((start.idx, m.mem._dirty == set(), m._platform))
        return real(start, *args, **kwargs)

    monkeypatch.setattr(explorer, "run_plan", watched)
    out = explorer.run(sc)
    root = adversary.image_root(image, sc["sgx_version"], grant)
    assert starts == [(1, True, root.text[-1])]
    assert root.text[-1] is not None
    actions = [reporting.action_from_line(ln) for ln in out.trace_lines
               if ln.startswith("A ")]
    plain = Root.copy(root.after, image.program)
    assert plain.machine.mem._dirty is None
    want = (out.trace_lines, [v.to_dict() for v in out.verdicts],
            out.exit_code)
    assert _recorded(sc, image, actions, plain, root.lines) == want
    fresh = build_machine(image, sc["sgx_version"], grant)
    assert _recorded(sc, image, actions, fresh, None) == want
    # a second run starts from the same text: the first changed only its
    # own copy
    assert explorer.run(sc).trace_lines == out.trace_lines


def test_a_recorded_run_from_fresh_takes_no_text():
    # under a budget below the prefix's 35 steps the run starts from
    # `fresh`, whose state is not the text's: its every digest is the
    # canonical one
    sc = agreement.canonical("scripted_sdk_sgx2")
    sc["budgets"] = dict(sc["budgets"], max_steps=34)
    with agreement.digests() as compared:
        out = explorer.run(sc)
    assert out.status == "budget_exceeded"
    assert len(compared) > 30


def test_a_program_with_roots_dies_without_the_cycle_collector():
    # a root's machines keep their fetch table but not the program, so
    # reference counting alone frees a program after a recorded run and a
    # replay left their roots on it
    enabled = gc.isenabled()
    gc.disable()
    try:
        sc = agreement.canonical("scripted_sdk_sgx2")
        runtimes._program.cache_clear()
        image = explorer._image_for(sc)
        out = explorer.run(sc)
        assert explorer.replay(sc, out.trace_lines,
                               len(out.trace_lines)).ok
        roots = list(image.program.roots.values())
        assert roots and all(r.lines is not None for r in roots)
        program = weakref.ref(image.program)
        runtimes._program.cache_clear()
        del image, roots
        assert program() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("minimized", [False, True])
def test_a_kept_counterexample_run_holds_no_program(minimized, monkeypatch):
    # the run `run` keeps of an exhaustive counterexample for `minimize`
    # keeps its fetch tables but not the program, kept or taken
    monkeypatch.setattr(explorer, "_recorded", None)
    enabled = gc.isenabled()
    gc.disable()
    try:
        sc = agreement.canonical("exhaustive_sdk_sgx2")
        runtimes._program.cache_clear()
        image = explorer._image_for(sc)
        out = explorer.run(sc)
        assert explorer._recorded is not None
        if minimized:
            assert explorer.minimize(sc, [
                reporting.action_from_line(ln) for ln in out.trace_lines
                if ln.startswith("A ")])
            assert explorer._recorded is None
        program = weakref.ref(image.program)
        runtimes._program.cache_clear()
        del image
        assert program() is None
    finally:
        if enabled:
            gc.enable()


def test_only_the_roots_build_machines(monkeypatch):
    # a recorded run, its replay and a minimization of one image on one
    # platform build one machine between them
    real = adversary.build_machine
    built = []

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(adversary, "build_machine", counted)
    sc = agreement.canonical("scripted_sdk_sgx2")
    image = explorer._image_for(sc)
    monkeypatch.setattr(image.program, "roots", {})
    out = explorer.run(sc)
    assert explorer.replay(sc, out.trace_lines, len(out.trace_lines)).ok
    actions = [reporting.action_from_line(ln) for ln in out.trace_lines
               if ln.startswith("A ")]
    explorer.minimize(sc, actions)
    assert len(built) == 1
    assert list(image.program.roots) == [Root.key(image, SGX2, (100, 10000))]
