"""Package-level guards: what importing the package loads, the value
semantics of the types that stand for values, and the names the
benchmark's tracer wraps."""

import ast
import subprocess
import sys
from pathlib import Path

from aexlab import adversary, cli, explorer, harness, isa, properties, \
    reporting
from aexlab.harness import (
    Eenter, Eresume, FlipPerms, InjectAex, PrepareRegs, SeedPublic, Stop,
)
from aexlab.machine import Machine, Page
from aexlab.runtimes import Layout, Toggles

from conftest import CLI_ENV, CLI_TIMEOUT

# modules the package must not load at import: class-creation machinery
# and the process pool, which only a search with workers > 1 starts
HEAVY = {"dataclasses", "inspect", "multiprocessing"}


def _loaded(*imports: str) -> set:
    """The modules a fresh interpreter has loaded after `imports`."""
    code = "".join(f"import {name}\n" for name in imports)
    out = subprocess.run(
        [sys.executable, "-c", code + "import sys\nprint(*sys.modules)"],
        capture_output=True, text=True, env=CLI_ENV, check=True,
        timeout=CLI_TIMEOUT)
    return set(out.stdout.split())


def test_import_loads_no_dataclasses_inspect_or_multiprocessing():
    # measured against a bare interpreter, so that whatever a site hook
    # loads anyway does not count
    baseline = _loaded()
    loaded = _loaded("aexlab.cli", "aexlab.explorer")
    assert "aexlab.cli" in loaded and "aexlab.explorer" in loaded
    assert (loaded - baseline) & HEAVY == set()


ACTIONS = [
    PrepareRegs.of(rsp=0x27F00, rsi=0), PrepareRegs(()),
    Eenter.of(3), Eenter.of(0, regs={"rsp": 0}, aep=0x40000),
    Eresume(), InjectAex(32, 5), FlipPerms(32, 5),
    SeedPublic(0x41000, (1, 2)), Stop(),
]


def test_action_kinds_never_compare_equal():
    assert Eresume() != Stop() and not Eresume() == Stop()
    assert InjectAex(32, 5) != FlipPerms(32, 5)
    assert not InjectAex(32, 5) == FlipPerms(32, 5)
    assert InjectAex(32, 5) != (32, 5)
    for i, a in enumerate(ACTIONS):
        for j, b in enumerate(ACTIONS):
            assert (a == b) == (i == j), (a, b)
            assert (a != b) == (i != j), (a, b)


def test_actions_are_truthy_hashable_values():
    for action in ACTIONS:
        assert action
        fields = action if isinstance(action, tuple) else ()
        rebuilt = type(action)(*fields)
        assert rebuilt == action and not rebuilt != action
        assert hash(rebuilt) == hash(action)
    assert len(set(ACTIONS)) == len(ACTIONS)


def test_value_reprs_keep_their_text():
    assert repr(Layout()) == (
        "Layout(code_base=4096, stack_limit=131072, stack_base=163840, "
        "td_base=167936, ssa_base=172032, secret_base=176128, "
        "secret_len=128, scratch_base=180224, dedicated_page=184320, "
        "dedicated_stack_base=188160, host_base=262144, pubbuf_base=266240)")
    assert repr(Toggles()) == (
        "Toggles(sgx1_valid_check_removed=False, aslr_stack_offset=0, "
        "alignment_required=16, critical_pad=0, flag_strategy=None)")
    assert repr(PrepareRegs.of(rsp=0x27F00, rsi=0, rax=-1)) == (
        "PrepareRegs(regs=(('rax', 18446744073709551615), ('rsi', 0), "
        "('rsp', 163584)))")
    assert [repr(a) for a in (Eresume(), Stop())] == ["Eresume()", "Stop()"]


def test_pages_are_values():
    # tuples of pages key a program's fetch tables
    page = Page(0x1000, 0x1000, 0, 5)
    assert page == Page(0x1000, 0x1000, 0, 5)
    assert hash(page) == hash(Page(0x1000, 0x1000, 0, 5))
    assert page != Page(0x1000, 0x1000, 0, 7)
    assert repr(page) == "Page(base=4096, size=4096, kind=0, perms=5)"


# tracer targets gone before this guard existed; their metrics read 0 until
# the benchmark stops wrapping them (ROADMAP item 11).  explorer's
# build_machine went when the roots became the one caller of
# build_machine; the tracer still counts those calls through adversary's.
# harness's step went when run_plan began stepping through run_steps; the
# interp.step metrics read 0 until the tracer wraps run_steps instead.
GONE_TRACER_TARGETS = {
    "properties.check_sp_confinement", "properties._CHECKS",
    "adversary.evaluate", "adversary.build_runtime",
    "explorer.build_machine", "harness.step",
}


def test_tracer_targets_exist():
    # perfbench/tracer.py skips a name that is gone, so a rename would turn
    # its spans off silently
    owners = {"adversary": [adversary], "cli": [cli], "explorer": [explorer],
              "harness": [harness], "isa": [isa], "properties": [properties],
              "reporting": [reporting], "Machine": [Machine],
              "reporting.TraceRecorder": [reporting.TraceRecorder],
              "mod": [explorer, adversary]}
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    targets = set()
    for node in ast.walk(ast.parse(tracer.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "P"
                and isinstance(node.args[1], ast.Constant)):
            for owner in owners[ast.unparse(node.args[0])]:
                targets.add((owner, node.args[1].value))
    assert (adversary, "_prefix_snapshot") in targets
    missing = {f"{owner.__name__.rpartition('.')[2]}.{name}"
               for owner, name in targets if not hasattr(owner, name)}
    assert missing == GONE_TRACER_TARGETS
