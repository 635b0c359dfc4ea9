#!/usr/bin/env python3
"""Write every byte-compared output of the CLI into one directory, so two
trees can be compared with a single `diff -r`.

For workers 1 and 2 it runs `aexlab matrix --sgx 2` and `--sgx 1` and
`aexlab run` of every canonical scenario, each into its own subdirectory
of OUT.  It also runs `graphene_emulated` `benign_critical` at sgx 1 and 2
with boundaries 1-23 (each of these completes an interrupted critical
span), and the scripted attack on `sdk_style` sgx 2, `open_enclave_style`
sgx 1 and `enarx_style` sgx 1 and 2, each at three public-buffer pages and
ASLR offsets 8 and 24, so that images sharing one assembled program within
the process are compared too.  It runs the multi-round ASLR sweep on
`sdk_style` at offsets 33, 1000 and 2048, and `hw_irq_quota` `exhaustive`
and `benign_critical` under two grants other than the default: one that
still certifies, and one too small for the entry window's atomic section,
under which the search finds a counterexample.  It runs `hw_irq_quota`
`benign_nested` at sgx 1 and 2 with boundaries 3 and 15: the second
exception lands inside the handler's entry window, is deferred, and is
delivered where that window expires.  It runs `sdk_style`
`exhaustive` at sgx 2 under step budgets of 100, 145 and 146: a run of
its counterexample from a fresh machine takes 146 steps, prefix included,
so the first two certify BUDGET and the last finds it.  It runs
`sdk_style` sgx 2 `scripted` and `exhaustive` under step budgets of 34,
35 and 36, around the 35 steps of the prefix their runs share: a run under
34 starts from a fresh machine, one under 35 or 36 from the state after
the prefix.  It runs
`sdk_style` `exhaustive` at sgx 1 under run budgets of 1000 and 4000
(of 6336 plans): each stops the search right after a branch whose last
11 payload bindings are counted in one step.  It runs `sdk_style`
`exhaustive` at sgx 1 under the benchmark hunt's budget (64 runs, 8
boundaries) with page faults alone, whose dry runs keep only their
boundary-0 point and whose third branch a class counts, and with page
faults and external interrupts, whose first branch ends the search and
so records no rsp path past its dry run.  It runs
`sdk_style` sgx 2 `scripted`, `benign`, `benign_critical` and
`multi_round_aslr` under a 60-step budget, which cuts each recorded run
before any safety violation, so each is BUDGET.  It runs `sdk_style`
`exhaustive` with a 256-byte stack, on which the prefix ends before its
ocall, so the run exits 1 with one `error:` line and writes no `--out`
(this script creates each job's directory for its stdout).  These scenario
files are written to OUT/scenarios.  Every trace written is then replayed with
`aexlab replay`, whose stdout lands next to the trace.  Exit codes go to
OUT/exit_codes.txt.  Each job's stderr, less its `wall time ...s` part,
goes to OUT/<tag>/work.txt, so that the deterministic search-work counters
("counted ... executed ... stepped") are compared too; wall times are not
written.

Usage: python scripts/snapshot_outputs.py OUT
"""

import argparse
import contextlib
import io
import json
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from aexlab import cli, runtimes  # noqa: E402

CRITICAL_BOUNDARIES = range(1, 24)
SCRIPTED_PAIRS = (("sdk_style", 2), ("open_enclave_style", 1),
                  ("enarx_style", 1), ("enarx_style", 2))
SCRIPTED_PAGES = (0x30000, 0x38000, 0x42000)
# odd multiples of 8: enarx_style's scripted crafting fails at multiples of 16
SCRIPTED_OFFSETS = (8, 24)
MULTI_ROUND_OFFSETS = (33, 1000, 2048)
QUOTA_GRANTS = ((64, 5000), (20, 5000))     # (allowed cycles, window)
# deferred into the handler's entry window, delivered at its end
NESTED_BOUNDARIES = (3, 15)
STEP_BUDGETS = (100, 145, 146)
# each cuts sdk_style sgx1 after a branch counted in one step
RUN_BUDGETS = (1000, 4000)
# the benchmark hunt's search budget, and two of its class lists
HUNT_BUDGETS = {"max_runs": 64, "boundary_cap": 8}
HUNT_CLASSES = (("page_fault",), ("page_fault", "external_interrupt"))
# the modes whose recorded run a 60-step budget cuts
CUT_MODES = ("scripted", "benign", "benign_critical", "multi_round_aslr")
CUT_STEPS = 60
# around the 35 steps of the sdk_style prefix
PREFIX_BUDGETS = (34, 35, 36)
# a 256-byte stack, on which the sdk_style prefix misses its ocall
SHORT_STACK_LIMIT = 0x27F00


def _critical_docs():
    for sgx in (2, 1):
        for boundary in CRITICAL_BOUNDARIES:
            yield (f"benign_critical_graphene_sgx{sgx}_b{boundary}",
                   {"variant": "graphene_emulated", "sgx_version": sgx,
                    "adversary": "benign_critical", "boundary": boundary})


def _scripted_docs():
    for variant, sgx in SCRIPTED_PAIRS:
        for page in SCRIPTED_PAGES:
            for offset in SCRIPTED_OFFSETS:
                yield (f"scripted_{variant}_sgx{sgx}_p{page:x}_o{offset}",
                       {"variant": variant, "sgx_version": sgx,
                        "adversary": "scripted",
                        "layout": {"pubbuf_base": page},
                        "toggles": {"aslr_stack_offset": offset}})


def _multi_round_docs():
    for offset in MULTI_ROUND_OFFSETS:
        yield (f"multi_round_sdk_style_o{offset}",
               {"variant": "sdk_style", "adversary": "multi_round_aslr",
                "toggles": {"aslr_stack_offset": offset}})


def _quota_grant_docs():
    for allowed, window in QUOTA_GRANTS:
        for mode in ("exhaustive", "benign_critical"):
            yield (f"{mode}_hw_irq_quota_a{allowed}_w{window}",
                   {"variant": "hw_irq_quota", "adversary": mode,
                    "hw_ext": {"allowed": allowed, "window": window}})


def _quota_nested_docs():
    for sgx in (2, 1):
        for boundary in NESTED_BOUNDARIES:
            yield (f"benign_nested_hw_irq_quota_sgx{sgx}_b{boundary}",
                   {"variant": "hw_irq_quota", "sgx_version": sgx,
                    "adversary": "benign_nested", "boundary": boundary})


def _step_budget_docs():
    for max_steps in STEP_BUDGETS:
        yield (f"exhaustive_sdk_style_sgx2_s{max_steps}",
               {"variant": "sdk_style", "sgx_version": 2,
                "adversary": "exhaustive",
                "budgets": {"max_steps": max_steps}})


def _prefix_budget_docs():
    for mode in ("scripted", "exhaustive"):
        for max_steps in PREFIX_BUDGETS:
            yield (f"{mode}_sdk_style_sgx2_s{max_steps}",
                   {"variant": "sdk_style", "sgx_version": 2,
                    "adversary": mode, "budgets": {"max_steps": max_steps}})


def _run_budget_docs():
    for max_runs in RUN_BUDGETS:
        yield (f"exhaustive_sdk_style_sgx1_r{max_runs}",
               {"variant": "sdk_style", "sgx_version": 1,
                "adversary": "exhaustive",
                "budgets": {"max_runs": max_runs}})


def _hunt_budget_docs():
    for classes in HUNT_CLASSES:
        yield (f"exhaustive_sdk_style_sgx1_hunt_{'_'.join(classes)}",
               {"variant": "sdk_style", "sgx_version": 1,
                "adversary": "exhaustive", "budgets": HUNT_BUDGETS,
                "inject_classes": list(classes)})


def _cut_run_docs():
    for mode in CUT_MODES:
        yield (f"{mode}_sdk_style_sgx2_s{CUT_STEPS}",
               {"variant": "sdk_style", "sgx_version": 2, "adversary": mode,
                "budgets": {"max_steps": CUT_STEPS}})


def _short_stack_docs():
    yield ("exhaustive_sdk_style_short_stack",
           {"variant": "sdk_style", "adversary": "exhaustive",
            "layout": {"stack_limit": SHORT_STACK_LIMIT}})


def _scenario_files(out: str, docs) -> list[tuple[str, str]]:
    scenario_dir = os.path.join(out, "scenarios")
    os.makedirs(scenario_dir, exist_ok=True)
    named = []
    for tag, doc in docs:
        path = os.path.join(scenario_dir, tag + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        named.append((tag, path))
    return named


WALL_TIME = re.compile(r"wall time \d+\.\d+s")


def _cli(argv: list[str], stdout_path: str,
         work_path: str | None = None) -> int:
    """Run the CLI in-process into `stdout_path`, and its stderr without
    wall times into `work_path`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    os.makedirs(os.path.dirname(stdout_path), exist_ok=True)
    with open(stdout_path, "w") as fh:
        fh.write(stdout.getvalue())
    if work_path is not None:
        with open(work_path, "w") as fh:
            fh.write(WALL_TIME.sub("", stderr.getvalue()))
    return code


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    args = ap.parse_args()

    scenario_dir = runtimes.fixture_path("scenarios")
    scenarios = [(n[:-len(".json")], os.path.join(scenario_dir, n))
                 for n in sorted(os.listdir(scenario_dir))
                 if n.endswith(".json")]
    jobs = []
    for workers in (1, 2):
        for sgx in (2, 1):
            jobs.append((f"matrix_sgx{sgx}_w{workers}",
                         ["matrix", "--sgx", str(sgx)], workers))
        for tag, path in scenarios:
            jobs.append((f"{tag}_w{workers}", ["run", "--scenario", path],
                         workers))
    for tag, path in _scenario_files(
            args.out, [*_critical_docs(), *_scripted_docs(),
                       *_multi_round_docs(), *_quota_grant_docs(),
                       *_quota_nested_docs(), *_step_budget_docs(), *_prefix_budget_docs(),
                       *_run_budget_docs(), *_hunt_budget_docs(),
                       *_cut_run_docs(),
                       *_short_stack_docs()]):
        jobs.append((tag, ["run", "--scenario", path], 1))

    codes = []
    for tag, argv, workers in jobs:
        out = os.path.join(args.out, tag)
        code = _cli(argv + ["--out", out, "--workers", str(workers)],
                    os.path.join(out, "stdout.txt"),
                    os.path.join(out, "work.txt"))
        codes.append(f"{tag} {code}\n")
        trace = os.path.join(out, "run.trace")
        if os.path.exists(trace):
            code = _cli(["replay", "--trace", trace],
                        os.path.join(out, "replay_stdout.txt"))
            codes.append(f"{tag} replay {code}\n")
    with open(os.path.join(args.out, "exit_codes.txt"), "w") as fh:
        fh.writelines(codes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
