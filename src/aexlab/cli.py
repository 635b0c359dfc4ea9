"""Command-line front end: scenario runs, the runtime-survey matrix, and
trace replay.

Exit codes: 0 no violation, 10 violation found (counterexample written),
2 budget exceeded, 1 usage or parse error, 3 replay digest mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache

from . import adversary, explorer, reporting
from .explorer import (
    EXIT_BUDGET, EXIT_DIGEST_MISMATCH, EXIT_OK, EXIT_USAGE,
)


def _cmd_run(args) -> int:
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            scenario = reporting.loads_scenario(fh.read())
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (reporting.ScenarioError, UnicodeDecodeError) as e:
        print(f"error: scenario: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        scenario["seed"] = args.seed

    t0 = time.monotonic()
    try:
        outcome = explorer.run(scenario, workers=args.workers)
    except adversary.PrefixFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    wall = time.monotonic() - t0

    trace_file = None if outcome.trace_lines is None else "run.trace"
    try:
        os.makedirs(args.out, exist_ok=True)
        if trace_file is not None:
            reporting.write_trace(os.path.join(args.out, trace_file),
                                  scenario, outcome.trace_lines)
        reporting.write_report(os.path.join(args.out, "report.json"),
                               outcome.report(trace_file))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    for v in outcome.verdicts:
        print(f"{v.property_id}: {v.outcome}"
              + (f" ({v.detail})" if v.detail else ""))
    if outcome.milestones:
        print("milestones:", " -> ".join(outcome.milestones))
    work = ""
    if outcome.search is not None:
        work = _work([outcome.search])
    print(f"status: {outcome.status}; {work}wall time {wall:.2f}s",
          file=sys.stderr)
    return outcome.exit_code


def _work(searches: list) -> str:
    """The search-work part of a status line: the (command, rsp) branches
    whose first binding an rsp class counted, plans run of plans covered,
    and the instructions the run plans stepped."""
    total = adversary.SearchStats()
    for stats in searches:
        total.merge(stats)
    return (f"counted {total.classed} of {total.branches} rsp branches by "
            f"class; executed {total.executed} of {total.runs} plans; "
            f"stepped {total.stepped} instructions; ")


def _cmd_matrix(args) -> int:
    try:
        mapping = explorer.load_mapping(args.mapping)
    except explorer.FixtureMissing as e:
        print(f"error: mapping fixture missing: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            reporting.ScenarioError) as e:
        print(f"error: mapping: {e}", file=sys.stderr)
        return EXIT_USAGE

    t0 = time.monotonic()
    cells = explorer.run_matrix(mapping, args.sgx, workers=args.workers)
    wall = time.monotonic() - t0

    text = explorer.render_matrix(cells, args.sgx)
    doc = {
        "tool": reporting.TOOL_VERSION,
        "sgx_version": args.sgx,
        "cells": [{"runtime": c.runtime, "variant": c.variant,
                   "exception_handling": c.exception_handling,
                   "verdict": c.verdict,
                   "stats": dict(sorted(c.stats.items()))} for c in cells],
    }
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "matrix.txt"), "w") as fh:
            fh.write(text)
        with open(os.path.join(args.out, "matrix.json"), "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE

    sys.stdout.write(text)
    print(_work([c.search for c in cells if c.search is not None])
          + f"wall time {wall:.2f}s", file=sys.stderr)
    if any(c.verdict == "BUDGET" for c in cells):
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_replay(args) -> int:
    try:
        scenario, declared, lines = reporting.read_trace(args.trace)
        result = explorer.replay(scenario, lines, declared)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (reporting.TraceFileError, reporting.ScenarioError,
            UnicodeDecodeError, json.JSONDecodeError) as e:
        print(f"error: trace: {e}", file=sys.stderr)
        return EXIT_DIGEST_MISMATCH
    if not result.ok:
        print(f"digest mismatch at trace line {result.divergence_line}: "
              f"{result.detail}", file=sys.stderr)
        return result.exit_code
    for v in result.verdicts:
        print(f"{v.property_id}: {v.outcome}"
              + (f" ({v.detail})" if v.detail else ""))
    print("replay ok: every digest reproduced", file=sys.stderr)
    return result.exit_code


def _workers(text: str) -> int:
    """A worker count: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="aexlab",
        description="deterministic enclave exception-interface simulator "
                    "and bounded checker")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario file")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--workers", type=_workers, default=1)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.set_defaults(func=_cmd_run)

    mx = sub.add_parser("matrix", help="certify the runtime survey table")
    mx.add_argument("--mapping", default=None)
    mx.add_argument("--sgx", type=int, choices=(1, 2), required=True)
    mx.add_argument("--out", required=True)
    mx.add_argument("--workers", type=_workers, default=1)
    mx.set_defaults(func=_cmd_matrix)

    rp = sub.add_parser("replay", help="re-execute and re-check a trace")
    rp.add_argument("--trace", required=True)
    rp.set_defaults(func=_cmd_replay)
    return p


_parser = lru_cache(maxsize=None)(build_parser)     # built once per process


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
