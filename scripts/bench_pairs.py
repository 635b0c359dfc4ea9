#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark.

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seed S
        --pairs N [--trace {0,1}] [--out FILE]

PARENT and CHANGE are checkouts of the two commits (a `git archive` of
each, say).  Pair i runs `perfbench/run.py` once in each, the parent first
in even-numbered pairs and the change first in odd-numbered ones, at the
run length `run_seconds` of CHANGE's BENCHMARK.json, untraced unless
`--trace 1`.  Every run uses PYTHONDONTWRITEBYTECODE=1, starts with
`src/aexlab/__pycache__` and `.bench_build/` removed from its checkout,
and has a 300 s timeout.  A run that is not `correct: true` stops the
script with exit 1.

It prints each pair as it completes, then, for every end-to-end metric of
BENCHMARK.json, each side's median and quartiles
(`statistics.quantiles(n=4, method="inclusive")`), the pairs the change
won (ties count for neither side) and whether the claim rule holds: the
change wins at least nine tenths of the pairs, and its median is better
than the parent's by more than the parent's interquartile range.  With
`--out`, it adds its runs and summary to FILE in the layout of the
`BENCH_*.json` files (`runs`, `summary`), keeping what FILE held.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 300


class BenchFailed(Exception):
    """A run of the benchmark that gave no correct result."""


def order(pair: int) -> tuple[str, str]:
    """The sides of pair `pair` in the order they run."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def result_of(stdout: str) -> tuple[dict, dict]:
    """The info line and the result line a run printed last; BenchFailed
    unless the result is correct."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise BenchFailed(f"no result in the output: {stdout[-500:]!r}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if result.get("correct") is not True:
        raise BenchFailed(f"correct: {result.get('correct')}, errors: "
                          f"{info.get('errors')}")
    return info, result


def run_once(tree: str, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """One run of `perfbench/run.py` in the checkout `tree`, started
    without byte-code caches or benchmark state."""
    shutil.rmtree(os.path.join(tree, "src", "aexlab", "__pycache__"),
                  ignore_errors=True)
    shutil.rmtree(os.path.join(tree, ".bench_build"), ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchFailed(f"{tree}: exit {out.returncode}: "
                          f"{out.stderr[-500:]}")
    return result_of(out.stdout)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over the pairs (`parent[i]`, `change[i]`), of which
    `better` ("lower" or "higher") is the better direction."""
    sign = 1 if better == "lower" else -1
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    pairs = len(parent)
    gap = sign * (p["median"] - c["median"])
    return {
        "parent": p,
        "change": c,
        "change_vs_parent": (c["median"] / p["median"] - 1
                             if p["median"] else 0.0),
        "change_wins": f"{wins}/{pairs}",
        "claim_rule_holds": 10 * wins >= 9 * pairs
        and gap > p["q3"] - p["q1"],
        "pairs_parent_change": [[a, b] for a, b in zip(parent, change)],
    }


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The summary of one workload and seed: `runs` holds each pair's
    two runs (`round`, `tree`, `info`, `result`), `end_to_end` the
    metrics of BENCHMARK.json; a traced run reports none of them."""
    sides = {"parent": {}, "change": {}}
    for run in runs:
        sides[run["tree"]][run["round"]] = run
    rounds = sorted(set(sides["parent"]) & set(sides["change"]))
    paired = {t: [sides[t][r] for r in rounds] for t in sides}
    counters = {t: [r["info"].get("work_counters") for r in paired[t]]
                for t in paired}
    first = runs[0]
    return {
        "workload": first["workload"],
        "seed": first["seed"],
        "pairs": len(rounds),
        "all_correct": all(r["result"]["correct"] for r in runs),
        "failed_ops": {t: sorted({r["result"]["failed"]
                                  / r["result"]["attempted"]
                                  for r in paired[t]}) for t in paired},
        "work_counters_equal": all(
            c == counters["parent"][0]
            for c in counters["parent"] + counters["change"]),
        "work_counters": counters["change"][0],
        "metrics": {m["name"]: compare(
            [r["result"]["metrics"][m["name"]]["value"]
             for r in paired["parent"]],
            [r["result"]["metrics"][m["name"]]["value"]
             for r in paired["change"]], m["better"])
            for m in end_to_end if m["name"] in first["result"]["metrics"]},
    }


def report(summary: dict) -> str:
    lines = [f"{summary['workload']} seed {summary['seed']}: "
             f"{summary['pairs']} pairs, work counters "
             f"{'equal' if summary['work_counters_equal'] else 'DIFFER'}"]
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        lines.append(
            f"  {name}: parent {p['median']:.6g} [{p['q1']:.6g}, "
            f"{p['q3']:.6g}]  change {c['median']:.6g} [{c['q1']:.6g}, "
            f"{c['q3']:.6g}]  {m['change_vs_parent']:+.2%}  wins "
            f"{m['change_wins']}  claim rule "
            f"{'holds' if m['claim_rule_holds'] else 'does not hold'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True,
                    choices=("survey", "hunt", "record-replay"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    runs = []
    try:
        for pair in range(args.pairs):
            values = {}
            for tree in order(pair):
                info, result = run_once(trees[tree], args.workload,
                                        args.seed, seconds, args.trace)
                runs.append({"workload": args.workload, "round": pair,
                             "tree": tree, "seed": args.seed,
                             "trace": args.trace, "seconds": seconds,
                             "info": info, "result": result})
                values[tree] = {k: v["value"]
                                for k, v in result["metrics"].items()}
            print(f"pair {pair} ({order(pair)[0]} first): " + ", ".join(
                f"{k} {values['parent'][k]:.6g} -> {values['change'][k]:.6g}"
                for k in values["change"]), flush=True)
    except (BenchFailed, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    summary = summarize(runs, bench["end_to_end"])
    print(report(summary))
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc.setdefault("runs", []).extend(runs)
        doc.setdefault("summary", []).append(summary)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
