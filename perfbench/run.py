#!/usr/bin/env python3
"""The aexlab benchmark.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload {survey,hunt,record-replay}
        --seed N --seconds S --trace {0,1}

Each workload is a fixed batch of operations (a pass) generated from the
seed.  The benchmark repeats passes until `--seconds` have elapsed (at least
two passes), checks every output outside the timed region, and prints one
JSON object as its last stdout line.  With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it first times untraced passes for half
the time, then traced passes for the other half, and reports the per-layer
metrics and the tracing overhead.

The package is imported from `src/` of the checkout and nowhere else; without
it the benchmark exits 2 and prints no result.  Scratch files and the
work-counter record live under `.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

MIN_PASSES = 2
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


class Failure:
    """An operation that raised: counted as failed and kept out of the
    latencies.  The gate accepts only the workload's known defect, which
    must fail the same way on every pass."""

    def __init__(self, exc: BaseException):
        self.exc_type = type(exc).__name__
        self.message = str(exc)
        self.digest = f"{self.exc_type}: {self.message}"
        self.counters = {}
        self.detail = None


def timed_passes(wl, seconds: float, min_passes: int, tracer=None) -> list:
    """Repeat passes over the batch.  Each result carries the operation's
    calibrated time (see `hostspeed`); a pass's `wall` is their sum."""
    passes = []
    speed = hostspeed.HostSpeed()
    if tracer is not None:
        tracer.clock = speed.clock
    speed.start()
    try:
        start = perf_counter()
        while len(passes) < min_passes or perf_counter() - start < seconds:
            results = []
            raw_wall = 0.0
            speed.sample()
            for op in wl.batch:
                first = len(speed.samples) - 1
                t0 = speed.clock()
                try:
                    res = wl.run(op)
                except Exception as exc:       # counted, never fatal
                    res = Failure(exc)
                raw = speed.clock() - t0
                speed.sample()
                results.append(
                    (op, res, raw * hostspeed.scale(speed.samples[first:])))
                raw_wall += raw
            if passes:
                # the gate reads only the first pass's outputs; keeping the
                # others would make peak RSS grow with the number of passes
                for _, res, _ in results:
                    res.detail = None
            sums = tracer.end_pass() if tracer is not None else None
            passes.append({"wall": sum(r[2] for r in results),
                           "raw_wall": raw_wall, "results": results,
                           "traced": sums})
    finally:
        speed.stop()
    return passes


def measure_setup(workload: str, seed: int, workdir: str) -> float:
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe-{i}")
        os.makedirs(probe_dir)
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe_setup.py"), workload,
             str(seed), probe_dir],
            capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S)
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def source_digest() -> str:
    """Identifies the program under test and the benchmark's own code, so
    that recorded work counters are compared only between runs of the
    same code."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "aexlab"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def check_recorded_counters(key: str, counters: list) -> list[str]:
    """Compare this run's work counters with those recorded by an earlier
    run of the same code, workload, seed and mode; record them if new."""
    path = os.path.join(STATE_DIR, "work_counters.json")
    state = {}
    if os.path.exists(path):
        with open(path) as fh:
            state = json.load(fh)
    if key in state:
        if state[key] != counters:
            return [f"work counters differ from an earlier run of the same "
                    f"code ({key})"]
        return []
    state[key] = counters
    with open(path + ".tmp", "w") as fh:
        json.dump(state, fh, sort_keys=True)
    os.replace(path + ".tmp", path)
    return []


def gate(wl, passes: list) -> list[str]:
    """Every output of the first pass is checked, and every operation that
    raised is an error unless it is the workload's known defect; every later
    pass must reproduce the first one's outputs and work counters exactly."""
    errors = []
    first = passes[0]["results"]
    for op, res, _ in first:
        if not isinstance(res, Failure):
            errors += wl.check(op, res)
        elif not wl.known_defect(op, res):
            errors.append(f"{wl.label(op)} raised {res.digest}")
    for i, p in enumerate(passes[1:], 2):
        for (op, a, _), (_, b, _) in zip(first, p["results"]):
            if (a.digest, a.counters) != (b.digest, b.counters):
                errors.append(f"pass {i}: {wl.label(op)} output or work "
                              f"counters differ from pass 1")
    return errors


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + children_kb) / 1024


def end_to_end(wl, passes: list, setup_s: float) -> dict:
    per_op = [statistics.median(p["results"][i][2] for p in passes)
              for i in range(len(wl.batch))]
    latencies = [t * 1e3
                 for (_, res, _), t in zip(passes[0]["results"], per_op)
                 if not isinstance(res, Failure) and wl.timed(res)]
    attempted, failed = tally(passes)
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(p["wall"] for p in passes), "s"),
        "op_ms.p50": (quantile(latencies, 50), "ms"),
        "op_ms.p90": (quantile(latencies, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def tally(passes: list) -> tuple[int, int]:
    results = [res for p in passes for _, res, _ in p["results"]]
    return len(results), sum(isinstance(r, Failure) for r in results)


def bench(args, workdir: str) -> int:
    import aexlab
    if os.path.dirname(os.path.abspath(aexlab.__file__)) != \
            os.path.join(SRC, "aexlab"):
        print(f"error: aexlab imported from {aexlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    machine = {"nproc": os.cpu_count(),
               "python": platform.python_version(),
               "platform": platform.platform()}

    setup_s = measure_setup(args.workload, args.seed,
                            os.path.join(workdir, "probes"))
    wl = workloads.make(args.workload, args.seed,
                        os.path.join(workdir, "main"))

    info = {"workload": args.workload, "seed": args.seed, "machine": machine,
            "batch": len(wl.batch)}
    if not args.trace:
        passes = timed_passes(wl, args.seconds, MIN_PASSES)
        metrics = end_to_end(wl, passes, setup_s)
        errors = gate(wl, passes)
        recorded = [res.counters for _, res, _ in passes[0]["results"]]
    else:
        import tracer as tracing
        untraced = timed_passes(wl, args.seconds / 2, 1)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = timed_passes(wl, args.seconds / 2, 1, tr)
        finally:
            tr.uninstall()
        passes = untraced + traced
        sums = [tracing.calibrated(p["traced"]["sums"],
                                   p["wall"] / p["raw_wall"]) for p in traced]
        metrics = tracing.per_layer(sums)
        base = statistics.median(p["wall"] for p in untraced)
        with_tracing = statistics.median(p["wall"] for p in traced)
        metrics["trace.overhead_s"] = (with_tracing - base, "s")
        metrics["trace.overhead_ratio"] = (with_tracing / base - 1, "ratio")
        errors = gate(wl, passes)
        recorded = [tracing.work_counters(s) for s in sums]
        if any(c != recorded[0] for c in recorded):
            errors.append("work counters differ between traced passes")
        recorded = recorded[:1]
        spans_path = os.path.join(
            STATE_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tracing.write_spans(spans_path,
                            [p["traced"]["spans"] for p in traced])
        info["spans"] = os.path.relpath(spans_path, ROOT)
        print(f"tracing overhead on {args.workload}: "
              f"{with_tracing - base:+.3f} s per pass "
              f"({with_tracing / base - 1:+.1%}; untraced {base:.3f} s, "
              f"traced {with_tracing:.3f} s)", file=sys.stderr)

    key = (f"{source_digest()}|{args.workload}|seed={args.seed}|"
           f"trace={args.trace}")
    errors += check_recorded_counters(key, recorded)
    attempted, failed = tally(passes)
    failures = sorted({res.digest for p in passes for _, res, _ in p["results"]
                       if isinstance(res, Failure)})
    totals = {}
    for c in recorded:
        for k, v in c.items():
            totals[k] = totals.get(k, 0) + v
    info.update({"passes": len(passes), "work_counters": totals,
                 "raw_pass_s": statistics.median(p["raw_wall"]
                                                 for p in passes),
                 "failures": failures, "errors": errors})
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True,
                    choices=("survey", "hunt", "record-replay"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "aexlab", "__init__.py")):
        print(f"error: no aexlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    os.makedirs(STATE_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE_DIR)
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
