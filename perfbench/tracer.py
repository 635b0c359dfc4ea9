"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps the package's public functions at the names their callers
bind (module attributes and `Machine` methods) and records a span for each
call: name, start, end and the id of the enclosing span.  Spans are kept in
memory; self time is derived from them when a pass ends.  The roughly 600k
`interp.step` calls of a survey pass are aggregated instead (count and
time, charged to the enclosing span), as are `reporting.event_to_line`
calls.  The benchmark's workloads run at workers=1, so every span is
recorded in the benchmark's own process.

Times are read from `clock`, which the benchmark sets to a clock that stops
while its host-speed sampler runs (see hostspeed), so the sampler's time is
charged to no span.  `properties.events_scanned` counts the events each
detector actually reads: up to and including its witness when it finds a
violation, the whole trace otherwise, and none for the functionality check
of an adversarial run, which returns without reading.
"""

from __future__ import annotations

import functools
import gzip
from collections import Counter
from time import perf_counter

from aexlab import adversary, cli, explorer, harness, isa, properties, \
    reporting
from aexlab.machine import EntryDenied, Machine, ResumeDenied

RUN_STATUSES = ("done", "stopped", "halted", "entry_denied",
                "resume_denied", "stalled", "budget_exceeded")


class Tracer:
    """Installs the wrappers, collects one pass's spans and counters at a
    time, and restores the original names on `uninstall`."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.clock = perf_counter
        self.recorder_depth = 0
        # set while the search's detectors run on a trace that extends the
        # prefix snapshot
        self.searching = False
        # the search the next adversary.evaluate belongs to, set by each
        # prefix snapshot
        self.search_key = ""
        self.prefix_len = 0
        self.next_id = 1
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple] = []    # (id, parent, name, t0, t1, inline)
        self.stack: list[list] = []     # [id, inline time of aggregated calls]
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.distinct: dict[str, set] = {}

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(result, args, kwargs)` runs once the
        span has closed."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tr.next_id
            tr.next_id += 1
            parent = tr.stack[-1][0] if tr.stack else 0
            frame = [sid, 0.0]
            tr.stack.append(frame)
            t0 = tr.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = tr.clock()
                tr.stack.pop()
                tr.spans.append((sid, parent, name, t0, t1, frame[1]))
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def aggregate(self, name: str, fn, after=None):
        """Wrap `fn` with a call count and total time only."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = tr.clock()
            result = fn(*args, **kwargs)
            dt = tr.clock() - t0
            tr.counts[name] += 1
            tr.times[name] += dt
            if tr.stack:
                tr.stack[-1][1] += dt
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def _patch(self, owner, attr: str, wrapper_of) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            return          # the name moved; its metrics read 0
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper_of(fn))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        tr = self
        P = self._patch

        def step_after(sig, args, kwargs):
            if sig == "fault":
                tr.counts["interp.faults"] += 1
        P(harness, "step",
          lambda f: tr.aggregate("interp.step", f, step_after))

        def run_plan_after(res, args, kwargs):
            tr.counts["harness.status." + res.status] += 1
        for mod in (explorer, adversary):
            P(mod, "run_plan", lambda f: tr.span("harness.run_plan", f,
                                                 run_plan_after))

        def scanned(n):
            tr.counts["properties.events_scanned"] += n
            if tr.searching:
                tr.counts["properties.prefix_events"] += min(n, tr.prefix_len)

        def safety_check(fn):
            @functools.wraps(fn)
            def wrapper(trace, *args, **kwargs):
                v = fn(trace, *args, **kwargs)
                scanned(v.witness_index + 1 if v.violated else len(trace))
                return v
            return wrapper

        def functionality_check(fn):
            @functools.wraps(fn)
            def wrapper(trace, image, cooperative=True):
                scanned(len(trace) if cooperative else 0)
                return fn(trace, image, cooperative)
            return wrapper
        # `properties.evaluate` looks these names up at each call
        P(properties, "check_sp_confinement", safety_check)
        P(properties, "check_functionality", functionality_check)
        P(properties, "_CHECKS",
          lambda checks: {k: safety_check(f) for k, f in checks.items()})
        P(explorer, "evaluate", lambda f: tr.span("properties.evaluate", f))

        def in_search(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tr.searching = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    tr.searching = False
            return wrapper

        def search_evaluate_after(verdicts, args, kwargs):
            tr.counts["adversary.evaluated_traces"] += 1
            tr.distinct.setdefault(tr.search_key, set()).add(
                hash(tuple(args[0])))
        P(adversary, "evaluate",
          lambda f: tr.span("properties.evaluate", in_search(f),
                            search_evaluate_after))

        def snapshot_after(machine, args, kwargs):
            image, sgx, grant = args[:3]
            tr.prefix_len = len(machine.trace)
            tr.search_key = repr((image.variant, image.toggles, image.layout,
                                  sgx, grant))
        P(adversary, "_prefix_snapshot",
          lambda f: tr.span("adversary.prefix_snapshot", f, snapshot_after))

        def search_after(out, args, kwargs):
            tr.counts["adversary.runs"] += out.stats.runs
            tr.counts["adversary.boundaries"] += out.stats.boundaries
        P(adversary, "exhaustive_attacker",
          lambda f: tr.span("adversary.exhaustive_attacker", f,
                            search_after))
        P(explorer, "run_matrix", lambda f: tr.span("explorer.run_matrix", f))

        for mod in (explorer, adversary):
            P(mod, "build_machine",
              lambda f: tr.span("runtimes.build_machine", f))
            P(mod, "build_runtime",
              lambda f: tr.span("runtimes.build_runtime", f))
        P(isa, "assemble", lambda f: tr.span("isa.assemble", f))
        P(Machine, "clone", lambda f: tr.span("machine.clone", f))
        P(Machine, "digest", lambda f: tr.span("machine.digest", f))

        def denied(exc, name):
            def wrap(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    try:
                        return fn(*args, **kwargs)
                    except exc:
                        tr.counts[name] += 1
                        raise
                return wrapper
            return wrap
        P(Machine, "eenter", denied(EntryDenied, "machine.entry_denied"))
        P(Machine, "eresume", denied(ResumeDenied, "machine.resume_denied"))

        def aex_after(delivered, args, kwargs):
            if not delivered:
                tr.counts["machine.aex_deferred"] += 1
        P(Machine, "aex", lambda f: tr.aggregate("machine.aex", f, aex_after))

        for name in ("write_trace", "read_trace"):
            P(reporting, name,
              lambda f, name=name: tr.span(f"reporting.{name}", f))
        P(reporting, "event_to_line",
          lambda f: tr.aggregate("reporting.event_to_line", f))

        def recorder(fn):
            inner = tr.span("reporting.recorder", fn)

            @functools.wraps(fn)
            def wrapper(self, *args):
                if tr.recorder_depth:       # on_action's nested flush
                    return inner(self, *args)
                before = len(self.lines)
                tr.recorder_depth += 1
                try:
                    return inner(self, *args)
                finally:
                    tr.recorder_depth -= 1
                    tr.counts["reporting.trace_lines"] += (
                        len(self.lines) - before)
            return wrapper
        P(reporting.TraceRecorder, "flush", recorder)
        # `after_events` is the same function under a second class name;
        # nested recorder calls are counted once, by the outermost span
        P(reporting.TraceRecorder, "after_events", recorder)
        P(reporting.TraceRecorder, "on_action", recorder)

        P(explorer, "run", lambda f: tr.span("explorer.run", f))
        P(explorer, "minimize", lambda f: tr.span("explorer.minimize", f))
        P(explorer, "_fires",
          lambda f: tr.span("explorer.minimize.trial", f))
        P(explorer, "replay", lambda f: tr.span("explorer.replay", f))
        P(cli, "main", lambda f: tr.span("cli.main", f))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def end_pass(self) -> dict:
        """Derive this pass's per-layer sums from its spans and counters,
        and start afresh.  Returns the sums and the spans."""
        out = {"sums": _reduce(self.spans, self.counts, self.times,
                               self.distinct),
               "spans": self.spans}
        self._reset()
        return out


def _reduce(spans, counts, times, distinct) -> dict:
    """Per-name call counts, total and self times from the spans, plus the
    aggregated counters."""
    names = {}
    child_time: Counter = Counter()
    for sid, parent, name, t0, t1, inline in spans:
        names[sid] = name
        if parent:
            child_time[parent] += t1 - t0
    calls: Counter = Counter()
    total: Counter = Counter()
    self_time: Counter = Counter()
    for sid, parent, name, t0, t1, inline in spans:
        if name == "reporting.recorder" and names.get(parent) == name:
            continue        # nested recorder call: its outermost span counts
        dur = t1 - t0
        calls[name] += 1
        total[name] += dur
        self_time[name] += dur - child_time[sid] - inline
    sums = {f"calls:{k}": v for k, v in calls.items()}
    sums.update({f"total:{k}": v for k, v in total.items()})
    sums.update({f"self:{k}": v for k, v in self_time.items()})
    sums.update({f"count:{k}": v for k, v in counts.items()})
    sums.update({f"time:{k}": v for k, v in times.items()})
    sums["count:adversary.distinct_traces"] = sum(len(v) for v in
                                                  distinct.values())
    return sums


def calibrated(sums: dict, scale: float) -> dict:
    """The pass's sums with every time scaled to the reference host speed
    by the pass's calibration scale (see hostspeed)."""
    return {k: v * scale if k.split(":")[0] in ("total", "self", "time")
            else v for k, v in sums.items()}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(passes: list[dict]) -> dict:
    """The named per-layer metrics from the sums of the traced passes:
    counts and `_s` totals per pass; `_us`/`_ms` as the mean per call."""
    s: Counter = Counter()
    for p in passes:
        s.update(p)
    n = len(passes)
    get = lambda k: s.get(k, 0)

    def mean(name, scale):
        return _ratio(get(f"total:{name}") * scale, get(f"calls:{name}"))

    steps = get("count:interp.step")
    step_s = get("time:interp.step")
    scanned = get("count:properties.events_scanned")
    m = {
        "interp.steps": (steps / n, "count"),
        "interp.step_s": (step_s / n, "s"),
        "interp.steps_per_s": (_ratio(steps, step_s), "1/s"),
        "interp.faults": (get("count:interp.faults") / n, "count"),
        "machine.clone.calls": (get("calls:machine.clone") / n, "count"),
        "machine.clone_us": (mean("machine.clone", 1e6), "us"),
        "machine.digest.calls": (get("calls:machine.digest") / n, "count"),
        "machine.digest_us": (mean("machine.digest", 1e6), "us"),
        "machine.entry_denied": (get("count:machine.entry_denied") / n,
                                 "count"),
        "machine.resume_denied": (get("count:machine.resume_denied") / n,
                                  "count"),
        "machine.aex_deferred": (get("count:machine.aex_deferred") / n,
                                 "count"),
        "harness.run_plan.calls": (get("calls:harness.run_plan") / n,
                                   "count"),
        "harness.run_plan.self_s": (get("self:harness.run_plan") / n, "s"),
    }
    for st in RUN_STATUSES:
        m[f"harness.status.{st}"] = (get(f"count:harness.status.{st}") / n,
                                     "count")
    evaluate_s = get("total:properties.evaluate")
    m.update({
        "properties.evaluate.calls": (get("calls:properties.evaluate") / n,
                                      "count"),
        "properties.evaluate_s": (evaluate_s / n, "s"),
        "properties.events_scanned": (scanned / n, "count"),
        "properties.events_per_s": (_ratio(scanned, evaluate_s), "1/s"),
        "properties.prefix_rescan_ratio": (
            _ratio(get("count:properties.prefix_events"), scanned), "ratio"),
        "adversary.runs": (get("count:adversary.runs") / n, "count"),
        "adversary.boundaries": (get("count:adversary.boundaries") / n,
                                 "count"),
        "adversary.prefix_snapshot_ms": (
            mean("adversary.prefix_snapshot", 1e3), "ms"),
        "adversary.distinct_trace_ratio": (
            _ratio(get("count:adversary.distinct_traces"),
                   get("count:adversary.evaluated_traces")), "ratio"),
        "runtimes.build_runtime.calls": (
            get("calls:runtimes.build_runtime") / n, "count"),
        "runtimes.build_runtime_ms": (mean("runtimes.build_runtime", 1e3),
                                      "ms"),
        "isa.assemble_ms": (mean("isa.assemble", 1e3), "ms"),
        "runtimes.build_machine.calls": (
            get("calls:runtimes.build_machine") / n, "count"),
        "runtimes.build_machine_us": (mean("runtimes.build_machine", 1e6),
                                      "us"),
        "reporting.trace_lines": (get("count:reporting.trace_lines") / n,
                                  "count"),
        "reporting.recorder_lines_per_s": (
            _ratio(get("count:reporting.trace_lines"),
                   get("total:reporting.recorder")), "1/s"),
        "reporting.event_to_line_us": (
            _ratio(get("time:reporting.event_to_line") * 1e6,
                   get("count:reporting.event_to_line")), "us"),
        "reporting.read_trace_ms": (mean("reporting.read_trace", 1e3), "ms"),
        "reporting.write_trace_ms": (mean("reporting.write_trace", 1e3),
                                     "ms"),
        "explorer.minimize.calls": (get("calls:explorer.minimize") / n,
                                    "count"),
        "explorer.minimize_ms": (mean("explorer.minimize", 1e3), "ms"),
        "explorer.minimize.trials": (
            get("calls:explorer.minimize.trial") / n, "count"),
        "explorer.replay_ms": (mean("explorer.replay", 1e3), "ms"),
        "cli.main.self_ms": (_ratio(get("self:cli.main") * 1e3,
                                    get("calls:cli.main")), "ms"),
    })
    return m


def work_counters(sums: dict) -> dict:
    """The deterministic work counters: a pass of one commit must repeat
    them exactly."""
    return {
        "adversary.runs": sums.get("count:adversary.runs", 0),
        "interp.steps": sums.get("count:interp.step", 0),
        "properties.events_scanned":
            sums.get("count:properties.events_scanned", 0),
        "reporting.trace_lines": sums.get("count:reporting.trace_lines", 0),
    }


def write_spans(path: str, passes_spans: list[list[tuple]]) -> None:
    """One line per span: pass, id, parent id, name, start, end, and the
    time of aggregated calls charged directly to it."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("pass\tid\tparent\tname\tstart\tend\tinline\n")
        for i, spans in enumerate(passes_spans):
            for sid, parent, name, t0, t1, inline in spans:
                fh.write(f"{i}\t{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}"
                         f"\t{inline:.9f}\n")
