"""The benchmark workloads: input generation, one operation, and the
correctness gate.

A workload is a fixed batch of operations (a *pass*) generated from the
seed.  `run.py` times passes; everything here that checks outputs runs
outside the timed region.  Every input reaches the program through its
public functions: `cli.main`, `explorer.run`, `explorer.minimize`,
`explorer.replay` and `reporting`'s trace and scenario functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from aexlab import cli, explorer, properties, reporting, runtimes
from aexlab.harness import run_plan

# The published survey table (sgx2: 10 VULN / 4 SAFE; on sgx1 the six
# sdk-derived rows become SAFE: 4 VULN / 10 SAFE).
_SGX2_SAFE = {"Graphene-SGX", "Fortanix Rust EDP", "Alibaba Inclave", "Ratel"}
_SGX1_VULN = {"Microsoft Open Enclave", "RedHat Enarx", "SGX-LKL",
              "EdgelessRT"}
HW_MITIGATIONS = ("hw_reentry_mask", "hw_irq_quota")


def published_verdict(runtime: str, sgx: int) -> str:
    if sgx == 2:
        return "SAFE" if runtime in _SGX2_SAFE else "VULN"
    return "VULN" if runtime in _SGX1_VULN else "SAFE"


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


def _quiet_cli(argv: list[str]) -> int:
    """Run the CLI in-process with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _canonical(name: str) -> dict:
    path = runtimes.fixture_path(os.path.join("scenarios", name))
    with open(path) as fh:
        return reporting.loads_scenario(fh.read())


def _free_public_pages() -> list[int]:
    """Page bases where `layout.pubbuf_base` overlaps no other region of
    the default layout."""
    return ([0x30000 + 0x1000 * i for i in range(16)]
            + [0x41000 + 0x1000 * i for i in range(15)])


class OpResult:
    """What one operation produced: a digest of its outputs (compared
    across passes), its deterministic work counters, and whatever the gate
    needs."""

    def __init__(self, digest: str, counters: dict, detail=None):
        self.digest = digest
        self.counters = counters
        self.detail = detail


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

class Survey:
    """`aexlab matrix --sgx 2`, `--sgx 1`, then `aexlab run` certifying the
    two hardware mitigations on sgx2, all at workers=1.  The seed does not
    change the inputs: the survey is the product's fixed hot path."""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        explorer.load_mapping()
        self.scenario_files = {}
        for variant in HW_MITIGATIONS:
            sc = reporting.normalize_scenario(
                {"variant": variant, "sgx_version": 2,
                 "adversary": "exhaustive", "seed": seed})
            path = os.path.join(workdir, f"{variant}.json")
            with open(path, "w") as fh:
                fh.write(reporting.dumps_scenario(sc))
            self.scenario_files[variant] = path
        self.batch = [("matrix", 2), ("matrix", 1)] + [
            ("run", v) for v in HW_MITIGATIONS]

    def label(self, op) -> str:
        return f"{op[0]}:{op[1]}"

    @staticmethod
    def timed(res: OpResult) -> bool:
        return True

    @staticmethod
    def known_defect(op, failure) -> bool:
        return False

    def run(self, op, workers: int = 1) -> OpResult:
        kind, arg = op
        out = os.path.join(self.workdir, f"out-w{workers}-{kind}-{arg}")
        if kind == "matrix":
            rc = _quiet_cli(["matrix", "--sgx", str(arg), "--out", out,
                             "--workers", str(workers)])
            name = "matrix.json"
        else:
            rc = _quiet_cli(["run", "--scenario", self.scenario_files[arg],
                             "--out", out, "--workers", str(workers)])
            name = "report.json"
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        doc = json.loads(data)
        stats = ([c["stats"] for c in doc["cells"]] if kind == "matrix"
                 else [doc["stats"]])
        counters = {"adversary.runs": sum(s.get("runs", 0) for s in stats),
                    "interp.steps": sum(s.get("steps", 0) for s in stats),
                    "reporting.trace_lines": 0}
        return OpResult(_digest(rc, data), counters, (rc, doc, data))

    def check(self, op, res: OpResult) -> list[str]:
        kind, arg = op
        rc, doc, data = res.detail
        errors = []
        # workers=2 runs both multiprocessing fan-outs (per matrix cell and
        # per search branch); the bytes must not change
        if self.run(op, workers=2).detail[2] != data:
            errors.append(f"{self.label(op)}: output differs between "
                          f"workers 1 and 2")
        if rc != 0:
            errors.append(f"{self.label(op)}: exit code {rc}")
        if kind == "matrix":
            if len(doc["cells"]) != 14:
                errors.append(f"sgx{arg}: {len(doc['cells'])} rows, not 14")
            for cell in doc["cells"]:
                want = published_verdict(cell["runtime"], arg)
                if cell["verdict"] != want:
                    errors.append(f"sgx{arg} {cell['runtime']}: "
                                  f"{cell['verdict']}, published {want}")
        else:
            outcomes = {v["outcome"] for v in doc["verdicts"]}
            if doc["status"] != "ok" or outcomes != {"no_violation_found"}:
                errors.append(f"{arg} is not SAFE: {doc['status']} "
                              f"{sorted(outcomes)}")
        return errors


# ---------------------------------------------------------------------------
# hunt
# ---------------------------------------------------------------------------

VULN_PAIRS = (("sdk_style", 2), ("open_enclave_style", 1),
              ("open_enclave_style", 2), ("enarx_style", 1),
              ("enarx_style", 2))
HUNT_ALIGNMENTS = (8, 16, 32)
HUNT_CLASSES = (("page_fault", "external_interrupt"),
                ("external_interrupt", "page_fault"),
                ("page_fault",), ("external_interrupt",))
# A hunt's budget: one search branch over the first 8 injection
# boundaries.  Every counterexample of these pairs sits at boundary 0 of
# the first branch, and the run budget is enforced between branches, so a
# configuration without one stops after a single branch of at most
# 12 x (1 + 1 + 9) = 132 runs.
HUNT_BUDGETS = {"max_runs": 64, "boundary_cap": 8}


def _balanced(rng: random.Random, values, n: int) -> list:
    """`n` draws with every value equally often, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


class Hunt:
    """Seeded bug hunting on the survey's VULN pairs: each configuration
    perturbs the toggles, the public buffer, the sp-confinement mode and
    the injected classes, then runs `explorer.run` (search and recorded
    counterexample) and `explorer.minimize` on its actions.

    Per pair, the batch crosses every alignment, class list and validity
    check setting (24 configurations).  ASLR offsets are a systematic
    sample of the 256 non-zero word offsets in (0, 2048] from a seeded
    start, laid along that crossing with an odd stride, so each alignment
    sees every residue of the offset evenly and the offsets alternate
    between odd and even words.  Exactly half of each pair's offsets are
    multiples of 16, as in the full range (128 of 256), so the number of
    configurations hitting the enarx crash is the same for every seed, and
    the share without a counterexample nearly so."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        pages = _free_public_pages()
        cells = [(align, classes, removed) for align in HUNT_ALIGNMENTS
                 for classes in HUNT_CLASSES for removed in (False, True)]
        n = len(cells)
        batch = []
        for variant, sgx in VULN_PAIRS:
            start = rng.randrange(256)
            pads = _balanced(rng, (0, 2, 4, 8), n)
            modes = _balanced(rng, ("range", "strict"), n)
            for i, (align, classes, removed) in enumerate(cells):
                batch.append(reporting.normalize_scenario({
                    "variant": variant, "sgx_version": sgx,
                    "adversary": "exhaustive", "seed": seed,
                    "budgets": HUNT_BUDGETS,
                    "toggles": {
                        "aslr_stack_offset": 8 * (1 + (start + 21 * i) % 256),
                        "critical_pad": pads[i],
                        "sgx1_valid_check_removed": removed,
                        "alignment_required": align},
                    "layout": {"pubbuf_base": rng.choice(pages)},
                    "sp_confinement_mode": modes[i],
                    "inject_classes": list(classes),
                }))
        rng.shuffle(batch)
        self.batch = batch

    def label(self, op) -> str:
        return reporting.scenario_digest(op)

    def run(self, scenario) -> OpResult:
        outcome = explorer.run(scenario)
        if outcome.trace_lines is None:
            # no counterexample within the hunt budget
            counters = {"adversary.runs": outcome.stats.get("runs", 0),
                        "interp.steps": outcome.stats.get("steps", 0),
                        "reporting.trace_lines": 0}
            return OpResult(_digest(outcome.report(None)), counters,
                            (outcome, None))
        actions = [reporting.action_from_line(ln)
                   for ln in outcome.trace_lines if ln.startswith("A ")]
        minimized = explorer.minimize(scenario, actions)
        counters = {"adversary.runs": outcome.stats["runs"],
                    "interp.steps": outcome.stats["steps"],
                    "reporting.trace_lines": len(outcome.trace_lines),
                    "explorer.minimized_actions": len(minimized)}
        digest = _digest(outcome.report("run.trace"), outcome.trace_lines,
                         [reporting.action_to_line(a) for a in minimized])
        return OpResult(digest, counters, (outcome, (actions, minimized)))

    @staticmethod
    def timed(res: OpResult) -> bool:
        """Latency counts time to a counterexample; a configuration without
        one within the hunt budget has none."""
        return res.detail[1] is not None

    @staticmethod
    def known_defect(scenario, failure) -> bool:
        """`enarx_style` with an ASLR offset that is a non-zero multiple of
        16 crashes in `adversary.craft_sp`; it is counted, not hidden."""
        offset = scenario["toggles"]["aslr_stack_offset"]
        return (scenario["variant"] == "enarx_style"
                and offset != 0 and offset % 16 == 0
                and failure.exc_type == "AssertionError"
                and failure.message == "crafting drifted off the anchor")

    def check(self, scenario, res: OpResult) -> list[str]:
        outcome, found = res.detail
        if found is None:
            if outcome.status != "budget_exceeded" and outcome.exit_code != 0:
                return [f"{self.label(scenario)}: no trace, exit "
                        f"{outcome.exit_code}"]
            return []
        actions, minimized = found
        hit = properties.any_violation(outcome.verdicts)
        if hit is None:
            return [f"{self.label(scenario)}: counterexample without a "
                    f"violated property"]
        errors = []
        image = explorer._image_for(scenario)
        again = properties.any_violation(
            explorer.evaluate_with_scenario(scenario, image, minimized))
        if again is None or again.property_id != hit.property_id:
            errors.append(f"{self.label(scenario)}: minimized plan no longer "
                          f"violates {hit.property_id}")
        m = runtimes.build_machine(image, scenario["sgx_version"])
        trace = run_plan(m, image, actions,
                         max_steps=scenario["budgets"]["max_steps"]).trace
        if not properties.shadow_agrees(trace, image):
            errors.append(f"{self.label(scenario)}: shadow taint disagrees "
                          f"on the counterexample trace")
        return errors


# ---------------------------------------------------------------------------
# record-replay
# ---------------------------------------------------------------------------

GOLDEN = "golden/scripted_sdk_sgx2.trace"


class RecordReplay:
    """A seeded mix of the trace-producing scenarios, each recorded with
    `reporting.write_trace`, then read back with `reporting.read_trace` and
    replayed with `explorer.replay`.

    The batch holds the canonical golden, benign and exhaustive scenarios,
    every scripted combination twice (sdk on sgx2, oe/timer on sgx1, enarx
    on both; three routes by three vectors; each copy with its own public
    buffer), and four multi-round ASLR sweeps.  The sweeps are 4-20x longer
    than the rest; keeping them near 5% of the batch keeps the p90 inside
    the bulk of the distribution.  Their offsets are a systematic sample
    with antithetic partners (o, o + 512, 2049 - o, 1537 - o), which keeps
    their total cost nearly independent of the seed."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.workdir = workdir
        pages = _free_public_pages()
        bases = {"sdk": _canonical("scripted_sdk_sgx2.json"),
                 "oe": _canonical("scripted_oe_sgx1_timer.json")}
        batch = [("golden", bases["sdk"]),
                 ("benign", _canonical("benign_sdk_sgx2.json")),
                 ("exhaustive", _canonical("exhaustive_sdk_sgx2.json"))]
        combos = [("sdk", "sdk_style", 2), ("oe", "open_enclave_style", 1),
                  ("enarx1", "enarx_style", 1), ("enarx2", "enarx_style", 2)]
        for _copy in range(2):
            for tag, variant, sgx in combos:
                base = bases["oe" if tag == "oe" else "sdk"]
                for route in (None, "private", "public"):
                    for vector in (None, "page_fault", "external_interrupt"):
                        doc = dict(base, variant=variant, sgx_version=sgx,
                                   route=route, vector=vector, seed=seed,
                                   layout={"pubbuf_base": rng.choice(pages)})
                        batch.append((f"scripted-{tag}",
                                      reporting.normalize_scenario(doc)))
        aslr = _canonical("aslr_multi_round.json")
        o = rng.randint(1, 512)
        for offset in (o, o + 512, 2049 - o, 1537 - o):
            doc = dict(aslr, seed=seed,
                       toggles=dict(aslr["toggles"],
                                    aslr_stack_offset=offset))
            batch.append(("aslr", reporting.normalize_scenario(doc)))
        rng.shuffle(batch)
        self.batch = batch
        with open(runtimes.fixture_path(GOLDEN), "rb") as fh:
            self.golden = fh.read()

    def label(self, op) -> str:
        return f"{op[0]}:{reporting.scenario_digest(op[1])}"

    @staticmethod
    def timed(res: OpResult) -> bool:
        return True

    @staticmethod
    def known_defect(op, failure) -> bool:
        return False

    def run(self, op) -> OpResult:
        kind, scenario = op
        path = os.path.join(self.workdir, "run.trace")
        outcome = explorer.run(scenario)
        reporting.write_trace(path, scenario, outcome.trace_lines)
        read_scenario, declared, lines = reporting.read_trace(path)
        replayed = explorer.replay(read_scenario, lines, declared)
        with open(path, "rb") as fh:
            data = fh.read()
        counters = {"interp.steps": outcome.stats.get("steps", 0),
                    "reporting.trace_lines": len(outcome.trace_lines)}
        digest = _digest(data, replayed.ok, replayed.exit_code)
        return OpResult(digest, counters, (outcome, replayed, data))

    def check(self, op, res: OpResult) -> list[str]:
        kind, _ = op
        outcome, replayed, data = res.detail
        errors = []
        if not replayed.ok:
            errors.append(f"{self.label(op)}: replay diverged at line "
                          f"{replayed.divergence_line}: {replayed.detail}")
        elif replayed.exit_code != outcome.exit_code:
            errors.append(f"{self.label(op)}: replay exit "
                          f"{replayed.exit_code}, run exit "
                          f"{outcome.exit_code}")
        if kind == "golden" and data != self.golden:
            errors.append("scripted_sdk_sgx2 trace differs from the golden "
                          "fixture")
        return errors


def make(name: str, seed: int, workdir: str):
    os.makedirs(workdir, exist_ok=True)
    if name == "survey":
        return Survey(seed, workdir)
    if name == "hunt":
        return Hunt(seed, workdir)
    if name == "record-replay":
        return RecordReplay(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
