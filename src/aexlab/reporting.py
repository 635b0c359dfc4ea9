"""Scenario, trace, and report serialization.

Text-first, human-diffable, byte-stable: scenario files are JSON with a
fixed key set and documented defaults; traces are line-delimited records
(one host action or one machine event per line, each event line carrying a
running state digest); reports are JSON with sorted keys and no volatile
fields.  Replaying a trace file reproduces every digest or fails loudly at
the first divergent line.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence

from .harness import (
    CANDIDATE_DEPTH, Eenter, Eresume, FlipPerms, InjectAex, PrepareRegs,
    SearchBudget, SeedPublic, Stop,
)
from .machine import (
    DEFAULT_IRQ_GRANT, EVENT_IDS, EVENT_NAMES, MASK64, PERM_R, PERM_W,
    PERM_X, REG_IDS, VECTOR_IDS, VECTOR_NAMES,
)
from .properties import ALL_PROPERTIES, SAFETY_PROPERTIES
from .runtimes import (
    ASLR_RANGE, MAX_CRITICAL_PAD, VARIANTS, Layout, LayoutOverlap, Toggles,
    _check_layout,
)

TOOL_VERSION = "aexlab 0.1.0"
TRACE_MAGIC = "# aexlab-trace v1"

ADVERSARY_MODES = ("benign", "benign_nested", "benign_critical", "scripted",
                   "exhaustive", "multi_round_aslr", "monte_carlo")


class ScenarioError(Exception):
    """Malformed scenario document; the message carries the offending key."""


class TraceFileError(Exception):
    """Malformed trace file."""


_DEFAULT_BUDGETS = SearchBudget()._asdict()
_DEFAULT_TOGGLES = Toggles()._asdict()
_DEFAULT_HW_EXT = {"allowed": DEFAULT_IRQ_GRANT[0],
                   "window": DEFAULT_IRQ_GRANT[1]}
FLAG_STRATEGIES = (None, "postpone", "ignore")
ADDRESS_LIMIT = 1 << 48       # canonical lower-half x86-64 addresses

_SCENARIO_KEYS = {
    "variant", "sgx_version", "adversary", "seed", "properties", "budgets",
    "toggles", "hw_ext", "layout", "inject_classes", "sp_confinement_mode",
    "vector", "route", "max_rounds", "trials", "boundary",
}
# Top-level keys that only some modes read: key -> (default, those modes).
# Any other mode takes the key at its default only (absent and null read
# as the default), so a scenario never names a value its mode ignores.
_MODE_KEYS = {
    "vector": (None, ("scripted",)),
    "route": (None, ("scripted",)),
    "boundary": (None, ("benign_nested", "benign_critical")),
    "max_rounds": (32, ("multi_round_aslr",)),
    "trials": (100000, ("monte_carlo",)),
    "inject_classes": (["page_fault", "external_interrupt"],
                       ("exhaustive", "scripted")),
}


def _int(value, what: str, lo: Optional[int] = None,
         hi: Optional[int] = None) -> int:
    """`value` as an integer in [lo, hi], or at least lo when hi is None;
    bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ScenarioError(f"{what} must be {bounds}, got {value}")
    return value


def _get(doc: dict, key: str, default):
    """The value under `key`; absent or null is `default`."""
    value = doc.get(key)
    return default if value is None else value


def _section(doc: dict, key: str) -> dict:
    """The object under `key`; absent or null is the empty object."""
    value = _get(doc, key, {})
    if not isinstance(value, dict):
        raise ScenarioError(f"{key} must be an object, got {value!r}")
    return value


def _names(doc: dict, key: str, default: tuple, allowed, what: str) -> tuple:
    """The non-empty name list under `key`; absent or null is `default`."""
    names = doc.get(key)
    if names is None:
        return default
    if not isinstance(names, (list, tuple)) or not names:
        raise ScenarioError(f"{key} must be a non-empty list, got {names!r}")
    for name in names:
        if not isinstance(name, str) or name not in allowed:
            raise ScenarioError(f"unknown {what}: {name!r}")
    return tuple(names)


def _check_toggle(key: str, value) -> None:
    if key == "sgx1_valid_check_removed":
        if not isinstance(value, bool):
            raise ScenarioError(f"toggle {key} must be true or false")
    elif key == "aslr_stack_offset":
        _int(value, f"toggle {key}", 0, ASLR_RANGE)
    elif key == "alignment_required":
        # the check compiles to `and sp, $align-1`: 0 or a non-power of two
        # would reject or accept stack pointers the design never meant to
        _int(value, f"toggle {key}", 8, 4096)
        if value & (value - 1):
            raise ScenarioError(f"toggle {key} must be a power of two, "
                                f"got {value}")
    elif key == "critical_pad":
        _int(value, f"toggle {key}", 0, MAX_CRITICAL_PAD)
    elif value not in FLAG_STRATEGIES:          # flag_strategy
        raise ScenarioError(f"toggle {key} must be one of "
                            f"{list(FLAG_STRATEGIES)}, got {value!r}")


def _check_layout_doc(layout: dict) -> None:
    lay = Layout(**layout)
    if not 8 <= lay.secret_len <= 0x1000 or lay.secret_len % 8:
        raise ScenarioError("layout secret_len must be a multiple of 8 "
                            f"in [8, 4096], got {lay.secret_len}")
    if lay.stack_limit >= lay.stack_base:
        raise ScenarioError("layout stack_limit must lie below stack_base")
    try:
        _check_layout(lay)
    except LayoutOverlap as e:
        raise ScenarioError(f"layout regions overlap: {e}") from None


def normalize_scenario(doc: dict) -> dict:
    """Validate and fill defaults; the result round-trips byte-identically
    through dumps/loads."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be an object")
    unknown = set(doc) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioError(f"unknown keys: {sorted(unknown)}")
    variant = doc.get("variant")
    if variant not in VARIANTS:
        raise ScenarioError(f"unknown variant: {variant!r}")
    sgx = _get(doc, "sgx_version", 2)
    if isinstance(sgx, bool) or sgx not in (1, 2):
        raise ScenarioError(f"sgx_version must be 1 or 2, got {sgx!r}")
    adversary = _get(doc, "adversary", "exhaustive")
    if adversary not in ADVERSARY_MODES:
        raise ScenarioError(f"unknown adversary mode: {adversary!r}")
    props = _names(doc, "properties",
                   SAFETY_PROPERTIES + ("functionality",)
                   if adversary.startswith("benign") else SAFETY_PROPERTIES,
                   ALL_PROPERTIES, "property")
    if adversary == "exhaustive" and not set(SAFETY_PROPERTIES) <= set(props):
        # the search stops at the first plan violating any safety property,
        # so it cannot certify a subset of them
        raise ScenarioError(f"exhaustive mode checks every safety property: "
                            f"properties must include "
                            f"{', '.join(SAFETY_PROPERTIES)}")
    budgets = dict(_DEFAULT_BUDGETS)
    for k, v in _section(doc, "budgets").items():
        if k not in budgets:
            raise ScenarioError(f"unknown budget key: {k!r}")
        budgets[k] = _int(v, f"budget {k}", 1)
    if budgets["depth"] != CANDIDATE_DEPTH:
        # nothing deeper than the candidate template is enumerated
        raise ScenarioError(f"budget depth must be {CANDIDATE_DEPTH}, the "
                            f"length of the candidate plan template, got "
                            f"{budgets['depth']}")
    toggles = dict(_DEFAULT_TOGGLES)
    for k, v in _section(doc, "toggles").items():
        if k not in toggles:
            raise ScenarioError(f"unknown toggle: {k!r}")
        _check_toggle(k, v)
        toggles[k] = v
    hw_ext = dict(_DEFAULT_HW_EXT)
    for k, v in _section(doc, "hw_ext").items():
        if k not in hw_ext:
            raise ScenarioError(f"unknown hw_ext key: {k!r}")
        hw_ext[k] = _int(v, f"hw_ext {k}", 0)
    layout = {}
    for k, v in _section(doc, "layout").items():
        if k not in Layout._fields:
            raise ScenarioError(f"unknown layout key: {k!r}")
        layout[k] = _int(v, f"layout {k}", 0, ADDRESS_LIMIT)
    _check_layout_doc(layout)
    classes = _names(doc, "inject_classes", _MODE_KEYS["inject_classes"][0],
                     VECTOR_IDS, "exception class")
    sp_mode = _get(doc, "sp_confinement_mode", "range")
    if sp_mode not in ("range", "strict"):
        raise ScenarioError(f"sp_confinement_mode must be range|strict")
    vector = doc.get("vector")
    if vector is not None and (not isinstance(vector, str)
                               or vector not in VECTOR_IDS):
        raise ScenarioError(f"unknown vector: {vector!r}")
    route = doc.get("route")
    if route not in (None, "private", "public"):
        raise ScenarioError("route must be private|public")
    boundary = doc.get("boundary")
    if boundary is not None:
        _int(boundary, "boundary", 0)
    scenario = {
        "variant": variant,
        "sgx_version": sgx,
        "adversary": adversary,
        "seed": _int(_get(doc, "seed", 0), "seed"),
        "properties": list(props),
        "budgets": budgets,
        "toggles": toggles,
        "hw_ext": hw_ext,
        "layout": layout,
        "inject_classes": list(classes),
        "sp_confinement_mode": sp_mode,
        "vector": vector,
        "route": route,
        "max_rounds": _int(_get(doc, "max_rounds",
                                _MODE_KEYS["max_rounds"][0]), "max_rounds", 1),
        "trials": _int(_get(doc, "trials", _MODE_KEYS["trials"][0]),
                       "trials", 1),
        "boundary": boundary,
    }
    for key, (default, modes) in _MODE_KEYS.items():
        if adversary not in modes and scenario[key] != default:
            raise ScenarioError(f"{key} is read only in {' and '.join(modes)} "
                                f"mode, not in {adversary} mode")
    return scenario


def dumps_scenario(scenario: dict) -> str:
    return json.dumps(scenario, sort_keys=True, indent=2) + "\n"


def loads_scenario(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"line {e.lineno} column {e.colno}: {e.msg}")
    return normalize_scenario(doc)


def scenario_digest(scenario: dict) -> str:
    return hashlib.sha256(dumps_scenario(scenario).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Action lines
# ---------------------------------------------------------------------------

def _kv(pairs) -> str:
    return ",".join(f"{k}={v:#x}" for k, v in pairs)


def _word(text: str) -> int:
    """A hex field of an action line: a 64-bit word."""
    value = int(text, 16)
    if not 0 <= value <= MASK64:
        raise ValueError("not a 64-bit word")
    return value


def _parse_kv(text: str):
    """The (register, word) pairs of a register list; a register named
    twice is refused, since an entry would keep only its last value."""
    if not text:
        return ()
    out = {}
    for part in text.split(","):
        k, _, v = part.partition("=")
        if k not in REG_IDS:
            raise ValueError(f"unknown register {k!r}")
        if k in out:
            raise ValueError(f"register {k!r} named twice")
        out[k] = _word(v)
    return tuple(out.items())


def action_to_line(action) -> str:
    if isinstance(action, PrepareRegs):
        return f"A prep {_kv(action.regs)}"
    if isinstance(action, Eenter):
        regs = "-" if action.regs is None else (_kv(action.regs) or "=")
        aep = "-" if action.aep is None else f"{action.aep:#x}"
        return f"A eenter {action.cmd:#x} {regs} {aep}"
    if isinstance(action, Eresume):
        return "A eresume"
    if isinstance(action, InjectAex):
        return f"A inject {VECTOR_NAMES[action.vector]} {action.boundary}"
    if isinstance(action, FlipPerms):
        return f"A flip {action.page_base:#x} {action.perms}"
    if isinstance(action, SeedPublic):
        words = ",".join(f"{w:#x}" for w in action.words)
        return f"A seed {action.addr:#x} {words}"
    if isinstance(action, Stop):
        return "A stop"
    raise TypeError(f"unserializable action {action!r}")


def action_from_line(line: str):
    try:
        return _action(line.split())
    except (ValueError, KeyError, IndexError):
        raise TraceFileError(f"malformed action line: {line!r}") from None


def _action(parts: list[str]):
    if parts[0] != "A":
        raise ValueError("not an action line")
    kind = parts[1]
    if kind == "prep":
        return PrepareRegs(_parse_kv(parts[2] if len(parts) > 2 else ""))
    if kind == "eenter":
        cmd = _word(parts[2])
        regs = None if parts[3] == "-" else (
            () if parts[3] == "=" else _parse_kv(parts[3]))
        aep = None if parts[4] == "-" else _word(parts[4])
        return Eenter(cmd, regs, aep)
    if kind == "eresume":
        return Eresume()
    if kind == "inject":
        boundary = int(parts[3])
        if boundary < 0:
            raise ValueError("negative boundary")
        return InjectAex(VECTOR_IDS[parts[2]], boundary)
    if kind == "flip":
        perms = int(parts[3])
        if not 0 <= perms <= PERM_R | PERM_W | PERM_X:
            raise ValueError("permissions out of range")
        return FlipPerms(_word(parts[2]), perms)
    if kind == "seed":
        words = tuple(_word(w) for w in parts[3].split(","))
        return SeedPublic(_word(parts[2]), words)
    if kind == "stop":
        return Stop()
    raise ValueError("unknown action")


def event_to_line(ev: tuple, digest: str) -> str:
    """Every event is a 5-tuple (kind, pc, a, b, c); see machine.py."""
    kind, pc, a, b, c = ev
    # hex() renders an int as the "#x" format spec does, at half the cost
    return (f"E {EVENT_NAMES[kind]} {hex(pc)} {hex(a)} {hex(b)} {hex(c)} "
            f"{digest}")


def event_from_line(line: str):
    parts = line.split()
    if len(parts) != 7 or parts[0] != "E":
        raise ValueError(f"not an event line: {line!r}")
    kind = EVENT_IDS[parts[1]]
    fields = tuple(int(x, 16) for x in parts[2:6])
    return (kind, *fields), parts[6]


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

class TraceRecorder:
    """Interleaves action lines with per-event digest lines as a run
    unfolds; plug its hooks into run_plan.  Given `lines`, the recorder
    starts from them: the lines of a run that reached `machine` from a
    fresh machine, one per event of its trace and per action applied."""

    def __init__(self, machine, lines: Optional[Sequence[str]] = None):
        self.machine = machine
        self.lines: list[str] = [] if lines is None else list(lines)
        self._seen = 0 if lines is None else len(machine.trace)

    def on_action(self, idx: int, action) -> None:
        self.flush()
        self.lines.append(action_to_line(action))

    def flush(self) -> None:
        """Record the events the trace gained since the last flush, each
        with the digest of the state after them.  Nearly every call, one
        per instruction, has one new event, which is taken without
        slicing the trace."""
        trace = self.machine.trace
        seen = self._seen
        n = len(trace)
        if n > seen:
            digest = self.machine.digest()
            if n == seen + 1:
                self.lines.append(event_to_line(trace[seen], digest))
            else:
                for ev in trace[seen:]:
                    self.lines.append(event_to_line(ev, digest))
            self._seen = n

    after_events = flush


def write_trace(path: str, scenario: dict, lines: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_MAGIC + "\n")
        fh.write(f"# tool: {TOOL_VERSION}\n")
        fh.write(f"# scenario-digest: {scenario_digest(scenario)}\n")
        fh.write(f"# seed: {scenario['seed']}\n")
        fh.write(f"# lines: {len(lines)}\n")
        fh.write("# scenario: " + json.dumps(scenario, sort_keys=True) + "\n")
        fh.write("\n".join(lines + [""]))     # each line ends in "\n"


def read_trace(path: str) -> tuple[dict, int, list[str]]:
    """Returns (scenario, declared_line_count, lines)."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0] != TRACE_MAGIC:
        raise TraceFileError("missing trace magic")
    scenario = None
    declared = None
    header_digest = None
    body_start = 0
    for i, line in enumerate(raw):
        if line.startswith("# scenario: "):
            scenario = normalize_scenario(json.loads(line[len("# scenario: "):]))
        elif line.startswith("# lines: "):
            count = line[len("# lines: "):]
            try:
                declared = int(count)
            except ValueError:
                raise TraceFileError(f"line count is not an integer: "
                                     f"{count!r}") from None
        elif line.startswith("# scenario-digest: "):
            header_digest = line[len("# scenario-digest: "):].strip()
        if not line.startswith("#"):
            body_start = i
            break
    else:
        body_start = len(raw)
    if scenario is None or declared is None:
        raise TraceFileError("incomplete trace header")
    if header_digest != scenario_digest(scenario):
        raise TraceFileError("scenario digest does not match the header")
    return scenario, declared, raw[body_start:]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def render_report(scenario: dict, status: str, verdicts, milestones,
                  stats: dict, trace_file: Optional[str],
                  exit_code: int) -> dict:
    return {
        "tool": TOOL_VERSION,
        "scenario": scenario,
        "scenario_digest": scenario_digest(scenario),
        "status": status,
        "verdicts": [v.to_dict() for v in verdicts],
        "milestones": list(milestones),
        "stats": dict(sorted(stats.items())),
        "trace_file": trace_file,
        "exit_code": exit_code,
    }


def write_report(path: str, report: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
