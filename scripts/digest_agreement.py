#!/usr/bin/env python3
"""Check that every state digest written to a trace is the SHA-256 of the
`repr` of the canonical state.

`Machine.digest` splices its text from cached segments: the memory cells
(re-formatted only where written), the page permissions, and the platform
segment (TCS, SSA frames, aep, version, extension state).
`Machine.canonical` is its specification.  This script wraps
`Machine.digest` so that every call is compared with
`sha256(repr(canonical()))[:16]`, then records and replays the
trace-producing scenarios:

- every canonical scenario fixture (golden, benign, exhaustive, ASLR);
- the benign, benign_nested and benign_critical runs of every variant on
  sgx 1 and 2 (entries, exits, atomic sections, the re-entry mask), and
  graphene_emulated's benign_critical at boundaries 1-23, each of which
  completes an interrupted critical span;
- every scripted variant x route x vector (sdk on sgx 2, oe on sgx 1 with
  its timer, enarx on both);
- four multi-round ASLR sweeps at offsets o, o + 512, 2049 - o, 1537 - o.

It prints the number of digests compared and exits 1 at the first
mismatch, naming the scenario, the phase (record or replay) and the index
of the last event the digest covers.

Usage: python scripts/digest_agreement.py [--aslr-offset O]
"""

import argparse
import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from aexlab import explorer, machine, reporting, runtimes  # noqa: E402

SCRIPTED = (("sdk_style", 2, "scripted_sdk_sgx2"),
            ("open_enclave_style", 1, "scripted_oe_sgx1_timer"),
            ("enarx_style", 1, "scripted_sdk_sgx2"),
            ("enarx_style", 2, "scripted_sdk_sgx2"))
BENIGN = ("benign", "benign_nested", "benign_critical")
CRITICAL_BOUNDARIES = range(1, 24)


class Mismatch(Exception):
    pass


def canonical(name: str) -> dict:
    path = runtimes.fixture_path(os.path.join("scenarios", name + ".json"))
    with open(path) as fh:
        return reporting.loads_scenario(fh.read())


def canonical_names() -> list[str]:
    return sorted(f[:-len(".json")] for f in os.listdir(
        runtimes.fixture_path("scenarios")) if f.endswith(".json"))


def aslr_sweep(offset: int) -> tuple[str, dict]:
    doc = canonical("aslr_multi_round")
    doc["toggles"] = dict(doc["toggles"], aslr_stack_offset=offset)
    return f"aslr_multi_round@{offset}", reporting.normalize_scenario(doc)


def scenarios(aslr_offset: int) -> list[tuple[str, dict]]:
    named = [(name, canonical(name)) for name in canonical_names()]
    for variant in runtimes.VARIANTS:
        for sgx in (2, 1):
            for mode in BENIGN:
                named.append((f"{mode}_{variant}_sgx{sgx}",
                              reporting.normalize_scenario(
                                  {"variant": variant, "sgx_version": sgx,
                                   "adversary": mode})))
    for sgx in (2, 1):
        for boundary in CRITICAL_BOUNDARIES:
            named.append((f"benign_critical_graphene_sgx{sgx}_b{boundary}",
                          reporting.normalize_scenario(
                              {"variant": "graphene_emulated",
                               "sgx_version": sgx,
                               "adversary": "benign_critical",
                               "boundary": boundary})))
    for variant, sgx, base in SCRIPTED:
        for route in (None, "private", "public"):
            for vector in (None, "page_fault", "external_interrupt"):
                doc = dict(canonical(base), variant=variant, sgx_version=sgx,
                           route=route, vector=vector)
                named.append((f"scripted_{variant}_sgx{sgx}_{route}_{vector}",
                              reporting.normalize_scenario(doc)))
    o = aslr_offset
    named += [aslr_sweep(offset)
              for offset in (o, o + 512, 2049 - o, 1537 - o)]
    return named


def checked(digest, phase: list, counter: list):
    """Wrap `Machine.digest` so every call is compared with the digest of
    the canonical tuple."""
    def wrapper(m):
        got = digest(m)
        want = hashlib.sha256(repr(m.canonical()).encode()).hexdigest()[:16]
        if got != want:
            raise Mismatch(f"{phase[0]}, event {len(m.trace) - 1}: digest "
                           f"{got}, canonical {want}")
        counter[0] += 1
        return got
    return wrapper


def check(named: list[tuple[str, dict]], counter: list) -> str:
    """Record and replay each scenario under the checked digest.  Returns
    the first failure's message, or "" when every digest agreed."""
    phase = ["record"]
    original = machine.Machine.digest
    machine.Machine.digest = checked(original, phase, counter)
    try:
        for name, scenario in named:
            t0 = time.monotonic()
            try:
                phase[0] = "record"
                lines = explorer.run(scenario).trace_lines
                if lines is None:
                    print(f"{name}: no plan, no trace", file=sys.stderr)
                    continue
                phase[0] = "replay"
                replayed = explorer.replay(scenario, lines, len(lines))
            except Mismatch as e:
                return f"MISMATCH {name}: {e}"
            if not replayed.ok:
                return f"REPLAY DIVERGED {name}: {replayed.detail}"
            print(f"{name}: {len(lines)} lines agree "
                  f"({time.monotonic() - t0:.1f}s)", file=sys.stderr)
    finally:
        machine.Machine.digest = original
    return ""


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--aslr-offset", type=int, default=300,
                    help="o of the four ASLR sweeps (1..512; default 300)")
    args = ap.parse_args()
    if not 1 <= args.aslr_offset <= 512:
        ap.error("--aslr-offset must be in 1..512")
    counter = [0]
    failure = check(scenarios(args.aslr_offset), counter)
    if failure:
        print(failure)
        return 1
    print(f"{counter[0]} digests compared, all agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
