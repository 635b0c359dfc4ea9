#!/usr/bin/env python3
"""Annotated walkthrough of the scripted anchor-hijack on the sdk-style
runtime: prints the plan bindings, the interesting trace events, the
milestones, and the detector verdicts of the recorded scripted scenario.

Usage: python scripts/attack_walkthrough.py [--variant V] [--sgx {1,2}]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from aexlab import adversary, explorer, reporting  # noqa: E402
from aexlab.isa import render  # noqa: E402
from aexlab.machine import (  # noqa: E402
    E_CTRL, E_HW_AEX, E_HW_EENTER, E_HW_ERESUME, E_LEAK, E_SP_ASSIGN,
    EVENT_NAMES,
)
from aexlab.runtimes import build_runtime  # noqa: E402

INTERESTING = {E_HW_EENTER, E_HW_AEX, E_HW_ERESUME, E_SP_ASSIGN, E_CTRL,
               E_LEAK}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--variant", default="sdk_style")
    ap.add_argument("--sgx", type=int, choices=(1, 2), default=2)
    args = ap.parse_args()

    img = build_runtime(args.variant)
    try:
        plan = adversary.scripted_attack(img, args.sgx)
    except adversary.PlanInfeasible as e:
        print(f"{args.variant} on sgx{args.sgx}: plan infeasible - {e.reason}")
        return 0

    print(f"plan: {plan.name}")
    for key, val in sorted(plan.bindings.items()):
        if isinstance(val, tuple):
            val = "[" + ", ".join(hex(w) for w in val) + "]"
        elif isinstance(val, int):
            val = hex(val)
        print(f"  {key:12s} {val}")

    outcome = explorer.run(reporting.normalize_scenario(
        {"variant": args.variant, "sgx_version": args.sgx,
         "adversary": "scripted"}))

    print("\nkey events:")
    for line in outcome.trace_lines:
        if not line.startswith("E "):
            continue
        ev, _ = reporting.event_from_line(line)
        if ev[0] not in INTERESTING:
            continue
        name = EVENT_NAMES[ev[0]]
        where = img.program.label_of(ev[1]) or hex(ev[1])
        ins = img.program.code.get(ev[1])
        desc = render(ins) if ins else ""
        print(f"  {name:8s} at {where:20s} {desc}")

    print("\nmilestones:", " -> ".join(outcome.milestones))
    for v in outcome.verdicts:
        mark = "!" if v.violated else " "
        print(f" {mark} {v.property_id}: {v.outcome} {v.detail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
