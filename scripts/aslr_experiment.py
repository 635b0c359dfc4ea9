#!/usr/bin/env python3
"""Randomized-stack experiments: the exact and Monte-Carlo single-shot
rates, the multi-round sweep over every offset, and a few concrete
offsets run end to end as multi-round scenarios.  Exits 1 when a concrete
run leaves the anchor intact.

Usage: python scripts/aslr_experiment.py [--trials N] [--seed S]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from aexlab import adversary, explorer, reporting  # noqa: E402
from aexlab.runtimes import Toggles, build_runtime  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=100000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    exact = adversary.exact_single_shot_rate()
    mc = adversary.estimate_single_shot_rate(args.trials, args.seed)
    print(f"single-shot success rate: exact {exact:.5f} "
          f"({exact * 100:.3f}%), monte-carlo {mc:.5f} over "
          f"{args.trials} trials (seed {args.seed})")

    t0 = time.monotonic()
    by_rounds: dict[int, int] = {}
    for off in range(1, 2049):
        img = build_runtime("sdk_style",
                            toggles=Toggles(aslr_stack_offset=off))
        res = adversary.multi_round_aslr(img)
        assert not res.exhausted
        by_rounds[res.rounds_needed] = by_rounds.get(res.rounds_needed, 0) + 1
    print(f"multi-round sweep over all 2048 offsets: "
          f"max {max(by_rounds)} rounds, "
          f"mean {sum(k * v for k, v in by_rounds.items()) / 2048:.2f} "
          f"({time.monotonic() - t0:.1f}s)")

    failed = 0
    for off in (0, 500, 2048):
        stats = explorer.run(reporting.normalize_scenario({
            "variant": "sdk_style", "adversary": "multi_round_aslr",
            "toggles": {"aslr_stack_offset": off}})).stats
        outcome = "corrupted" if stats["success"] else "NOT corrupted"
        print(f"concrete offset {off:4d}: anchor {outcome} "
              f"after sweeping (hit round {stats['rounds_needed']})")
        failed += not stats["success"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
