"""One set-up of the benchmark, timed in a fresh interpreter: import the
package, assemble all eight runtime images, load the survey mapping and the
canonical scenarios, and generate the workload's inputs.  The time is
calibrated for the host's current speed like every other benchmark time
(see hostspeed.py).

Usage: python3 perfbench/probe_setup.py WORKLOAD SEED WORKDIR
Prints {"setup_s": <seconds>} on stdout.
"""

import json
import os
import sys
from time import perf_counter

import hostspeed


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    here = os.path.dirname(os.path.abspath(__file__))
    before = hostspeed.calibration_s()
    t0 = perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from aexlab import explorer, reporting, runtimes
    for variant in runtimes.VARIANTS:
        runtimes.build_runtime(variant)
    explorer.load_mapping()
    scenarios = runtimes.fixture_path("scenarios")
    for name in sorted(os.listdir(scenarios)):
        with open(os.path.join(scenarios, name)) as fh:
            reporting.loads_scenario(fh.read())
    import workloads
    workloads.make(workload, seed, workdir)
    raw = perf_counter() - t0
    after = hostspeed.calibration_s()
    print(json.dumps({"setup_s": raw * hostspeed.scale([before, after])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
