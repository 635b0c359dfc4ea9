#!/usr/bin/env python3
"""Write every byte-compared output of the CLI into one directory, so two
trees can be compared with a single `diff -r`.

For workers 1 and 2 it runs `aexlab matrix --sgx 2` and `--sgx 1` and
`aexlab run` of every canonical scenario, each into its own subdirectory
of OUT, and records the exit codes in OUT/exit_codes.txt.  Wall times go to
stderr only, as in the CLI.

Usage: python scripts/snapshot_outputs.py OUT
"""

import argparse
import contextlib
import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from aexlab import cli, runtimes  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    args = ap.parse_args()

    scenario_dir = runtimes.fixture_path("scenarios")
    scenarios = sorted(n for n in os.listdir(scenario_dir)
                       if n.endswith(".json"))
    jobs = []
    for workers in (1, 2):
        for sgx in (2, 1):
            jobs.append((f"matrix_sgx{sgx}_w{workers}",
                         ["matrix", "--sgx", str(sgx)], workers))
        for name in scenarios:
            jobs.append((f"{name[:-len('.json')]}_w{workers}",
                         ["run", "--scenario",
                          os.path.join(scenario_dir, name)], workers))

    codes = []
    for tag, argv, workers in jobs:
        out = os.path.join(args.out, tag)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv + ["--out", out, "--workers", str(workers)])
        with open(os.path.join(out, "stdout.txt"), "w") as fh:
            fh.write(stdout.getvalue())
        codes.append(f"{tag} {code}\n")
    with open(os.path.join(args.out, "exit_codes.txt"), "w") as fh:
        fh.writelines(codes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
