#!/usr/bin/env python3
"""Mutation check of the safety detectors: delete each rule of
`SafetyMonitor.feed` in turn and see that a detector or acceptance test
fails.

A rule is one `found.setdefault(...)` statement of `feed` in
`src/aexlab/properties.py`, found with `ast`.  The script copies `src/`,
`tests/`, `scripts/` (the acceptance tests load `scripts/agreement.py`)
and `pyproject.toml` of this checkout into a temporary directory
and checks that the unchanged copy passes the detector tests and the
acceptance tests.  Then, one rule at a time, it replaces that rule's
statement with `pass` in the copy and runs `python -m pytest -q -x
tests/test_properties.py tests/test_acceptance.py` there, in one
subprocess under a timeout.  It prints `killed` or `SURVIVED` per rule,
with its line and detail text, and exits 1 when any mutant survives (2
when the unchanged copy fails).  The checkout itself is only read.

Usage: python scripts/detector_mutants.py
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TARGET = os.path.join("src", "aexlab", "properties.py")
TESTS = [os.path.join("tests", "test_properties.py"),
         os.path.join("tests", "test_acceptance.py")]
TIMEOUT = 120.0     # seconds one test run may take


def rules(source: str) -> list[ast.Expr]:
    """The `found.setdefault(...)` statements of `SafetyMonitor.feed`, in
    line order."""
    tree = ast.parse(source)
    monitor = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                   and n.name == "SafetyMonitor")
    feed = next(n for n in monitor.body if isinstance(n, ast.FunctionDef)
                and n.name == "feed")
    found = [n for n in ast.walk(feed)
             if isinstance(n, ast.Expr) and isinstance(n.value, ast.Call)
             and isinstance(n.value.func, ast.Attribute)
             and n.value.func.attr == "setdefault"
             and isinstance(n.value.func.value, ast.Name)
             and n.value.func.value.id == "found"]
    return sorted(found, key=lambda n: n.lineno)


def describe(rule: ast.Expr) -> str:
    """`property: detail`, the detail as its source expression."""
    prop, witness = rule.value.args
    return f"{prop.value}: {ast.unparse(witness.elts[1])}"


def mutant(source: str, rule: ast.Expr) -> str:
    """`source` with `rule`'s statement replaced by `pass`."""
    lines = source.splitlines(keepends=True)
    lines[rule.lineno - 1:rule.end_lineno] = [
        " " * rule.col_offset + "pass\n"]
    return "".join(lines)


def run_tests(copy: str) -> str:
    """"passed", "failed" or "timeout" for the tests in `copy`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        r = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x",
             "-p", "no:cacheprovider", *TESTS],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if r.returncode == 0 else "failed"


def main() -> int:
    t0 = time.monotonic()
    with open(os.path.join(ROOT, TARGET), encoding="utf-8") as fh:
        source = fh.read()
    found = rules(source)
    with tempfile.TemporaryDirectory() as copy:
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in ("src", "tests", "scripts"):
            shutil.copytree(os.path.join(ROOT, name),
                            os.path.join(copy, name), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        if run_tests(copy) != "passed":
            print("error: the unchanged copy fails "
                  + " ".join(TESTS), file=sys.stderr)
            return 2
        survivors = 0
        for rule in found:
            with open(os.path.join(copy, TARGET), "w",
                      encoding="utf-8") as fh:
                fh.write(mutant(source, rule))
            result = run_tests(copy)
            if result == "passed":
                survivors += 1
            verdict = {"passed": "SURVIVED", "failed": "killed",
                       "timeout": "killed (timeout)"}[result]
            print(f"{verdict:<16} {TARGET}:{rule.lineno}  "
                  f"{describe(rule)}")
    print(f"{len(found) - survivors} of {len(found)} mutants killed in "
          f"{time.monotonic() - t0:.1f}s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
