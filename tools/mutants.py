#!/usr/bin/env python3
"""Run every hand mutation of tests/mutants.json and report the survivors.

Each entry names a file under src/coxlab, an exact old text that occurs
there once, the new text that replaces it, and the test ids that must
catch the change.  Every mutant gets its own temporary copy of src/,
tests/ and pyproject.toml (which holds the pytest settings), with no
bytecode written, and runs all its test ids there with pytest -rf.  A
listed id is caught when pytest reports a failed test whose node id is the
id or the id with parameters.  A mutant is caught when every listed id is,
and survives, naming the first listed test that did not fail, when one is
not.  An exit other than 0 or 1, such as a collection error or no test
collected, marks the entry broken.  One line per mutant goes to stdout, then a
summary; the exit status is 1 if any mutant survives or is broken.

    python tools/mutants.py

A survivor is a finding about the tests: the catalogue keeps it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tests" / "mutants.json"
COPIED = ("src", "tests", "pyproject.toml")


def copy_and_mutate(work: Path, mutant: dict) -> None:
    """Copy the tree under work and apply the mutant's one replacement there."""
    for name in COPIED:
        source, target = ROOT / name, work / name
        if source.is_dir():
            shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, target)
    path = work / mutant["file"]
    text = path.read_text(encoding="utf-8")
    if text.count(mutant["old"]) != 1:
        raise ValueError(f"{mutant['name']}: the old text does not occur exactly once in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def verdict(tests: list[str], returncode: int, output: str) -> str:
    """The verdict on a mutant from its pytest -rf run of tests: caught when
    every listed id has a FAILED line, else the first listed test that did
    not fail."""
    if returncode not in (0, 1):
        return f"broken (pytest exit {returncode})"
    # A FAILED line holds the node id, then " - " and the message, if any.
    failed = [line[len("FAILED "):] for line in output.splitlines() if line.startswith("FAILED ")]
    for test in tests:
        if not any(rest == test or rest.startswith((test + " - ", test + "[")) for rest in failed):
            return f"SURVIVED ({test} did not fail)"
    return "caught"


def run_mutant(mutant: dict) -> tuple[str, float]:
    """(verdict, seconds) of one mutant's tests in its own mutated copy."""
    with tempfile.TemporaryDirectory(prefix="coxlab-mutant-") as tmp:
        work = Path(tmp)
        copy_and_mutate(work, mutant)
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-rf", "-q", "-p", "no:cacheprovider",
                               *mutant["tests"]], cwd=work, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    result = verdict(mutant["tests"], proc.returncode, proc.stdout)
    if result != "caught":
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return result, seconds


def main() -> int:
    mutants = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    failures = 0
    for mutant in mutants:
        result, seconds = run_mutant(mutant)
        failures += result != "caught"
        print(f"{result:8} {seconds:6.1f} s  {mutant['name']}", flush=True)
    print(f"{len(mutants) - failures} of {len(mutants)} mutants caught, {failures} survived or broken")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
