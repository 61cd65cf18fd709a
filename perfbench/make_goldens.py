"""Regenerate goldens.json: digests of the outputs the benchmark checks.

    python3 perfbench/make_goldens.py

The committed goldens come from the seed code.  Regenerate them only when
a change is meant to alter a report, and say so in the change.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    goldens = {"paper": {}, "grid": {}}
    os.makedirs(os.path.join(ROOT, "perfbench", ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, "perfbench", ".work")) as workdir:
        workloads.prepare_paper(random.Random(0), workdir, 0)
        result = workloads.JobResult()
        paper = os.path.join(workdir, "paper.json")
        out = workloads.run_cli(result, "verify", "--complex", paper, "--suite", "all", "--json")
        goldens["paper"]["verify_all"] = workloads.digest(out)
        quotient = os.path.join(workdir, "quotient.json")
        workloads.run_cli(result, "present", "--complex", paper, "--variant", "quotient",
                       "--out", quotient, "--json")
        relators = [tuple(w) for w in workloads.read_json(quotient)["relators"]]
        report = workloads.words.clean(relators + list(workloads.presentation.ax_fixture().values()))
        goldens["paper"]["clean"] = workloads.clean_digest(report)

        for rows, cols in workloads.GRID_SHAPES + workloads.DIAGNOSTIC_SHAPES:
            report, cleaned = workloads.grid_outputs(workloads.GridJob(rows, cols), workdir,
                                                     workloads.JobResult())
            goldens["grid"][f"{rows}x{cols}"] = {
                "verify_relators": workloads.digest(report),
                "clean": workloads.clean_digest(cleaned),
            }
            print(f"{rows}x{cols} done", file=sys.stderr)
    with open(workloads.GOLDENS_FILE, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
