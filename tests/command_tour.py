"""Run every coxlab command once in a fresh interpreter and report what ran.

    python tests/command_tour.py WORKDIR

The commands write their files under WORKDIR.  The script prints one JSON
object on stdout:

- "exit_codes": each command's argv and exit code;
- "reached": [path under src/coxlab, first line] of every code object
  there that ran, seen by sys.setprofile from before `import coxlab`;
- "modules": the modules imported after start-up.

tests/test_reachability.py reads it.  This file imports only the standard
library, so every module it reports was loaded by coxlab.
"""

import sys

BASELINE = set(sys.modules)

import contextlib
import io
import json
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "coxlab") + os.sep


def commands(workdir: str, variants, suites) -> list[list[str]]:
    """build in both forms; present with every variant on the paper complex
    and on a grid, and with --fixtures-out; verify with every suite and
    `all`; enumerate with and without --subgroup and --table-out, and
    capped.  Each command runs in its --json form and in its text form."""
    paper, grid, fx, table = (os.path.join(workdir, name)
                              for name in ("paper.json", "grid.json", "fx", "table.json"))
    out = [
        ["build", "--paper-fixture", "--out", paper, "--json"],
        ["build", "--rows", "4", "--cols", "3", "--out", grid],
        ["present", "--complex", paper, "--fixtures-out", fx],
    ]
    for name, complex_file in (("paper", paper), ("grid", grid)):
        for variant in variants:
            out.append(["present", "--complex", complex_file, "--variant", variant,
                        "--out", os.path.join(workdir, f"{name}_{variant}.json"), "--json"])
    for suite in (*suites, "all"):
        out.append(["verify", "--complex", paper, "--suite", suite, "--json"])
    out += [
        ["verify", "--complex", paper, "--suite", "all"],
        ["verify", "--complex", grid, "--suite", "relators", "--json"],
        ["enumerate", "--presentation", os.path.join(fx, "s4_remark.json")],
        ["enumerate", "--presentation", os.path.join(fx, "hexagon_quotient.json"),
         "--subgroup", "1,2,1 4,5,6", "--table-out", table, "--json"],
        ["enumerate", "--presentation", os.path.join(fx, "hexagon_affine.json"),
         "--capacity", "20000", "--json"],
        ["enumerate", "--presentation", os.path.join(fx, "hexagon_affine.json"),
         "--subgroup", "1,2,3 4,5", "--capacity", "5000"],
    ]
    return out


def main(workdir: str) -> dict:
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE):
                path = os.path.relpath(code.co_filename, PACKAGE).replace(os.sep, "/")
                reached.add((path, code.co_firstlineno))

    sys.path.insert(0, SRC)
    sys.setprofile(profile)
    try:
        from coxlab import cli, presentation, verify
        codes = []
        for argv in commands(workdir, presentation.VARIANTS, verify.SUITES):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append([argv, cli.main(argv)])
    finally:
        sys.setprofile(None)
    return {"exit_codes": codes, "reached": sorted(reached),
            "modules": sorted(set(sys.modules) - BASELINE)}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
