#!/usr/bin/env python3
"""The statement lines of src/coxlab that no tier-1 test executes.

Runs the tier-1 suite (tests/) in this process under sys.settrace and
threading.settrace, records every line executed in a module under
src/coxlab, and prints one JSON object: for each module, by its path under
src/coxlab, the statement lines that never ran, their total, and pytest's
exit status.  A statement is an AST stmt node that is not a docstring,
taken at the line where it starts.  Code that runs only in a child process
(the command tour, the CLI subprocess tests) counts as not executed.
pytest's own output goes to stderr.  Nothing is gated: the exit status is
0 once the JSON is printed.  Standard library only.

    python tools/linecov.py
"""

import ast
import contextlib
import json
import os
import sys
import threading
from pathlib import Path

from codelines import docstring_starts

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coxlab"


def statement_lines(source: str) -> set[int]:
    """The first line of each statement of a module, docstrings left out."""
    tree = ast.parse(source)
    docstrings = docstring_starts(tree)
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and (node.lineno, node.col_offset) not in docstrings}


def unexecuted(package: Path, run) -> tuple[dict[str, list[int]], object]:
    """Call run() under a line tracer and return ({module: statement lines
    that did not run}, run's result), over every .py file under package,
    keyed by its path there.  The tracers in place before are put back."""
    modules = {os.path.realpath(path): path.relative_to(package).as_posix()
               for path in sorted(package.rglob("*.py"))}
    executed = {name: set() for name in modules.values()}
    lines_of = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in lines_of:
            lines_of[filename] = executed.get(modules.get(os.path.realpath(filename)))
        lines = lines_of[filename]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    before = sys.gettrace(), threading.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    missed = {name: sorted(statement_lines(Path(path).read_text(encoding="utf-8")) - executed[name])
              for path, name in modules.items()}
    return missed, result


def main() -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    with contextlib.redirect_stdout(sys.stderr):
        missed, status = unexecuted(PACKAGE, lambda: pytest.main(
            ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "tests"]))
    print(json.dumps({"modules": missed, "total": sum(map(len, missed.values())),
                      "pytest_exit": int(status)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
