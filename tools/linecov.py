#!/usr/bin/env python3
"""The statement lines of src/coxlab that no tier-1 test executes, gated.

Runs the tier-1 suite (tests/) in this process under sys.settrace and
threading.settrace, records every line executed in a module under
src/coxlab, and prints one JSON object: for each module, by its path under
src/coxlab, the statement lines that never ran outside SUBPROCESS_ONLY,
their total, the allowlisted lines that never ran, the allowlist entries
that matched none, and pytest's exit status.  A statement is an AST stmt
node that is not a docstring, taken at the line where it starts.  Code
that runs only in a child process counts as not executed; SUBPROCESS_ONLY
names the few statements that only a child process can run, by module and
source text, each with the test that runs them there.  pytest's own
output goes to stderr.  The exit status is 1 when pytest fails, when the
total is not 0, or when an allowlist entry matches no unexecuted
statement; else 0.  Standard library only.

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

# Statements that only `python -m` runs, in a child process, each named by
# its module under src/coxlab and its source text, with the test that runs it.
SUBPROCESS_ONLY = {
    ("__main__.py", "import sys"): "tests/test_cli.py::test_python_dash_m_runs_the_command_line",
    ("__main__.py", "from .cli import main"): "tests/test_cli.py::test_python_dash_m_runs_the_command_line",
    ("__main__.py", "sys.exit(main())"): "tests/test_cli.py::test_python_dash_m_runs_the_command_line",
    ("cli.py", "sys.exit(main())"): "tests/test_cli.py::test_python_dash_m_cli_module_runs_the_command_line",
}


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


def split_allowed(missed: dict[str, list[int]], package: Path, allowed) -> tuple[dict, dict, list]:
    """(missed lines outside allowed, missed lines inside it, entries of
    allowed that match no missed line).  allowed holds (module, source
    text) pairs; a line matches when its text, stripped, is the entry's."""
    outside, inside, matched = {}, {}, set()
    for name, lines in missed.items():
        text = (package / name).read_text(encoding="utf-8").splitlines()
        outside[name], inside[name] = [], []
        for line in lines:
            entry = (name, text[line - 1].strip())
            (inside if entry in allowed else outside)[name].append(line)
            matched.add(entry)
    return outside, inside, sorted(set(allowed) - matched)


def main() -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    with contextlib.redirect_stdout(sys.stderr):
        missed, status = unexecuted(PACKAGE, lambda: pytest.main(
            ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "tests"]))
    outside, inside, stale = split_allowed(missed, PACKAGE, SUBPROCESS_ONLY)
    total = sum(map(len, outside.values()))
    print(json.dumps({"modules": outside, "total": total, "allowed": inside,
                      "stale_allowed": stale, "pytest_exit": int(status)}, indent=1))
    return int(status != 0 or total != 0 or bool(stale))


if __name__ == "__main__":
    sys.exit(main())
