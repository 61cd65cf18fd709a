"""tools/linecov.py lists the statement lines that a run leaves unexecuted,
on a toy package whose skipped branch is known."""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TOY = '''"""A toy module: its docstring is no statement."""

LIMIT = 0


def sign(x):
    """The sign of x."""
    if x < LIMIT:
        return -1
    return 1
'''


@pytest.fixture
def linecov(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("linecov")


def test_statement_lines_skip_docstrings(linecov):
    assert linecov.statement_lines(TOY) == {3, 6, 8, 9, 10}


def test_unexecuted_returns_the_branch_the_run_skips(linecov, tmp_path, monkeypatch):
    package = tmp_path / "linecov_toy"
    package.mkdir()
    (package / "__init__.py").write_text('"""Only a docstring."""\n')
    (package / "toy.py").write_text(TOY)
    monkeypatch.syspath_prepend(str(tmp_path))
    before = sys.gettrace()

    def run():
        return importlib.import_module("linecov_toy.toy").sign(5)

    try:
        assert linecov.unexecuted(package, run) == ({"__init__.py": [], "toy.py": [9]}, 1)
    finally:
        for name in ("linecov_toy.toy", "linecov_toy"):
            sys.modules.pop(name, None)
    assert sys.gettrace() is before
