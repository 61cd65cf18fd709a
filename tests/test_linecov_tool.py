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


def test_split_allowed_keeps_only_the_named_statements_out_of_the_total(linecov, tmp_path):
    (tmp_path / "toy.py").write_text(TOY)
    missed = {"toy.py": [8, 9]}
    allowed = {("toy.py", "return -1"), ("toy.py", "return 0")}
    assert linecov.split_allowed(missed, tmp_path, allowed) == (
        {"toy.py": [8]}, {"toy.py": [9]}, [("toy.py", "return 0")])
    assert linecov.split_allowed(missed, tmp_path, set()) == ({"toy.py": [8, 9]}, {"toy.py": []}, [])


def test_subprocess_only_entries_name_statements_and_tests_that_exist(linecov):
    for (module, text), test_id in linecov.SUBPROCESS_ONLY.items():
        source = (ROOT / "src" / "coxlab" / module).read_text(encoding="utf-8")
        assert text in map(str.strip, source.splitlines()), (module, text)
        file, _, name = test_id.partition("::")
        assert f"\ndef {name}(" in (ROOT / file).read_text(encoding="utf-8"), test_id
