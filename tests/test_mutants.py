"""The mutation catalogue (tests/mutants.json) still fits the code: each
old text occurs exactly once in its file under src/coxlab, and each listed
test function exists.  No mutant runs here; tools/mutants.py runs them, and
its verdict is checked here on canned pytest output."""

import ast
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))


def test_catalogue_entries_are_well_formed():
    names = [mutant["name"] for mutant in CATALOGUE]
    assert len(set(names)) == len(names)
    for mutant in CATALOGUE:
        assert set(mutant) == {"name", "file", "old", "new", "tests"}, mutant["name"]
        assert mutant["old"] != mutant["new"] and mutant["tests"], mutant["name"]


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda mutant: mutant["name"])
def test_old_text_occurs_once_under_src(mutant):
    path = ROOT / mutant["file"]
    assert path.suffix == ".py" and path.resolve().is_relative_to(ROOT / "src" / "coxlab")
    assert path.read_text(encoding="utf-8").count(mutant["old"]) == 1


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda mutant: mutant["name"])
def test_listed_tests_exist(mutant):
    for test_id in mutant["tests"]:
        file, _, name = test_id.partition("::")
        tree = ast.parse((ROOT / file).read_text(encoding="utf-8"))
        functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert file.startswith("tests/test_") and name.split("[")[0] in functions, test_id


SUMMARY = """\
=========================== short test summary info ============================
FAILED tests/test_a.py::test_one - assert 0
FAILED tests/test_a.py::test_two[3x4] - AssertionError: a message - with a dash
FAILED tests/test_a.py::test_three[b - c]
3 failed, 2 passed in 0.12s
"""


@pytest.fixture
def mutants(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("mutants")


@pytest.mark.parametrize("tests", [
    ["tests/test_a.py::test_one"],
    ["tests/test_a.py::test_one", "tests/test_a.py::test_two"],
    ["tests/test_a.py::test_two[3x4]", "tests/test_a.py::test_three[b - c]"],
    ["tests/test_a.py::test_three"],
])
def test_verdict_catches_when_every_listed_test_failed(mutants, tests):
    assert mutants.verdict(tests, 1, SUMMARY) == "caught"


@pytest.mark.parametrize("tests,survivor", [
    # A failure of another listed test does not cover one that passed.
    (["tests/test_a.py::test_one", "tests/test_a.py::test_four"], "tests/test_a.py::test_four"),
    # A test whose name merely begins with a failed one's is not it.
    (["tests/test_a.py::test_on"], "tests/test_a.py::test_on"),
    (["tests/test_a.py::test_two[3x3]"], "tests/test_a.py::test_two[3x3]"),
    (["tests/test_a.py"], "tests/test_a.py"),
])
def test_verdict_names_the_listed_test_that_did_not_fail(mutants, tests, survivor):
    assert mutants.verdict(tests, 1, SUMMARY) == f"SURVIVED ({survivor} did not fail)"


def test_verdict_on_a_clean_run_or_a_broken_one(mutants):
    assert mutants.verdict(["tests/test_a.py::test_one"], 0, "1 passed in 0.01s\n") == \
        "SURVIVED (tests/test_a.py::test_one did not fail)"
    for code in (2, 4, 5):
        assert mutants.verdict(["tests/test_a.py::test_one"], code, SUMMARY) == f"broken (pytest exit {code})"
