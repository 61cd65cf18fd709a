"""The mutation catalogue (tests/mutants.json) still fits the code: each
old text occurs exactly once in its file under src/coxlab, and each listed
test function exists.  No mutant runs here; tools/mutants.py runs them."""

import ast
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
