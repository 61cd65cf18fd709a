"""Fuzzed input files: a single-field mutation exits 0 or 2, never with a traceback.

Each example deletes one key or list entry of a valid complex or
presentation file, or replaces one value with an int, a string, None or
a list, and runs the command line on the result in-process.  Exit 2
must come with empty stdout and exactly one `error:` line on stderr.

The four published fixtures are mutated the same way and placed under
COXLAB_FIXTURES.  There exit 1 is allowed too, but only when the report
on stdout names a failed entry: a mutated table may be well formed and
wrong.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from coxlab.cli import main
from coxlab.complexes import build_torus_triangulation
from coxlab.fixtures import load_json

DELETE = object()

VALUES = st.one_of(st.integers(-3, 40), st.text(max_size=3), st.none(),
                   st.lists(st.integers(-3, 40), max_size=3))


def _paths(node, prefix=()):
    """Every dict key and list index below node, as paths from the root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _mutations(doc):
    return st.tuples(st.sampled_from(list(_paths(doc))), st.one_of(st.just(DELETE), VALUES))


def _run_on(tmp_dir, doc, mutation, argv):
    path = tmp_dir / "mutated.json"
    path.write_text(json.dumps(_mutated(doc, *mutation)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.format(path) for arg in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


TT33 = load_json("tt33.json")
GRID44 = build_torus_triangulation(4, 4).to_json()
HEXAGON = load_json("hexagon_quotient.json")
VERIFY = ["verify", "--complex", "{}", "--suite", "relators"]
ENUMERATE = ["enumerate", "--presentation", "{}", "--capacity", "2000"]
FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@FUZZ
@given(mutation=_mutations(TT33))
def test_mutated_paper_complex_exits_0_or_2(tmp_dir, mutation):
    _run_on(tmp_dir, TT33, mutation, VERIFY)


@FUZZ
@given(mutation=_mutations(GRID44))
def test_mutated_grid_complex_exits_0_or_2(tmp_dir, mutation):
    _run_on(tmp_dir, GRID44, mutation, VERIFY)


@FUZZ
@given(mutation=_mutations(HEXAGON))
def test_mutated_presentation_exits_0_or_2(tmp_dir, mutation):
    _run_on(tmp_dir, HEXAGON, mutation, ENUMERATE)


def _run_with_fixture(tmp_dir, name, mutation, argv):
    """argv with COXLAB_FIXTURES holding the bundled fixture `name` under mutation."""
    override = tmp_dir / name.removesuffix(".json")
    override.mkdir(exist_ok=True)
    (override / name).write_text(json.dumps(_mutated(FIXTURES[name], *mutation)))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        patch.setenv("COXLAB_FIXTURES", str(override))
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 1:
        assert re.search(r"^summary: \d+ pass, [1-9]\d* fail", out, re.M)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")


@pytest.fixture(scope="module")
def paper_complex(tmp_dir):
    path = tmp_dir / "tt.json"
    with redirect_stdout(io.StringIO()):
        assert main(["build", "--paper-fixture", "--out", str(path)]) == 0
    return str(path)


FIXTURES = {name: load_json(name) for name in
            ("tt33.json", "t0_spanning.json", "ax_relations.json", "nonrel_pairs.json")}


@FUZZ
@given(mutation=_mutations(FIXTURES["tt33.json"]))
def test_mutated_tt33_fixture_under_build(tmp_dir, mutation):
    _run_with_fixture(tmp_dir, "tt33.json", mutation, ["build", "--paper-fixture"])


@FUZZ
@given(mutation=_mutations(FIXTURES["t0_spanning.json"]))
def test_mutated_spanning_fixture_under_relators(tmp_dir, paper_complex, mutation):
    _run_with_fixture(tmp_dir, "t0_spanning.json", mutation,
                      ["verify", "--complex", paper_complex, "--suite", "relators"])


@FUZZ
@given(mutation=_mutations(FIXTURES["ax_relations.json"]))
def test_mutated_ax_fixture_under_ax(tmp_dir, paper_complex, mutation):
    _run_with_fixture(tmp_dir, "ax_relations.json", mutation,
                      ["verify", "--complex", paper_complex, "--suite", "ax"])


@FUZZ
@given(mutation=_mutations(FIXTURES["nonrel_pairs.json"]))
def test_mutated_pair_fixture_under_tables(tmp_dir, paper_complex, mutation):
    _run_with_fixture(tmp_dir, "nonrel_pairs.json", mutation,
                      ["verify", "--complex", paper_complex, "--suite", "tables"])
