import importlib
import json
from collections import defaultdict
from itertools import product
from operator import attrgetter
from pathlib import Path

import pytest
from conftest import connected, graph_of, relabel
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlab import fixtures, verify
from coxlab.complexes import (Line, Plane, Point, build_torus_triangulation, complex_from_json,
                              dual_graph, hexagon_links, is_paper_labeling,
                              load_paper_labeling, spanning_data)
from coxlab.fixtures import CorruptFixtureError, load_json


def test_paper_instance_counts(paper):
    assert (len(paper.x0.points), len(paper.x0.lines), len(paper.x0.planes)) == (9, 27, 18)


@pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (3, 5), (5, 4)])
def test_generated_counts_and_euler(m, n):
    x0 = build_torus_triangulation(m, n)
    assert len(x0.points) == m * n
    assert len(x0.lines) == 3 * m * n
    assert len(x0.planes) == 2 * m * n
    assert len(x0.points) - len(x0.lines) + len(x0.planes) == 0


def test_gen_fixtures_regenerates_bundled_tt33(monkeypatch, tmp_path):
    """tools/gen_fixtures.py rewrites every bundled fixture byte for byte."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "tools"))
    gen_fixtures = importlib.import_module("gen_fixtures")
    monkeypatch.setattr(gen_fixtures, "OUT", str(tmp_path))
    gen_fixtures.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(fixtures.BUNDLED)
    for name in fixtures.BUNDLED:
        assert (tmp_path / name).read_bytes() == (root / "src" / "coxlab" / "fixtures" / name).read_bytes()


def test_four_by_three_counts():
    x0 = build_torus_triangulation(4, 3)
    assert (len(x0.points), len(x0.lines), len(x0.planes)) == (12, 36, 24)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (1, 5)])
def test_small_grids_rejected(m, n):
    with pytest.raises(ValueError):
        build_torus_triangulation(m, n)


def test_hexagon_anchor_sets(paper):
    links = {l.point: l for l in paper.links}
    assert set(links[1].cycle) == {1, 2, 4, 6, 13, 22}
    assert set(links[9].cycle) == {22, 23, 24, 25, 26, 27}
    assert set(links[4].cycle) == {4, 5, 8, 11, 15, 19}


def test_role_anchors(paper):
    links = {l.point: l for l in paper.links}
    assert links[6].roles["a"] == 12
    assert links[6].roles["b"] == 25
    assert links[5].roles["d"] == 12


def _shape_id(shape) -> str:
    return shape if shape == "paper" else "x".join(map(str, shape))


def _complex(request, shape):
    """The published complex, or the generated grid of the given shape; only
    the first loads the paper fixture."""
    return request.getfixturevalue("paper").x0 if shape == "paper" else build_torus_triangulation(*shape)


# The line of each role around the point at (r, c): its kind, and its cell
# as an offset from (r, c).
ROLE_OFFSETS = {"a": ("h", 0, -1), "b": ("v", -1, 0), "c": ("d", -1, 0),
                "d": ("h", 0, 0), "e": ("v", 0, 0), "f": ("d", 0, -1)}


@pytest.mark.parametrize("shape", ["paper", *product(range(3, 9), repeat=2)], ids=_shape_id)
def test_roles_match_the_offset_table(request, shape):
    x0 = _complex(request, shape)
    line_at = {(l.kind, *l.cell): l.id for l in x0.lines}
    point = {p.id: p for p in x0.points}
    roles_of_line = defaultdict(list)
    for link in hexagon_links(x0):
        p = point[link.point]
        expected = {role: line_at[kind, (p.row + dr) % x0.rows, (p.col + dc) % x0.cols]
                    for role, (kind, dr, dc) in ROLE_OFFSETS.items()}
        assert list(link.roles.items()) == list(expected.items())
        assert link.cycle == tuple(expected[role] for role in "defabc")
        for role, line_id in link.roles.items():
            roles_of_line[line_id].append(role)
    assert sorted(roles_of_line) == sorted(line_at.values())
    assert all(len(set(roles)) == len(roles) == 2 for roles in roles_of_line.values())


@pytest.mark.parametrize("shape", ["paper", *product(range(3, 9), repeat=2)], ids=_shape_id)
def test_built_lines_list_their_upper_plane_first(request, shape):
    x0 = _complex(request, shape)
    for line in x0.lines:
        assert [x0.plane_by_id[f].half for f in line.planes] == ["upper", "lower"], line


def test_roles_c_and_f_are_diagonals(paper):
    for link in paper.links:
        for role, line_id in link.roles.items():
            kind = paper.x0.line_by_id[line_id].kind
            assert (kind == "d") == (role in ("c", "f"))


def test_hexagon_cycle_adjacency(paper):
    # Consecutive lines share a plane, opposite ones do not.
    for link in paper.links:
        cyc = link.cycle
        for k in range(6):
            a = set(paper.x0.line_by_id[cyc[k]].planes)
            b = set(paper.x0.line_by_id[cyc[(k + 1) % 6]].planes)
            c = set(paper.x0.line_by_id[cyc[(k + 3) % 6]].planes)
            assert a & b
            assert not a & c


def test_hexagon_transpositions_generate_local_symmetric(paper):
    for link in paper.links:
        local = graph_of({e: paper.x0.line_by_id[e].planes for e in link.cycle})
        assert len(local.vertices) == 6 and connected(local)


@pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (3, 4), (5, 5)])
def test_dual_graph_regular_connected(m, n):
    g = dual_graph(build_torus_triangulation(m, n))
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert connected(g)
    assert len(g.edges) == 3 * len(g.vertices) // 2


@pytest.mark.parametrize("shape", ["paper", *product(range(3, 9), repeat=2)], ids=_shape_id)
def test_crossings_unwrap_each_line_to_neighbouring_cells(request, shape):
    # Moving the second plane's cell by the crossing times the grid size
    # puts it in the same or a neighbouring row and column as the first.
    x0 = _complex(request, shape)
    graph = dual_graph(x0)
    assert sorted(graph.crossings) == sorted(graph.edges)
    crossed = set()
    for line, (f, g) in graph.edges.items():
        (fr, fc), (gr, gc) = x0.plane_by_id[f].cell, x0.plane_by_id[g].cell
        cr, cc = graph.crossings[line]
        assert {cr, cc} <= {-1, 0, 1}
        assert abs(gr + cr * x0.rows - fr) <= 1 and abs(gc + cc * x0.cols - fc) <= 1
        crossed |= {(abs(cr), 0), (0, abs(cc))}
    assert {(1, 0), (0, 1)} <= crossed


def test_paper_dual_graph(paper):
    g = paper.graph
    assert len(g.vertices) == 18 and len(g.edges) == 27
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert connected(g)
    assert g.cycle_rank() == 10


def test_paper_spanning_fixture(paper):
    assert len(paper.span.tree_edges) == 17
    assert len(paper.span.chords) == 10
    assert sorted(c.index for c in paper.span.chords.values()) == list(range(1, 11))


def test_canonical_spanning_deterministic(paper):
    a = spanning_data(paper.graph, "canonical")
    b = spanning_data(paper.graph, "canonical")
    assert a.tree_edges == b.tree_edges
    assert a.chords == b.chords
    assert len(a.chords) == paper.graph.cycle_rank()


@pytest.mark.parametrize("shape", ["paper", (3, 3), (4, 6), (8, 3)], ids=_shape_id)
def test_chords_are_keyed_by_line_in_index_order(request, shape):
    if shape == "paper":
        span = request.getfixturevalue("paper").span
    else:
        span = spanning_data(dual_graph(build_torus_triangulation(*shape)), "canonical")
    assert list(span.chords) == [ch.line for ch in span.chords.values()]
    assert [ch.index for ch in span.chords.values()] == list(range(1, len(span.chords) + 1))


def test_spanning_data_rejects_an_unknown_mode(paper):
    # Only the verify context picks a mode; a direct caller gets the raise.
    with pytest.raises(ValueError, match="unknown spanning mode: published"):
        spanning_data(paper.graph, "published")


def test_spanning_of_tree_has_no_chords():
    # A path on four vertices.
    span = spanning_data(graph_of({1: (1, 2), 2: (2, 3), 3: (3, 4)}), "canonical")
    assert span.chords == {} and sorted(span.tree_edges) == [1, 2, 3]


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError):
        spanning_data(graph_of({1: (1, 2), 2: (3, 4)}), "canonical")


def _json_shaped(value) -> bool:
    """Whether value holds only dicts with str keys, lists, strs and ints."""
    if type(value) is dict:
        return all(type(k) is str and _json_shaped(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_json_shaped, value))
    return type(value) in (str, int)


@pytest.mark.parametrize("shape", ["paper", (3, 3), (4, 6), (8, 3)], ids=_shape_id)
def test_json_round_trip(request, shape):
    x0 = _complex(request, shape)
    data = x0.to_json()
    assert _json_shaped(data)
    assert complex_from_json(data) == x0
    again = complex_from_json(json.loads(json.dumps(data)))
    assert again.to_json() == data


def test_planes_doubling_the_upper_halves_rejected():
    # Every lower plane takes the id of the upper plane of its cell: each
    # table has the grid's shape, but the plane ids are not 1..18.
    data = build_torus_triangulation(3, 3).to_json()
    data["planes"]["lower"] = data["planes"]["upper"]
    with pytest.raises(ValueError, match=r"plane ids must be exactly 1\.\.18"):
        complex_from_json(data)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_relabeled_grid_round_trips_and_passes_relators(data):
    """A random numbering of an m x n grid, written as its tables, reads back
    as the canonical grid with every id renamed, and passes `relators`."""
    m, n = data.draw(st.integers(3, 8), "m"), data.draw(st.integers(3, 8), "n")
    canon = build_torus_triangulation(m, n)
    new = {kind: dict(zip(range(1, count + 1), data.draw(st.permutations(range(1, count + 1)), kind)))
           for kind, count in (("points", m * n), ("lines", 3 * m * n), ("planes", 2 * m * n))}
    tables = json.loads(json.dumps(canon.to_json()))
    for kind, ids in new.items():
        relabel(tables, kind, ids.__getitem__)
    x0 = complex_from_json(json.loads(json.dumps(tables)))
    p, l, f = new["points"], new["lines"], new["planes"]
    assert x0.points == sorted((Point(p[x.id], x.row, x.col) for x in canon.points), key=attrgetter("id"))
    assert x0.lines == sorted((Line(l[x.id], (p[x.points[0]], p[x.points[1]]), (f[x.planes[0]], f[x.planes[1]]),
                                    x.kind, x.cell) for x in canon.lines), key=attrgetter("id"))
    assert x0.planes == sorted((Plane(f[x.id], tuple(l[y] for y in x.lines), x.cell, x.half)
                                for x in canon.planes), key=attrgetter("id"))
    assert x0.to_json() == tables
    report = verify.run_suite(x0, "relators")
    assert report.exit_code() == 0 and report.summary()["fail"] == 0


def test_canonical_33_is_not_the_paper_labeling():
    assert not is_paper_labeling(build_torus_triangulation(3, 3))
    assert is_paper_labeling(load_paper_labeling())


def test_is_paper_labeling_loads_no_fixture(paper, tmp_path, monkeypatch):
    calls = []
    load = fixtures.load_json
    monkeypatch.setattr(fixtures, "load_json", lambda name: calls.append(name) or load(name))
    # A fresh override directory, so a fixture cache keyed on it would miss.
    monkeypatch.setenv("COXLAB_FIXTURES", str(tmp_path))
    assert is_paper_labeling(paper.x0)
    assert not is_paper_labeling(build_torus_triangulation(3, 3))
    assert calls == []


def test_corrupt_fixture_fails_loudly(tmp_path, monkeypatch):
    # Lines 1 and 3 trade places; the tables stay valid but anchors break.
    data = relabel(load_json("tt33.json"), "lines", lambda x: {1: 3, 3: 1}.get(x, x))
    (tmp_path / "tt33.json").write_text(json.dumps(data))
    monkeypatch.setenv("COXLAB_FIXTURES", str(tmp_path))
    with pytest.raises((CorruptFixtureError, ValueError)):
        load_paper_labeling()


def test_fixture_override_with_identical_copy(tmp_path, monkeypatch):
    (tmp_path / "tt33.json").write_text(json.dumps(load_json("tt33.json")))
    monkeypatch.setenv("COXLAB_FIXTURES", str(tmp_path))
    assert is_paper_labeling(load_paper_labeling())


def test_corrupt_spanning_fixture_with_a_cycle(paper, spanning_with_cycle, tmp_path, monkeypatch):
    (tmp_path / "t0_spanning.json").write_text(json.dumps(spanning_with_cycle))
    monkeypatch.setenv("COXLAB_FIXTURES", str(tmp_path))
    with pytest.raises(CorruptFixtureError, match="cycle"):
        spanning_data(paper.graph, "paper-fixture")


def test_unparsable_fixture_override_is_corrupt(tmp_path, monkeypatch):
    (tmp_path / "tt33.json").write_text('{"rows": 3,')
    monkeypatch.setenv("COXLAB_FIXTURES", str(tmp_path))
    with pytest.raises(CorruptFixtureError, match="cannot read fixture file .*tt33.json"):
        load_json("tt33.json")
