import json
from itertools import combinations

import oracle
import pytest
from conftest import graph_of, grid_positions

from coxlab import cli, model
from coxlab.complexes import build_torus_triangulation, dual_graph, hexagon_links, psi_image
from coxlab.fixtures import CorruptFixtureError, load_json
from coxlab.presentation import (EXPECTED_MISSING_ROLES, VARIANTS, ax_fixture,
                                 classify_missing, coverage_counts,
                                 cycle_relator, generate,
                                 nonrel_fixture, presentation_from_json)
from coxlab.words import canonical_form


# The h, v and d sides of each half of cell (r, c), as offsets from (r, c):
# the upper half lies above the cell's diagonal, the lower half below it.
SIDES = {"upper": {"h": (0, 0), "v": (0, 0), "d": (0, 0)},
         "lower": {"h": (1, 0), "v": (0, 1), "d": (0, 0)}}


def brute_force_pair_split(x0):
    # Count disjoint/adjacent pairs going through each plane's sides, read
    # by SIDES off the tables, independently of dual_graph's line ->
    # planes map that the generator uses.
    lines, at_plane = x0.numbering["lines"], {}
    for plane, (half, r, c) in grid_positions(x0.numbering["planes"]).items():
        for kind, (dr, dc) in SIDES[half].items():
            line = lines[kind][(r + dr) % x0.rows][(c + dc) % x0.cols]
            at_plane.setdefault(line, set()).add(plane)
    ids = list(x0.lines)
    adjacent = sum(1 for i, j in combinations(ids, 2) if at_plane[i] & at_plane[j])
    return len(ids) * (len(ids) - 1) // 2 - adjacent, adjacent


def test_plain_counts_against_brute_force(paper):
    plain = generate(paper.graph, paper.links, "plain")
    disjoint, adjacent = brute_force_pair_split(paper.x0)
    assert (disjoint, adjacent) == (297, 54)
    counts = plain.counts()
    assert counts["squares"] == 27
    assert counts["commutations"] == disjoint
    assert counts["braids"] == adjacent
    assert counts["forks"] == counts["cycles"] == 0


def test_quotient_adds_nine_cycles(paper):
    quotient = generate(paper.graph, paper.links, "quotient")
    assert len(quotient.cycles) == 9
    assert quotient.counts()["total"] == 27 + 297 + 54 + 54 + 9


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_cycle_relators_start_at_their_least_line_toward_the_smaller_neighbour(m):
    # The orientation rule, stated apart from the code: a hexagon u_1 .. u_6
    # gives w = u_1 .. u_5 u_6 .. u_2 with u_1 least and u_2 < u_6.
    x0 = build_torus_triangulation(m, m)
    quotient = generate(dual_graph(x0), hexagon_links(x0), "quotient")
    assert len(quotient.cycles) == m * m
    for w in quotient.cycles:
        assert w[0] == min(w) and w[1] < w[5]


def test_fork_adds_three_per_vertex(paper):
    plain = generate(paper.graph, paper.links, "plain")
    fork = generate(paper.graph, paper.links, "fork")
    assert len(fork.relator_words()) - len(plain.relator_words()) == 54
    assert len(fork.forks) == 3 * 18


def test_variants_nest(paper):
    plain = generate(paper.graph, paper.links, "plain")
    fork = generate(paper.graph, paper.links, "fork")
    quotient = generate(paper.graph, paper.links, "quotient")
    c = lambda p: {canonical_form(w) for w in p.relator_words()}
    assert c(plain) < c(fork) < c(quotient)


def test_generate_rejects_an_unknown_variant(paper):
    # The command line offers only VARIANTS; a direct caller gets the raise.
    with pytest.raises(ValueError, match="unknown variant 'affine'"):
        generate(paper.graph, paper.links, "affine")


def test_fork_variant_needs_three_regular(hexagon_graph):
    graph, links = hexagon_graph
    with pytest.raises(ValueError):
        generate(graph, links, "fork")


def test_hexagon_quotient_matches_bundled_fixture(hexagon_graph):
    graph, links = hexagon_graph
    pres = generate(graph, links, "quotient")
    bundled = load_json("hexagon_quotient.json")
    assert {canonical_form(w) for w in pres.relator_words()} \
        == {canonical_form(tuple(w)) for w in bundled["relators"]}
    affine = load_json("hexagon_affine.json")
    plain = generate(graph, links, "plain")
    assert {canonical_form(w) for w in plain.relator_words()} \
        == {canonical_form(tuple(w)) for w in affine["relators"]}


def test_every_relator_dies_in_symmetric_group(paper):
    quotient = generate(paper.graph, paper.links, "quotient")
    for w in quotient.relator_words():
        assert psi_image(paper.graph, w) == {}


def test_cycle_relator_triangle():
    assert cycle_relator((1, 2, 3)) == (1, 2, 3, 2)


def test_cycle_relator_too_short():
    with pytest.raises(ValueError):
        cycle_relator((1, 2))


def test_cycle_relator_chord_first_structure(paper):
    # Around the point whose hexagon holds the fourth chord (line 17): the
    # relator pins that chord against the transposition product of the rest.
    link = next(l for l in paper.links if 17 in l.cycle and l.point == 8)
    k = link.cycle.index(17)
    ordered = link.cycle[k:] + link.cycle[:k]
    word = cycle_relator(ordered)
    assert word[0] == 17 and len(word) == 10
    v = oracle.evaluate(word, oracle.phi_table(paper.span, paper.graph), 18)
    assert v.sigma.is_identity()
    support = {i + 1 for i, u in enumerate(v.part.coords) if u}
    assert support == {9, 11}
    assert {abs(x) for u in v.part.coords for x in u} == {4}
    assert model.word_action(word, paper.span, paper.graph) == oracle.sparse(v)


def test_cycle_orientations_same_model_value(paper, paper_phi):
    for link in paper.links:
        values = []
        for k in range(6):
            rot = link.cycle[k:] + link.cycle[:k]
            for orient in (rot, (rot[0],) + rot[:0:-1]):
                values.append(model.rho_hat(model.evaluate_word_semidirect(
                    cycle_relator(orient), paper.span, paper.graph, paper_phi), paper.span))
        assert len(values) == 12 and all(v == values[0] for v in values)


def test_ax_fixture_shape():
    ax = ax_fixture()
    assert len(ax) == 25
    assert "AX9" not in ax
    lengths = sorted(len(w) for w in ax.values())
    histogram = {n: lengths.count(n) for n in sorted(set(lengths))}
    assert histogram == {10: 4, 12: 13, 14: 2, 18: 2, 24: 3, 30: 1}


def test_nonrel_fixture_shape(paper):
    pairs = nonrel_fixture()
    assert len(pairs) == 43
    # C(27,2) - 308 accounting.
    assert 27 * 26 // 2 - 308 == 43


def test_classify_missing_matches_expected(paper):
    table = classify_missing(nonrel_fixture(), paper.links)
    assert table == EXPECTED_MISSING_ROLES


def test_classify_missing_rows(paper):
    table = classify_missing(nonrel_fixture(), paper.links)
    assert table[1] == {"de", "bd", "ea", "ad", "be"}
    assert table[2] == {"ab", "de", "bd", "ea", "ad", "be"}
    assert all("ad" in roles for roles in table.values())


def test_coverage_counts(paper):
    plain = generate(paper.graph, paper.links, "plain")
    report = coverage_counts(plain, nonrel_fixture(), paper.graph)
    assert report["disjoint_given"] == 264
    assert report["adjacent_given"] == 44
    assert report["missing"] == 43
    assert (report["missing_disjoint"], report["missing_adjacent"]) == (33, 10)


def test_coverage_counts_empty_table(paper):
    plain = generate(paper.graph, paper.links, "plain")
    report = coverage_counts(plain, [], paper.graph)
    assert report["missing"] == 0


def test_generated_grid_presentations():
    x0 = build_torus_triangulation(4, 3)
    pres = generate(dual_graph(x0), hexagon_links(x0), "quotient")
    counts = pres.counts()
    assert counts["squares"] == 36
    assert counts["cycles"] == 12
    assert counts["forks"] == 3 * 24
    assert counts["commutations"] + counts["braids"] == 36 * 35 // 2


def _pairs_by_intersection(graph):
    """generate's pair loop as it was written before the endpoint sets were
    built once: a frozen reference that intersects two fresh sets per pair."""
    commutations, braids = [], []
    for i, j in combinations(sorted(graph.edges), 2):
        if set(graph.edges[i]) & set(graph.edges[j]):
            braids.append((i, j) * 3)
        else:
            commutations.append((i, j) * 2)
    return commutations, braids


@pytest.mark.parametrize("variant,rows,cols", [
    *((variant, rows, cols) for variant in VARIANTS
      for rows, cols in [(0, 0), (3, 3), (4, 6), (6, 6)]),
    # Graphs that no grid gives: the 2-valent 6-cycle, and a parallel pair
    # of lines (1 and 2) beside a 4-valent plane, which has 10 braids.
    pytest.param("plain", "hexagon", None, id="plain-hexagon"),
    pytest.param("plain", {1: (1, 2), 2: (1, 2), 3: (2, 3), 4: (3, 1), 5: (1, 4), 6: (4, 5)}, None,
                 id="plain-parallel-lines")])
def test_generate_matches_the_frozen_pairwise_generator(paper, hexagon_graph, rows, cols, variant):
    if rows == "hexagon":
        graph, links = hexagon_graph
    elif isinstance(rows, dict):
        graph, links = graph_of(rows), []
    elif rows:
        x0 = build_torus_triangulation(rows, cols)
        graph, links = dual_graph(x0), hexagon_links(x0)
    else:
        graph, links = paper.graph, paper.links
    p = generate(graph, links, variant)
    assert (p.commutations, p.braids) == _pairs_by_intersection(graph)


def test_presentation_json_round_trip(paper):
    quotient = generate(paper.graph, paper.links, "quotient")
    # Read back through the JSON text, as `present --out` writes it; the
    # relators are a one-shot iterator, which json.dumps cannot encode.
    ngens, relators = presentation_from_json(json.loads("".join(cli._json_text(quotient.to_json()))))
    assert ngens == 27
    assert relators == quotient.relator_words()


def test_presentation_json_validates_letters():
    with pytest.raises(ValueError):
        presentation_from_json({"generators": 2, "relators": [[1, 3]]})


@pytest.mark.parametrize("name,drop,read,needle", [
    ("ax_relations.json", lambda data: data.pop("AX1"), ax_fixture, "unexpected labels"),
    ("nonrel_pairs.json", lambda data: data.pop(), nonrel_fixture, "43 distinct pairs")])
def test_fixture_table_override_is_checked(tmp_path, monkeypatch, name, drop, read, needle):
    data = load_json(name)
    drop(data)
    (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.setenv("COXLAB_FIXTURES", str(tmp_path))
    with pytest.raises(CorruptFixtureError, match=needle):
        read()
