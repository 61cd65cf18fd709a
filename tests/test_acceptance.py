"""Acceptance criteria, one test per criterion.

Every check is exact; the only tolerances are the per-criterion runtime
budgets, asserted with time.perf_counter around the computation itself.
Run with -s to see the one-line verdict per criterion.  Criteria S1 and
S2 are scaling budgets on a 10 x 10 grid, where relator verification and
relator cleaning once grew much faster than the grid.
"""

import json
import math
import time

import oracle

from coxlab import model
from coxlab.cli import main
from coxlab.complexes import (build_torus_triangulation, dual_graph,
                              hexagon_links, load_paper_labeling,
                              spanning_data)
from coxlab.cosets import enumerate_cosets
from coxlab.fixtures import load_json
from coxlab.perm import compose, identity, transposition
from coxlab.presentation import (EXPECTED_MISSING_ROLES, ax_fixture,
                                 classify_missing, coverage_counts,
                                 cycle_relator, generate,
                                 nonrel_fixture)
from coxlab.words import clean, derive_bounded


def _verdict(number, label, elapsed, budget):
    print(f"criterion {number} ({label}): PASS in {elapsed:.3f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.3f}s"


def test_criterion_1_complex_counts():
    start = time.perf_counter()
    for x0 in (load_paper_labeling(), build_torus_triangulation(3, 3)):
        assert (len(x0.points), len(x0.lines), len(x0.planes)) == (9, 27, 18)
        assert len(x0.points) - len(x0.lines) + len(x0.planes) == 0
        graph = dual_graph(x0)
        assert all(graph.degree(v) == 3 for v in graph.vertices)
        assert len(graph.walk(graph.edges)) == len(graph.vertices) - 1
        assert graph.cycle_rank() == 10
        assert len(spanning_data(graph, "canonical").tree_edges) == 17
    _verdict(1, "complex counts", time.perf_counter() - start, 0.1)


def test_criterion_2_pair_accounting():
    start = time.perf_counter()
    x0 = load_paper_labeling()
    graph, links = dual_graph(x0), hexagon_links(x0)
    plain = generate(graph, links, "plain")
    pairs = nonrel_fixture()
    cov = coverage_counts(plain, pairs, graph)
    assert (cov["pairs_total"], cov["disjoint"], cov["adjacent"]) == (351, 297, 54)
    assert cov["missing"] == 43 == cov["pairs_total"] - 308
    assert (cov["missing_disjoint"], cov["missing_adjacent"]) == (33, 10)
    assert (cov["disjoint_given"], cov["adjacent_given"]) == (264, 44)
    table = classify_missing(pairs, links)
    assert table == EXPECTED_MISSING_ROLES
    by_point = {link.point: link for link in links}
    for i, j in pairs:
        shared = set(x0.line_by_id[i].points) & set(x0.line_by_id[j].points)
        diagonals = {by_point[next(iter(shared))].roles[r] for r in ("c", "f")}
        assert i not in diagonals and j not in diagonals
    _verdict(2, "pair accounting", time.perf_counter() - start, 0.1)


def test_criterion_3_relator_suite():
    start = time.perf_counter()
    x0 = load_paper_labeling()
    graph, links = dual_graph(x0), hexagon_links(x0)
    span = spanning_data(graph, "paper-fixture")
    table = model.phi_table(span, graph)
    quotient = generate(graph, links, "quotient")
    counts = quotient.counts()
    assert (counts["squares"], counts["commutations"], counts["braids"],
            counts["forks"], counts["cycles"]) == (27, 297, 54, 54, 9)

    for word in quotient.relator_words() + list(ax_fixture().values()):
        exact = model.evaluate_word_semidirect(word, span, graph, table)
        assert model.rho_hat(exact, span).is_identity()
    dense_table = oracle.phi_table(span, graph)
    for word in quotient.cycles:
        dense = oracle.evaluate(word, dense_table, 18)
        assert dense.sigma.is_identity() and not dense.part.is_identity()
        assert model.evaluate_word_semidirect(word, span, graph, table) == oracle.sparse(dense)
    for link in links:
        values = set()
        for k in range(6):
            rot = link.cycle[k:] + link.cycle[:k]
            for orient in (rot, (rot[0],) + rot[:0:-1]):
                exact = model.evaluate_word_semidirect(cycle_relator(orient), span, graph, table)
                value = model.rho_hat(exact, span)
                values.add((tuple(sorted(value.sigma.items())), value.part))
        assert len(values) == 1 and value.is_identity()
    _verdict(3, "relator suite", time.perf_counter() - start, 2.0)


def test_criterion_4_finite_quotients(hexagon_graph):
    start = time.perf_counter()
    remark = load_json("s4_remark.json")
    assert enumerate_cosets(remark["generators"], remark["relators"]).index == 24

    graph, links = hexagon_graph
    with_cycle = generate(graph, links, "quotient")
    result = enumerate_cosets(with_cycle.generator_count, with_cycle.relator_words())
    assert result.status == "finite" and result.index == 720
    # Lower bound, independent of the enumeration: an onto map to the
    # symmetric group on six letters under which every relator dies.
    assert len(graph.walk(graph.edges)) == len(graph.vertices) - 1
    images = {e: transposition(*graph.edges[e], 6) for e in graph.edges}
    assert math.factorial(6) == 720
    for word in with_cycle.relator_words():
        acc = identity()
        for letter in word:
            acc = compose(acc, images[letter])
        assert acc == identity()

    without_cycle = generate(graph, links, "plain")
    capped = enumerate_cosets(without_cycle.generator_count,
                              without_cycle.relator_words(), capacity=10 ** 5)
    assert capped.status == "capacity-exceeded"
    _verdict(4, "finite quotients", time.perf_counter() - start, 5.0)


def test_criterion_5_structure_theorem():
    start = time.perf_counter()
    gens = model.kernel_generators(18)
    rank, torsion = model.abelianization(model.kernel_relation_matrix(18), len(gens))
    assert rank == 34 and torsion == []

    nil = model.nilpotency_class_check(18)
    assert nil["nilpotency_class"] == 2

    x0 = load_paper_labeling()
    graph = dual_graph(x0)
    span = spanning_data(graph, "paper-fixture")
    z = model.SemidirectElement(identity(), model.ReducedElement.z(18))
    for e in sorted(graph.edges):
        g = model.rho_hat(oracle.sparse(oracle.phi(e, span, graph)), span)
        assert z * g == g * z

    import random
    rng = random.Random(34)
    transpositions = [model.SemidirectElement(transposition(i, j, 18), oracle.REDUCED_IDENTITY)
                      for i in range(1, 19) for j in range(i + 1, 19)]
    for _ in range(100):
        m = model.random_kernel_element(rng, 18)
        if m.is_central_power():
            m = m * model.ReducedElement.p(18, 1) * model.ReducedElement.p(18, 2, -1)
        elem = model.SemidirectElement(identity(), m)
        assert any(not elem.commutes_with(t) for t in transpositions)
    _verdict(5, "structure theorem", time.perf_counter() - start, 1.0)


def test_criterion_6_center_witness():
    start = time.perf_counter()
    x0 = load_paper_labeling()
    graph = dual_graph(x0)
    span = spanning_data(graph, "paper-fixture")
    witness = model.center_witness(span, graph)
    assert witness.value.part.zeta in (1, -1)
    assert witness.value.sigma == identity()
    assert witness.value.part.is_central_power()
    assert witness.tau_images == {"tau1": (2, 7), "tau2": (7, 10),
                                  "tau3": (1, 7), "tau4": (1, 3)}
    _verdict(6, "center witness", time.perf_counter() - start, 0.1)


def test_criterion_7_derivation_replays():
    start = time.perf_counter()
    trivia = [(1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2]
    target = (1, 2, 3, 2, 1) + (3, 2, 1, 2, 3)
    assert derive_bounded(trivia, target, max_len=40).found

    x0 = load_paper_labeling()
    graph, links = dual_graph(x0), hexagon_links(x0)
    plain = generate(graph, links, "plain")
    by_point = {link.point: link for link in links}
    for label, point in [("AX1", 1), ("AX3", 4), ("AX4", 6), ("AX2", 9)]:
        link = by_point[point]
        local = set(link.cycle)
        known = [(e, e) for e in local]
        known += [w for w in plain.commutations + plain.braids if set(w) <= local]
        known.append(ax_fixture()[label])
        result = derive_bounded(known, cycle_relator(link.cycle), max_len=40)
        assert result.found, f"no derivation found for the hexagon relation at point {point}"
    _verdict(7, "derivation replays", time.perf_counter() - start, 30.0)


def test_criteria_s1_s2_grid_10x10_budgets(tmp_path, capsys):
    grid, quotient = str(tmp_path / "g10.json"), tmp_path / "q10.json"
    assert main(["build", "--rows", "10", "--cols", "10", "--out", grid]) == 0
    assert main(["present", "--complex", grid, "--variant", "quotient", "--out", str(quotient)]) == 0
    relators = [tuple(w) for w in json.loads(quotient.read_text())["relators"]]
    capsys.readouterr()

    start = time.perf_counter()
    assert main(["verify", "--complex", grid, "--suite", "relators", "--json"]) == 0
    elapsed = time.perf_counter() - start
    assert json.loads(capsys.readouterr().out)["summary"]["fail"] == 0
    _verdict("S1", "10 x 10 verify relators", elapsed, 10.0)

    start = time.perf_counter()
    report = clean(relators)
    elapsed = time.perf_counter() - start
    assert report.squares and report.commutations and report.braids
    _verdict("S2", "10 x 10 clean", elapsed, 5.0)
