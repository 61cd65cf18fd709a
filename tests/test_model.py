import json
import random
from functools import reduce
from operator import mul

import pytest

from coxlab import fixtures
from coxlab.complexes import (SpanningData, build_torus_triangulation,
                              dual_graph, hexagon_links, spanning_data,
                              witness_words)
from coxlab.model import (CHORD_SUBSTITUTION, FreeTuple, ReducedElement,
                          SemidirectElement, abelianization, center_witness,
                          center_witness_word, evaluate_word_semidirect,
                          kernel_generators, kernel_relation_matrix,
                          nilpotency_class_check, phi, phi_table,
                          random_kernel_element, relator_report, rho, rho_hat,
                          word_is_identity)
from coxlab.perm import identity, transposition
from coxlab.presentation import ax_fixture, cycle_relator, generate


def test_phi_tree_edge_is_plain_transposition(paper):
    e = paper.span.tree_edges[0]
    v = phi(e, paper.span, paper.graph)
    assert v.sigma == transposition(*paper.graph.edges[e], 18)
    assert v.part.is_identity()


def test_phi_chord_puts_opposite_letters_at_ends(paper):
    chord = next(c for c in paper.span.chords if c.index == 4)
    assert chord.line == 17 and (chord.tail, chord.head) == (11, 9)
    v = phi(17, paper.span, paper.graph)
    assert v.sigma == transposition(11, 9, 18)
    assert v.part.coords[chord.tail - 1] == (4,)
    assert v.part.coords[chord.head - 1] == (-4,)


def test_phi_images_are_involutions(paper, paper_phi):
    for e, v in paper_phi.items():
        assert (v * v).is_identity(), e


def test_phi_unknown_edge(paper):
    with pytest.raises(ValueError):
        phi(99, paper.span, paper.graph)


def test_empty_word_evaluates_to_identity(paper):
    assert evaluate_word_semidirect((), paper.span, paper.graph).is_identity()


def test_unknown_letter_rejected_by_every_evaluator(paper, paper_phi):
    for word in ((99,), (1, 0)):
        with pytest.raises(ValueError):
            evaluate_word_semidirect(word, paper.span, paper.graph, paper_phi)
        with pytest.raises(ValueError):
            evaluate_word_semidirect(word, paper.span, paper.graph)
        with pytest.raises(ValueError):
            word_is_identity(word, paper.span, paper.graph)
    with pytest.raises(ValueError):
        evaluate_word_semidirect((1,), paper.span, paper.graph, {})


@pytest.mark.parametrize("rows,cols", [(3, 3), (4, 6), (5, 5)])
def test_sparse_evaluation_matches_dense_product(rows, cols):
    x0 = build_torus_triangulation(rows, cols)
    graph = dual_graph(x0)
    span = spanning_data(graph, "canonical")
    table = phi_table(span, graph)
    n = len(graph.vertices)
    unit = SemidirectElement(identity(n), FreeTuple.trivial(n))
    edges = sorted(graph.edges)
    rng = random.Random(100 * rows + cols)
    samples = []
    for _ in range(40):
        w = tuple(rng.choice(edges) * rng.choice((1, -1)) for _ in range(rng.randint(0, 60)))
        samples += [w, w + w[::-1]]
    relators = generate(graph, hexagon_links(x0), "quotient").relator_words()
    for w in samples + relators:
        dense = reduce(mul, (table[abs(e)] for e in w), unit)
        assert evaluate_word_semidirect(w, span, graph, table) == dense, w
        assert word_is_identity(w, span, graph) == dense.is_identity(), w
    assert all(word_is_identity(w + w[::-1], span, graph) for w in samples)


def test_semidirect_associativity_random(paper, paper_phi):
    rng = random.Random(13)
    elems = list(paper_phi.values())
    for _ in range(60):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_semidirect_inverse(paper, paper_phi):
    rng = random.Random(14)
    for _ in range(30):
        w = tuple(rng.randint(1, 27) for _ in range(rng.randint(0, 10)))
        v = evaluate_word_semidirect(w, paper.span, paper.graph, paper_phi)
        assert (v * v.inverse()).is_identity()
        assert (v.inverse() * v).is_identity()


def test_witness_conjugate_tuples_match_recorded_values(paper, paper_phi):
    # tau1 . 1 lands on the kernel with the first chord letter at plane 7
    # and its inverse at plane 2; similarly for tau4 . 4 at planes 1 and 3.
    w = witness_words()
    v1 = evaluate_word_semidirect(w["tau1"] + (1,), paper.span, paper.graph, paper_phi)
    assert v1.sigma.is_identity()
    assert v1.part.coords[6] == (1,) and v1.part.coords[1] == (-1,)
    v4 = evaluate_word_semidirect(w["tau4"] + (4,), paper.span, paper.graph, paper_phi)
    assert v4.sigma.is_identity()
    assert v4.part.coords[0] == (8,) and v4.part.coords[2] == (-8,)


def test_nine_cyclic_relators_die_under_reduction(paper, paper_phi):
    for link in paper.links:
        w = cycle_relator(link.cycle)
        v = evaluate_word_semidirect(w, paper.span, paper.graph, paper_phi)
        assert not v.part.is_identity()
        assert rho_hat(v, paper.span).is_identity()


def _at_plane(i, word):
    """The 18-coordinate tuple with the given word at plane i only."""
    return FreeTuple(tuple(tuple(word) if k == i else () for k in range(1, 19)))


def test_rho_chord_difference_is_central_letter():
    # x^7_i (x^8_i)^-1 collapses to the same central letter for every i.
    for i in range(1, 19):
        v = rho(_at_plane(i, (7, -8)))
        assert v == ReducedElement((0, 0, 0, 0, 1, 0, 0, 0), (0,) * 18, (0,) * 18, 0)


def test_rho_commutator_of_paired_letters_is_z():
    v = rho(_at_plane(7, (-1, -8, 1, 8)))
    assert v == ReducedElement.z(1)


def test_rho_rejects_foreign_letters():
    with pytest.raises(ValueError):
        rho(_at_plane(1, (11,)))
    assert set(CHORD_SUBSTITUTION) == set(range(1, 11))


def test_rho_matches_the_product_of_letter_images():
    # Reference: coordinate i sends letter t to y^e times p_i or q_i, inverted
    # for a negative letter, multiplied in coordinate order, then word order.
    unit = ReducedElement.identity()

    def image(letter, i):
        central, tail = CHORD_SUBSTITUTION[abs(letter)]
        img = unit
        if central is not None:
            c = [0] * 8
            c[central] = 1
            img = ReducedElement(tuple(c), unit.a, unit.b, 0)
        if tail is not None:
            img = img * (ReducedElement.p(i) if tail == "p" else ReducedElement.q(i))
        return img if letter > 0 else img.inverse()

    rng = random.Random(31)
    for _ in range(300):
        coords = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, 10) for _ in range(rng.randint(0, 8)))
            for _ in range(18))
        expected = reduce(mul, (image(x, i) for i, w in enumerate(coords, start=1) for x in w), unit)
        assert rho(FreeTuple(coords)) == expected
    with pytest.raises(ValueError):
        rho(FreeTuple.trivial(17))


def test_heisenberg_single_pair_commutator():
    p1, q1 = ReducedElement.p(1), ReducedElement.q(1)
    assert p1 * q1 == q1 * p1 * ReducedElement.z(1)
    assert p1.commutator(q1) == ReducedElement.z(1)


def test_heisenberg_central_block_adds():
    u = ReducedElement((1, 0, 2, 0, 0, 0, 0, -1), (0,) * 18, (0,) * 18, 3)
    v = ReducedElement((0, 1, 0, 0, 4, 0, 0, 1), (0,) * 18, (0,) * 18, -1)
    w = u * v
    assert w.c == (1, 1, 2, 0, 4, 0, 0, 0) and w.zeta == 2


def _oracle_normal_form(letters, n=18):
    # Sort symbols to p-block then q-block then z by adjacent swaps; a swap
    # moving p_i left past q_i costs one z each way.
    syms = list(letters)
    zeta = 0
    changed = True
    while changed:
        changed = False
        for k in range(len(syms) - 1):
            (k1, i1, e1), (k2, i2, e2) = syms[k], syms[k + 1]
            if (k1, i1) > (k2, i2):
                if k1 == "q" and k2 == "p" and i1 == i2:
                    zeta -= e1 * e2
                syms[k], syms[k + 1] = syms[k + 1], syms[k]
                changed = True
    a, b = [0] * n, [0] * n
    for kind, i, e in syms:
        (a if kind == "p" else b)[i - 1] += e
    return ReducedElement((0,) * 8, tuple(a), tuple(b), zeta)


def test_heisenberg_against_rewriting_oracle():
    rng = random.Random(17)
    for _ in range(200):
        letters = [(rng.choice("pq"), rng.randint(1, 3), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 8))]
        product = ReducedElement.identity()
        for kind, i, e in letters:
            factor = ReducedElement.p(i, e) if kind == "p" else ReducedElement.q(i, e)
            product = product * factor
        assert product == _oracle_normal_form(letters)


def test_kernel_abelianization_rank_34():
    gens = kernel_generators()
    assert len(gens) == 35
    rank, torsion = abelianization(kernel_relation_matrix(), len(gens))
    assert rank == 34 and torsion == []


def test_single_pair_heisenberg_abelianization():
    # Generators x, y, z with the relator [x, y] z^-1: abelianized rank 2.
    rank, torsion = abelianization([[0, 0, -1]], 3)
    assert rank == 2 and torsion == []


def test_kernel_commutators_by_hand():
    g = ReducedElement.p(1) * ReducedElement.p(2, -1)
    h = ReducedElement.q(1) * ReducedElement.q(2, -1)
    assert g.commutator(h) == ReducedElement.z(2)
    h13 = ReducedElement.q(1) * ReducedElement.q(3, -1)
    assert g.commutator(h13) == ReducedElement.z(1)
    g2 = ReducedElement.p(3) * ReducedElement.p(4, -1)
    assert g.commutator(g2).is_identity()


def test_nilpotency_report():
    report = nilpotency_class_check(sample_size=150, seed=5)
    assert report["nilpotency_class"] == 2
    assert report["commutators_central"] and report["triple_commutators_trivial"]


def test_action_permutes_indices_and_respects_ab(paper):
    rng = random.Random(23)
    for _ in range(40):
        m = random_kernel_element(rng)
        if rng.random() < 0.9:
            i, j = rng.sample(range(1, 19), 2)
            sigma = transposition(i, j, 18)
        else:
            sigma = identity(18)
        acted = m.act(sigma)
        assert sum(acted.a) == sum(m.a) and sum(acted.b) == sum(m.b)
        assert acted.c == m.c and acted.zeta == m.zeta


def test_rho_hat_is_multiplicative(paper, paper_phi):
    rng = random.Random(29)
    for _ in range(40):
        w1 = tuple(rng.randint(1, 27) for _ in range(rng.randint(0, 8)))
        w2 = tuple(rng.randint(1, 27) for _ in range(rng.randint(0, 8)))
        x = evaluate_word_semidirect(w1, paper.span, paper.graph, paper_phi)
        y = evaluate_word_semidirect(w2, paper.span, paper.graph, paper_phi)
        assert rho_hat(x * y, paper.span) == rho_hat(x, paper.span) * rho_hat(y, paper.span)


def test_center_witness(paper):
    witness = center_witness(paper.span, paper.graph)
    assert witness.zeta in (1, -1)
    assert witness.value.sigma.is_identity()
    assert witness.tau_images == {"tau1": (2, 7), "tau2": (7, 10),
                                  "tau3": (1, 7), "tau4": (1, 3)}


def test_center_witness_word_is_a_commutator_shape():
    word = center_witness_word()
    taus = witness_words()
    first = taus["tau1"] + (1,)
    middle = tuple(reversed(taus["tau3"])) + taus["tau4"] + (4,) + taus["tau3"]
    assert word == tuple(reversed(first)) + tuple(reversed(middle)) + first + middle


def test_witness_commutes_with_every_generator_image(paper, paper_phi):
    z = SemidirectElement(identity(18), ReducedElement.z(1))
    for e in sorted(paper.graph.edges):
        g = rho_hat(paper_phi[e], paper.span)
        assert z * g == g * z


def test_noncentral_kernel_element_moves():
    m = SemidirectElement(identity(18), ReducedElement.p(1) * ReducedElement.p(2, -1))
    t = SemidirectElement(transposition(1, 2, 18), ReducedElement.identity())
    assert not m.commutes_with(t)


EXACT_UNIT = SemidirectElement(identity(18), FreeTuple.trivial(18))


def _reduced_model_calls(paper):
    """rho_hat, relator_report and center_witness, each on a span of the caller's."""
    return [lambda span: rho_hat(EXACT_UNIT, span),
            lambda span: relator_report([(1, 1)], span, paper.graph),
            lambda span: center_witness(span, paper.graph)]


def test_rho_requires_published_span(paper):
    canonical = spanning_data(paper.graph, "canonical")
    for call in _reduced_model_calls(paper):
        with pytest.raises(ValueError):
            call(canonical)


def test_hand_built_published_span_rejected(paper):
    # The published tree and chords, but not from the paper-fixture loader.
    forged = SpanningData(tree_edges=list(paper.span.tree_edges), chords=list(paper.span.chords))
    assert (forged.tree_edges, forged.chords) == (paper.span.tree_edges, paper.span.chords)
    assert paper.span.published and not forged.published
    for call in _reduced_model_calls(paper):
        call(paper.span)
        with pytest.raises(ValueError):
            call(forged)


def test_rho_hat_loads_no_fixture(paper, tmp_path, monkeypatch):
    calls = []
    load = fixtures.load_json
    monkeypatch.setattr(fixtures, "load_json", lambda name: calls.append(name) or load(name))
    # A fresh override directory, so a fixture cache keyed on it would miss.
    monkeypatch.setenv("COXLAB_FIXTURES", str(tmp_path))
    for _ in range(50):
        rho_hat(EXACT_UNIT, paper.span)
    assert calls == []


def test_paper_span_is_built_from_an_overriding_fixture(paper, tmp_path, monkeypatch):
    data = fixtures.load_json("t0_spanning.json")
    chord = data["chords"][0]
    chord["tail"], chord["head"] = chord["head"], chord["tail"]
    (tmp_path / "t0_spanning.json").write_text(json.dumps(data))
    monkeypatch.setenv("COXLAB_FIXTURES", str(tmp_path))
    span = spanning_data(paper.graph, "paper-fixture")
    first = span.chords[0]
    assert (first.line, first.tail, first.head) == (chord["line"], chord["tail"], chord["head"])
    assert (first.tail, first.head) == (paper.span.chords[0].head, paper.span.chords[0].tail)
    assert span.published
    rho_hat(EXACT_UNIT, span)


def test_reduced_element_json():
    m = ReducedElement.p(1) * ReducedElement.q(1) * ReducedElement.z(2)
    data = m.to_json()
    assert data["zeta"] == 2 and data["a"][0] == 1 and data["b"][0] == 1


def test_exact_layer_relator_suite(paper, paper_phi):
    quotient = generate(paper.graph, paper.links, "quotient")
    coxeter = quotient.squares + quotient.commutations + quotient.braids + quotient.forks
    for w in coxeter:
        assert evaluate_word_semidirect(w, paper.span, paper.graph, paper_phi).is_identity()


def test_reduced_layer_full_suite(paper, paper_phi):
    quotient = generate(paper.graph, paper.links, "quotient")
    for w in quotient.relator_words() + list(ax_fixture().values()):
        v = evaluate_word_semidirect(w, paper.span, paper.graph, paper_phi)
        assert rho_hat(v, paper.span).is_identity()


def test_relator_report_records(paper, paper_phi):
    records = relator_report([ax_fixture()["AX1"], (1,)], paper.span, paper.graph, paper_phi)
    assert records[0]["status"] == "pass"
    assert records[1]["status"] == "fail"
    assert records[1]["value"]["sigma"] != list(range(1, 19))
    assert records[0]["relator"] == list(ax_fixture()["AX1"])
