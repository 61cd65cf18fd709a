import json
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import reduce
from itertools import product
from operator import mul

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from coxlab import fixtures, model, presentation, verify
from coxlab.complexes import (Chord, SpanningData, build_torus_triangulation,
                              dual_graph, hexagon_links, psi_image, spanning_data,
                              witness_words)
from coxlab.model import (ReducedElement, SemidirectElement, abelianization, center_witness,
                          center_witness_word, evaluate_word_semidirect,
                          kernel_generators, kernel_relation_matrix,
                          nilpotency_class_check, phi_table,
                          random_kernel_element, relator_report, rho_hat,
                          word_action, word_is_identity)
from coxlab.perm import compose, identity, transposition
from coxlab.presentation import ax_fixture, cycle_relator, generate


def test_phi_tree_edge_is_plain_transposition(paper):
    e = paper.span.tree_edges[0]
    a, b = paper.graph.edges[e]
    v = oracle.phi(e, paper.span, paper.graph)
    assert v.sigma.moved() == transposition(a, b, 18)
    assert v.part.is_identity()
    assert phi_table(paper.span, paper.graph)[e] == oracle.sparse(v) == ({a: b, b: a}, {})


def test_phi_chord_puts_opposite_letters_at_ends(paper):
    chord = next(c for c in paper.span.chords.values() if c.index == 4)
    assert chord.line == 17 and (chord.tail, chord.head) == (11, 9)
    v = oracle.phi(17, paper.span, paper.graph)
    assert v.sigma.moved() == transposition(11, 9, 18)
    assert v.part.coords[chord.tail - 1] == (4,)
    assert v.part.coords[chord.head - 1] == (-4,)
    assert phi_table(paper.span, paper.graph)[17] == oracle.sparse(v) == ({11: 9, 9: 11}, {11: [4], 9: [-4]})


def test_phi_images_are_involutions(paper, paper_phi):
    for e, v in paper_phi.items():
        assert oracle.mul(v, v).is_identity(), e


def test_phi_unknown_edge(paper):
    with pytest.raises(ValueError):
        oracle.phi(99, paper.span, paper.graph)
    with pytest.raises(ValueError):
        evaluate_word_semidirect((99,), paper.span, paper.graph)


@pytest.mark.parametrize("grid", ["paper", (3, 3), (4, 6), (8, 3), (6, 6)],
                         ids=["paper", "3x3", "4x6", "8x3", "6x6"])
def test_phi_table_matches_the_oracle(paper, grid):
    """The package's phi_table, read from word_action, against phi built
    from the chords, on the published span, on canonical grid spans, and
    with each of three chords moved off its edge."""
    if grid == "paper":
        span, graph = paper.span, paper.graph
    else:
        graph = dual_graph(build_torus_triangulation(*grid))
        span = spanning_data(graph, "canonical")
    for s in (span, *(_misplaced(span, graph, which) for which in (0, 3, -1))):
        table = phi_table(s, graph)
        assert list(table) == sorted(graph.edges)
        assert table == {e: oracle.sparse(g) for e, g in oracle.phi_table(s, graph).items()}


def test_empty_word_evaluates_to_identity(paper):
    assert evaluate_word_semidirect((), paper.span, paper.graph) == oracle.sparse(oracle.unit(18)) == ({}, {})


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
    table = oracle.phi_table(span, graph)
    n = len(graph.vertices)
    edges = sorted(graph.edges)
    rng = random.Random(100 * rows + cols)
    samples = []
    for _ in range(40):
        w = tuple(rng.choice(edges) * rng.choice((1, -1)) for _ in range(rng.randint(0, 60)))
        samples += [w, w + w[::-1]]
    relators = generate(graph, hexagon_links(x0), "quotient").relator_words()
    for w in samples + relators:
        dense = oracle.evaluate(w, table, n)
        assert evaluate_word_semidirect(w, span, graph, table) == oracle.sparse(dense), w
        assert word_is_identity(w, span, graph) == dense.is_identity(), w
    assert all(word_is_identity(w + w[::-1], span, graph) for w in samples)


@pytest.mark.parametrize("grid", ["paper", (3, 3), (4, 6), (8, 3)], ids=["paper", "3x3", "4x6", "8x3"])
def test_psi_image_is_the_sigma_of_word_action(paper, grid):
    """Both evaluators of a word's plane permutation return the planes it
    moves: psi_image from the complex's lines, word_action's sigma from the
    span, on random words and on words that put back every plane they touch."""
    if grid == "paper":
        x0, graph, span = paper.x0, paper.graph, paper.span
    else:
        x0, graph, span = _canonical(*grid)
    edges = sorted(graph.edges)
    rng = random.Random(len(edges))
    for _ in range(100):
        w = tuple(rng.choice(edges) * rng.choice((1, -1)) for _ in range(rng.randint(0, 40)))
        for word in (w, w + w[::-1]):
            assert psi_image(x0, word) == word_action(word, span, graph)[0], word
    assert psi_image(x0, w + w[::-1]) == {}


def test_semidirect_associativity_random(paper, paper_phi):
    rng = random.Random(13)
    elems = list(paper_phi.values())
    for _ in range(60):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert oracle.mul(oracle.mul(x, y), z) == oracle.mul(x, oracle.mul(y, z))


def test_witness_conjugate_tuples_match_recorded_values(paper, paper_phi):
    # tau1 . 1 lands on the kernel with the first chord letter at plane 7
    # and its inverse at plane 2; similarly for tau4 . 4 at planes 1 and 3.
    w = witness_words()
    for word, coords in ((w["tau1"] + (1,), {7: [1], 2: [-1]}), (w["tau4"] + (4,), {1: [8], 3: [-8]})):
        dense = oracle.evaluate(word, paper_phi, 18)
        assert word_action(word, paper.span, paper.graph) == oracle.sparse(dense) == ({}, coords)


def test_nine_cyclic_relators_die_under_reduction(paper, paper_phi):
    for link in paper.links:
        w = cycle_relator(link.cycle)
        dense = oracle.evaluate(w, paper_phi, 18)
        assert not dense.part.is_identity()
        assert oracle.reduced(dense, paper.span).is_identity()
        v = word_action(w, paper.span, paper.graph)
        assert v == oracle.sparse(dense)
        assert rho_hat(v, paper.span).is_identity()


def test_reduction_of_the_sparse_action_matches_the_dense_reference(paper, paper_phi):
    """rho_hat(word_action(w)) against the dense product reduced by the
    oracle's dense rho, on the 25 AX relators, the 9 cycles, the centre
    witness and 3,000 seeded random words over the 27 lines."""
    rng = random.Random(3035)
    words = list(ax_fixture().values()) + [cycle_relator(link.cycle) for link in paper.links]
    words.append(center_witness_word())
    words += [tuple(rng.randint(1, 27) * rng.choice((1, -1)) for _ in range(rng.randint(0, 30)))
              for _ in range(3000)]
    assert len(words) == 3035
    for w in words:
        expected = oracle.reduced(oracle.evaluate(w, paper_phi, 18), paper.span)
        assert rho_hat(word_action(w, paper.span, paper.graph), paper.span) == expected, w


def test_rho_commutator_of_paired_letters_is_z(paper):
    coords = {7: [-1, -8, 1, 8]}
    dense = oracle.FreeTuple(tuple(tuple(coords.get(i, ())) for i in range(1, 19)))
    assert oracle.rho(dense, paper.span) == oracle.Reduced.z(18)
    assert rho_hat(({}, coords), paper.span).part == ReducedElement({}, {}, 1)


def test_rho_rejects_foreign_letters(paper):
    for letter in (11, -11):
        with pytest.raises(ValueError):
            rho_hat(({}, {1: [letter]}), paper.span)
        with pytest.raises(ValueError):
            oracle.rho(oracle.FreeTuple(((letter,),) + ((),) * 17), paper.span)
    for plane in (0, 19):
        with pytest.raises(ValueError):
            rho_hat(({}, {plane: [1]}), paper.span)


def test_published_span_weights_are_the_published_table(paper):
    assert {ch.index: ch.weight for ch in paper.span.chords.values()} == oracle.PUBLISHED_WEIGHTS
    # The span's derived view of the chords reads the same table, built once.
    assert paper.span.weights == oracle.PUBLISHED_WEIGHTS
    assert paper.span.weights is paper.span.weights


def test_rho_matches_the_product_of_letter_images(paper):
    # Reference: coordinate i sends a chord letter of weight (alpha, beta)
    # to p_i^alpha q_i^beta, inverted for a negative letter, multiplied in
    # coordinate order, then word order.  The grids have weights with both
    # parts nonzero, whose inverses carry a power of z.
    grids = [spanning_data(dual_graph(build_torus_triangulation(*shape)), "canonical")
             for shape in ((3, 3), (4, 6), (8, 3))]
    rng = random.Random(31)
    for span in (paper.span, *grids):
        n, weights = len(span.tree_edges) + 1, {ch.index: ch.weight for ch in span.chords.values()}
        assert span is paper.span or any(a and b for a, b in weights.values())

        def image(letter, i):
            alpha, beta = weights[abs(letter)]
            img = oracle.Reduced.p(n, i, alpha) * oracle.Reduced.q(n, i, beta)
            return img if letter > 0 else img.inverse()

        for _ in range(300):
            words = {i: tuple(rng.choice((1, -1)) * rng.randint(1, len(weights))
                              for _ in range(rng.randint(1, 8)))
                     for i in rng.sample(range(1, n + 1), rng.randint(0, 6))}
            coords = tuple(words.get(i, ()) for i in range(1, n + 1))
            expected = reduce(mul, (image(x, i) for i, w in enumerate(coords, start=1) for x in w),
                              oracle.Reduced.z(n, 0))
            assert oracle.rho(oracle.FreeTuple(coords), span) == expected
            assert rho_hat(({}, {i: list(w) for i, w in words.items()}), span).part == expected.sparse()
        with pytest.raises(ValueError):
            oracle.rho(oracle.unit(n - 1).part, span)


@pytest.mark.parametrize("grid", ["paper", (4, 6), (8, 3), (12, 12)],
                         ids=["paper", "4x6", "8x3", "12x12"])
def test_sparse_reduced_layer_matches_the_dense_reference(paper, grid):
    """On seeded random words, rho_hat's sparse image, the products and
    commutators with another word's image and with a random element over
    every plane, act by a random permutation of all n planes,
    is_permutation_invariant(n) and to_json(n) equal the dense reference's,
    which walks every plane."""
    if grid == "paper":
        span, graph = paper.span, paper.graph
    else:
        graph = dual_graph(build_torus_triangulation(*grid))
        span = spanning_data(graph, "canonical")
    n, lines, table = len(graph.vertices), sorted(graph.edges), oracle.phi_table(span, graph)
    rng = random.Random(f"sparse {grid}")
    for _ in range(60):
        u, v = (tuple(rng.choice(lines) for _ in range(rng.randint(0, 20))) for _ in range(2))
        x, y = oracle.evaluate(u, table, n), oracle.evaluate(v, table, n)
        su, sv = (rho_hat(word_action(w, span, graph), span) for w in (u, v))
        du, dv = oracle.rho(x.part, span), oracle.rho(y.part, span)
        assert su == oracle.reduced(x, span) and su.part == du.sparse(), u
        assert su * sv == oracle.reduced(oracle.mul(x, y), span)
        assert su * sv == rho_hat(word_action(u + v, span, graph), span)
        # A dense element over every plane, so that most commutators are not trivial.
        e = oracle.Reduced(*(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2)), 1)
        for w, dw in ((sv.part, dv), (e.sparse(), e)):
            assert su.part * w == (du * dw).sparse()
            assert su.part.commutator(w) == du.commutator(dw).sparse()
        images = rng.sample(range(1, n + 1), n)
        sigma = {i: j for i, j in enumerate(images, start=1) if i != j}
        assert su.part.act(sigma) == du.act(sigma).sparse()
        assert su.part.is_permutation_invariant(n) == du.is_permutation_invariant()
        assert su.part.to_json(n) == du.to_json()
    for c in (0, 3):
        nearly = (c,) * (n - 1) + (c + 1,)
        for d in (oracle.Reduced((c,) * n, (0,) * n, 1), oracle.Reduced(nearly, (c,) * n, 0)):
            assert d.sparse().is_permutation_invariant(n) == d.is_permutation_invariant()
            assert d.sparse().to_json(n) == d.to_json()


def test_a_short_word_on_the_64x64_grid_writes_only_the_planes_it_touches():
    """The reduced image holds the planes a word writes, not the grid's
    8,192: a chord of weight (+-1, +-1) conjugated by a line at its tail."""
    graph = dual_graph(build_torus_triangulation(64, 64))
    span = spanning_data(graph, "canonical")
    chord = next(c for c in span.chords.values() if c.weight[0] and c.weight[1])
    line = next(e for e, ends in sorted(graph.edges.items()) if chord.tail in ends and e != chord.line)
    word = (chord.line, line, chord.line)
    value = rho_hat(word_action(word, span, graph), span)
    touched = {plane for e in word for plane in graph.edges[e]}
    assert value.part.a and value.part.b
    assert value.sigma.keys() | value.part.a.keys() | value.part.b.keys() <= touched
    assert len(value.part.a) + len(value.part.b) <= 4
    assert len(value.part.to_json(8192)["b"]) == 8192


def test_heisenberg_single_pair_commutator():
    p1, q1, z = ReducedElement({1: 1}, {}, 0), ReducedElement({}, {1: 1}, 0), ReducedElement({}, {}, 1)
    assert p1 * q1 == q1 * p1 * z
    assert p1.commutator(q1) == z


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
    return oracle.Reduced(tuple(a), tuple(b), zeta).sparse()


def test_heisenberg_against_rewriting_oracle():
    rng = random.Random(17)
    for _ in range(200):
        letters = [(rng.choice("pq"), rng.randint(1, 3), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 8))]
        product = oracle.REDUCED_IDENTITY
        for kind, i, e in letters:
            factor = ReducedElement({i: e}, {}, 0) if kind == "p" else ReducedElement({}, {i: e}, 0)
            product = product * factor
        assert product == _oracle_normal_form(letters)


def test_kernel_abelianization_rank_34():
    gens = kernel_generators(18)
    assert len(gens) == 35
    rank, torsion = abelianization(kernel_relation_matrix(18), len(gens))
    assert rank == 34 and torsion == []


@pytest.mark.parametrize("n", [3, 48])
def test_kernel_abelianization_rank_on_other_widths(n):
    gens = kernel_generators(n)
    assert len(gens) == 2 * n - 1
    rank, torsion = abelianization(kernel_relation_matrix(n), len(gens))
    assert rank == 2 * (n - 1) and torsion == []


def test_single_pair_heisenberg_abelianization():
    # Generators x, y, z with the relator [x, y] z^-1: abelianized rank 2.
    rank, torsion = abelianization([[0, 0, -1]], 3)
    assert rank == 2 and torsion == []


_vectors = st.lists(st.integers(-50, 50), min_size=18, max_size=18).map(tuple)
_dense = st.builds(oracle.Reduced, _vectors, _vectors, st.integers(-10**6, 10**6))


@given(_dense, _dense)
def test_commutator_closed_form_matches_the_product(g, h):
    # The dense commutator is the definition g^-1 h^-1 g h, through the group law.
    assert g.sparse() * g.inverse().sparse() == g.inverse().sparse() * g.sparse() == oracle.REDUCED_IDENTITY
    assert g.sparse() * h.sparse() == (g * h).sparse()
    assert g.sparse().commutator(h.sparse()) == g.commutator(h).sparse()


def test_kernel_relation_matrix_matches_the_product_form():
    gens = kernel_generators(18)
    expected = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            g, h = oracle.dense(gens[i], 18), oracle.dense(gens[j], 18)
            expected.append([0] * (len(gens) - 1) + [g.commutator(h).zeta])
    assert kernel_relation_matrix(18) == expected


def test_kernel_commutators_by_hand():
    g = ReducedElement({1: 1, 2: -1}, {}, 0)
    h = ReducedElement({}, {1: 1, 2: -1}, 0)
    assert g.commutator(h) == ReducedElement({}, {}, 2)
    h13 = ReducedElement({}, {1: 1, 3: -1}, 0)
    assert g.commutator(h13) == ReducedElement({}, {}, 1)
    g2 = ReducedElement({3: 1, 4: -1}, {}, 0)
    assert g.commutator(g2).is_identity()


def test_nilpotency_report(monkeypatch):
    assert nilpotency_class_check(18) == {
        "samples": model.SAMPLES, "commutators_central": True, "triple_commutators_trivial": True,
        "class_two_witness": True, "nilpotency_class": 2}
    # A commutator that leaves the centre fails both sampled checks.
    monkeypatch.setattr(ReducedElement, "commutator", lambda self, other: ReducedElement({1: 1}, {}, 0))
    report = nilpotency_class_check(18)
    assert report["commutators_central"] is False
    assert report["triple_commutators_trivial"] is False
    assert report["nilpotency_class"] is None


def test_action_permutes_indices_and_respects_ab(paper):
    rng = random.Random(23)
    for _ in range(40):
        m = random_kernel_element(rng, 18)
        if rng.random() < 0.9:
            i, j = rng.sample(range(1, 19), 2)
            sigma = transposition(i, j, 18)
        else:
            sigma = identity()
        acted = m.act(sigma)
        assert sum(acted.a.values()) == sum(m.a.values()) and sum(acted.b.values()) == sum(m.b.values())
        assert acted.zeta == m.zeta
        # f^(st) = (f^s)^t, with a 3-cycle st so that the order shows.
        t = transposition(*rng.sample(range(1, 19), 2), 18)
        assert m.act(compose(sigma, t)) == acted.act(t)


@pytest.mark.parametrize("grid", ["paper", (3, 3), (3, 4), (4, 4), (5, 5)],
                         ids=["paper", "3x3", "3x4", "4x4", "5x5"])
def test_chord_exponents_sum_to_zero_over_the_planes(paper, grid):
    # A chord letter enters an image at its tail and leaves, inverted, at its
    # head, so the reduced model needs no central block per chord.
    if grid == "paper":
        span, graph = paper.span, paper.graph
    else:
        graph = dual_graph(build_torus_triangulation(*grid))
        span = spanning_data(graph, "canonical")
    edges = sorted(graph.edges)
    rng = random.Random(str(grid))
    for _ in range(300):
        w = tuple(rng.choice(edges) * rng.choice((1, -1)) for _ in range(rng.randint(0, 60)))
        exact = word_action(w, span, graph)
        sums = Counter()
        for word in exact[1].values():
            for x in word:
                sums[abs(x)] += 1 if x > 0 else -1
        assert set(sums.values()) <= {0}, w
        reduced = rho_hat(exact, span).part
        assert sum(reduced.a.values()) == sum(reduced.b.values()) == 0, w


def test_rho_hat_is_multiplicative(paper, paper_phi):
    rng = random.Random(29)
    for _ in range(40):
        w1 = tuple(rng.randint(1, 27) for _ in range(rng.randint(0, 8)))
        w2 = tuple(rng.randint(1, 27) for _ in range(rng.randint(0, 8)))
        x, y = oracle.evaluate(w1, paper_phi, 18), oracle.evaluate(w2, paper_phi, 18)
        product = rho_hat(word_action(w1 + w2, paper.span, paper.graph), paper.span)
        assert product == oracle.reduced(oracle.mul(x, y), paper.span)
        assert product == rho_hat(oracle.sparse(x), paper.span) * rho_hat(oracle.sparse(y), paper.span)


def test_center_witness(paper):
    witness = center_witness(paper.span, paper.graph)
    assert witness.value.part.zeta in (1, -1)
    assert witness.value.sigma == identity()
    assert witness.tau_images == {"tau1": (2, 7), "tau2": (7, 10),
                                  "tau3": (1, 7), "tau4": (1, 3)}


def test_tau_images_are_read_off_the_sparse_action(paper, paper_phi, monkeypatch):
    """A conjugating word maps to the two planes its sigma swaps only when it
    moves exactly two planes and writes no coordinate, as the dense image
    from the oracle decides: a chord, a 3-cycle and the identity give None."""
    tree = paper.span.tree_edges
    x, y = next((x, y) for x in tree for y in tree
                if x < y and set(paper.graph.edges[x]) & set(paper.graph.edges[y]))
    words = {**witness_words(), "tree_edge": (x,), "chord": (1,), "three_cycle": (x, y), "kernel": (1, 1)}
    monkeypatch.setattr(model, "witness_words", lambda: words)
    got = center_witness(paper.span, paper.graph).tau_images
    for name, word in words.items():
        dense = oracle.evaluate(word, paper_phi, 18)
        moved = [i for i, image in enumerate(dense.sigma.images, start=1) if i != image]
        expected = tuple(moved) if len(moved) == 2 and dense.part.is_identity() else None
        assert got[name] == expected, name
    assert got["tree_edge"] == tuple(sorted(paper.graph.edges[x]))
    assert got["chord"] is got["three_cycle"] is got["kernel"] is None


def test_center_witness_word_is_a_commutator_shape():
    word = center_witness_word()
    taus = witness_words()
    first = taus["tau1"] + (1,)
    middle = tuple(reversed(taus["tau3"])) + taus["tau4"] + (4,) + taus["tau3"]
    assert word == tuple(reversed(first)) + tuple(reversed(middle)) + first + middle


def test_witness_commutes_with_every_generator_image(paper, paper_phi):
    z = SemidirectElement(identity(), ReducedElement({}, {}, 1))
    for e in sorted(paper.graph.edges):
        g = rho_hat(oracle.sparse(paper_phi[e]), paper.span)
        assert g == oracle.reduced(paper_phi[e], paper.span)
        assert z * g == g * z


def test_noncentral_kernel_element_moves():
    m = SemidirectElement(identity(), ReducedElement({1: 1, 2: -1}, {}, 0))
    t = SemidirectElement(transposition(1, 2, 18), oracle.REDUCED_IDENTITY)
    assert not m.commutes_with(t)


_TRANSPOSITIONS = [SemidirectElement(transposition(i, j, 18), oracle.REDUCED_IDENTITY)
                   for i in range(1, 19) for j in range(i + 1, 19)]
_constant = st.integers(-5, 5).map(lambda c: (c,) * 18)
_nearly_constant = st.builds(lambda v, i, d: v[:i] + (v[i] + d,) + v[i + 1:],
                             _constant, st.integers(0, 17), st.sampled_from((-1, 1)))
_any_vector = st.one_of(_vectors, _constant, _nearly_constant)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(st.one_of(
    st.integers(0, 2**32).map(lambda seed: oracle.dense(random_kernel_element(random.Random(seed), 18), 18)),
    st.builds(oracle.Reduced, _any_vector, _any_vector, st.integers(-9, 9)),
    st.integers(-9, 9).map(lambda power: oracle.Reduced.z(18, power))))
def test_permutation_invariance_decides_commuting_with_transpositions(d):
    # The structure suite's semidirect-law test against the products with
    # all 153 transpositions: (1, m) moves under some (t, 1) exactly when
    # a or b is not constant over the 18 planes.
    m = d.sparse()
    elem = SemidirectElement(identity(), m)
    moved = any(not elem.commutes_with(t) for t in _TRANSPOSITIONS)
    assert (not m.is_permutation_invariant(18)) == moved
    assert m.is_permutation_invariant(18) == d.is_permutation_invariant()


def test_permutation_invariance_reads_the_unwritten_planes():
    # An exponent written at one plane leaves 0 at the others; a constant
    # nonzero exponent writes every plane of the width it is read at.
    everywhere = {i: 2 for i in range(1, 19)}
    assert not ReducedElement({1: 1}, {}, 0).is_permutation_invariant(18)
    assert not ReducedElement({}, {18: -3}, 0).is_permutation_invariant(18)
    assert ReducedElement(everywhere, {}, 5).is_permutation_invariant(18)
    assert not ReducedElement(everywhere, {}, 5).is_permutation_invariant(19)
    assert ReducedElement({}, {}, 5).is_permutation_invariant(19)


def test_random_kernel_element_sampling_law():
    rng = random.Random(41)
    sparse = [random_kernel_element(rng, 18) for _ in range(600)]
    assert all(0 not in m.a.values() and 0 not in m.b.values() for m in sparse)
    samples = [oracle.dense(m, 18) for m in sparse]
    for m in samples:
        assert len(m.a) == len(m.b) == 18 and sum(m.a) == sum(m.b) == 0
        assert all(-5 <= x <= 5 for x in m.a[:17] + m.b[:17] + (m.zeta,))
    # Every uniform entry takes each of its 11 values.
    for pick in (lambda m: m.a[0], lambda m: m.a[16], lambda m: m.b[0],
                 lambda m: m.b[16], lambda m: m.zeta):
        assert {pick(m) for m in samples} == set(range(-5, 6))
    assert [random_kernel_element(random.Random(7), 18) for _ in range(2)] == \
        [random_kernel_element(random.Random(7), 18)] * 2


def test_structure_suite_multiplies_no_semidirect_elements(paper, monkeypatch):
    # The transposition test reads a and b; it builds no permutation and
    # forms no semidirect product.
    def refuse(*args):
        raise AssertionError("semidirect product in the structure suite")

    monkeypatch.setattr(SemidirectElement, "__mul__", refuse)
    monkeypatch.setattr(verify, "identity", refuse)
    report = verify.run_suite(paper.x0, "structure")
    entry = next(e for e in report.entries if e.name == "structure.noncentral_kernel_elements")
    assert (entry.status, entry.value) == ("pass", {"samples": 120, "moved": 120})


EXACT_UNIT = oracle.sparse(oracle.unit(18))


def _reduced_model_calls(paper):
    """rho_hat, relator_report and center_witness, each on a span of the caller's."""
    return [lambda span: rho_hat(EXACT_UNIT, span),
            lambda span: relator_report([(1, 1)], span, paper.graph),
            lambda span: center_witness(span, paper.graph)]


def test_rho_hat_rejects_a_plane_outside_the_published_complex(paper):
    # The published span read against the 4x6 grid: line 5 is a tree edge
    # there, joining planes 10 and 45.
    grid = dual_graph(build_torus_triangulation(4, 6))
    exact = word_action((5,), paper.span, grid)
    assert exact == ({10: 45, 45: 10}, {})
    with pytest.raises(ValueError, match=r"^the span has planes 1\.\.18, got 45$"):
        rho_hat(exact, paper.span)
    with pytest.raises(ValueError, match=r"^the span has planes 1\.\.18, got 0$"):
        rho_hat(({0: 1, 1: 0}, {}), paper.span)
    # A grid span names its own planes.
    grid_span = spanning_data(grid, "canonical")
    with pytest.raises(ValueError, match=r"^the span has planes 1\.\.48, got 49$"):
        rho_hat(({49: 1, 1: 49}, {}), grid_span)


def test_hand_built_published_span_reduces_like_the_loaded_one(paper):
    # The published tree and chord orientations from the fixture file and
    # the weights from the published table, not from the paper-fixture loader.
    data = fixtures.load_json("t0_spanning.json")
    forged = SpanningData(tree_edges=data["tree"], chords={
        ch["line"]: Chord(**ch, weight=oracle.PUBLISHED_WEIGHTS[ch["index"]]) for ch in data["chords"]})
    assert (forged.tree_edges, forged.chords) == (paper.span.tree_edges, paper.span.chords)
    for call in _reduced_model_calls(paper):
        assert call(forged) == call(paper.span)
    rng = random.Random(467)
    for _ in range(200):
        w = tuple(rng.randint(1, 27) for _ in range(rng.randint(0, 30)))
        assert rho_hat(word_action(w, forged, paper.graph), forged) == \
            rho_hat(word_action(w, paper.span, paper.graph), paper.span), w


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
    first, published = span.chords[chord["line"]], paper.span.chords[chord["line"]]
    assert (first.line, first.tail, first.head) == (chord["line"], chord["tail"], chord["head"])
    assert (first.tail, first.head) == (published.head, published.tail)
    # The reversed chord winds the other way round the torus.
    assert first.weight == tuple(-x for x in published.weight) != (0, 0)
    rho_hat(EXACT_UNIT, span)


def test_reduced_element_json():
    m = ReducedElement({1: 1}, {}, 0) * ReducedElement({}, {1: 1}, 0) * ReducedElement({}, {}, 2)
    assert m == ReducedElement({1: 1}, {1: 1}, 2)
    data = m.to_json(18)
    assert data == {"a": [1] + [0] * 17, "b": [1] + [0] * 17, "zeta": 2}
    assert list(data) == ["a", "b", "zeta"]


def test_exact_layer_relator_suite(paper, paper_phi):
    quotient = generate(paper.graph, paper.links, "quotient")
    coxeter = quotient.squares + quotient.commutations + quotient.braids + quotient.forks
    for w in coxeter:
        assert oracle.evaluate(w, paper_phi, 18).is_identity()
        assert word_is_identity(w, paper.span, paper.graph)


def test_reduced_layer_full_suite(paper, paper_phi):
    quotient = generate(paper.graph, paper.links, "quotient")
    for w in quotient.relator_words() + list(ax_fixture().values()):
        v = evaluate_word_semidirect(w, paper.span, paper.graph, paper_phi)
        assert rho_hat(v, paper.span).is_identity()


def test_relator_report_records(paper):
    records = relator_report([ax_fixture()["AX1"], (1,)], paper.span, paper.graph)
    assert records[0]["status"] == "pass"
    assert records[1]["status"] == "fail"
    assert records[1]["value"]["sigma"] != list(range(1, 19))
    assert records[0]["relator"] == list(ax_fixture()["AX1"])


# -- the support lemma ---------------------------------------------------------

def _coxeter(p):
    return p.squares + p.commutations + p.braids + p.forks


def _misplaced(span, graph, which):
    """span with chord number `which` (mod the chord count) moved off its
    edge: its head goes to the next plane, so its image is still an
    involution but its support is not the edge's two planes."""
    chords = dict(span.chords)
    ch = list(chords.values())[which % len(chords)]
    planes = sorted(graph.vertices)
    head = next(v for v in planes[planes.index(ch.head) + 1:] + planes if v not in (ch.tail, ch.head))
    chords[ch.line] = Chord(ch.index, ch.line, ch.tail, head, ch.weight)
    return SpanningData(tree_edges=span.tree_edges, chords=chords)


def _lemma_agrees_with_evaluation(x0, graph, span, dense_too):
    p = generate(graph, hexagon_links(x0), "quotient")
    expected = [w for w in _coxeter(p) if not word_is_identity(w, span, graph)]
    assert model.coxeter_failures(p, span, graph) == expected
    if dense_too:
        table, n = oracle.phi_table(span, graph), len(graph.vertices)
        assert expected == [w for w in _coxeter(p)
                            if not oracle.evaluate(w, table, n).is_identity()]
    return p, expected


@pytest.mark.parametrize("rows,cols", [(0, 0), (4, 3), (3, 8), (6, 6)])
def test_coxeter_failures_equal_evaluating_every_relator(paper, rows, cols):
    """On the published span and the canonical grid spans nothing fails, as
    the suite reports; with a chord moved off its edge some commutations
    fail.  Both times the lemma, the sparse evaluation of every word and the
    dense reference agree."""
    if rows:
        x0 = build_torus_triangulation(rows, cols)
        graph = dual_graph(x0)
        span = spanning_data(graph, "canonical")
    else:
        x0, graph, span = paper.x0, paper.graph, paper.span
    report = verify.run_suite(x0, "relators")
    entry = next(e for e in report.entries if e.name == "relators.coxeter_identity")
    p, expected = _lemma_agrees_with_evaluation(x0, graph, span, dense_too=True)
    assert expected == [] and entry.value == {"checked": len(_coxeter(p)), "failed": 0}
    _, expected = _lemma_agrees_with_evaluation(x0, graph, _misplaced(span, graph, 0), dense_too=True)
    assert any(w in p.commutations for w in expected)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(rows=st.integers(3, 6), cols=st.integers(3, 6), which=st.integers(-1, 200))
def test_coxeter_failures_on_grids_property(rows, cols, which):
    x0 = build_torus_triangulation(rows, cols)
    graph = dual_graph(x0)
    span = spanning_data(graph, "canonical")
    if which >= 0:
        span = _misplaced(span, graph, which)
    _lemma_agrees_with_evaluation(x0, graph, span, dense_too=False)


@pytest.mark.parametrize("rows,cols", [(0, 0), (3, 3), (4, 6), (8, 3), (8, 8)])
def test_commutations_are_the_line_pairs_that_share_no_plane(paper, rows, cols):
    """Derived from the squares and braids, the commutations are exactly the
    pairs of lines with no common plane, in combinations order, and the
    census counts them without building them."""
    if rows:
        x0 = build_torus_triangulation(rows, cols)
        graph, links = dual_graph(x0), hexagon_links(x0)
    else:
        graph, links = paper.graph, paper.links
    p = generate(graph, links, "quotient")
    lines = sorted(graph.edges)
    apart = [(i, j) * 2 for k, i in enumerate(lines) for j in lines[k + 1:]
             if not set(graph.edges[i]) & set(graph.edges[j])]
    assert p.counts()["commutations"] == len(apart)
    assert "commutations" not in vars(p)
    assert p.commutations == apart


def test_relators_suite_never_builds_the_commutations_on_a_grid(monkeypatch):
    def unbuilt(self):
        raise AssertionError("the commutation list was read")

    monkeypatch.setattr(presentation.Presentation, "commutations", property(unbuilt))
    report = verify.run_suite(build_torus_triangulation(16, 16), "relators")
    assert not report.failed()
    entries = {e.name: e.value for e in report.entries}
    assert entries["relators.coxeter_identity"] == {"checked": 296832, "failed": 0}


def test_relators_suite_memory_stays_linear_in_the_lines():
    """The 16x16 suite without the commutation list: 768 lines, 292,992
    commutations, and a tracemalloc peak far below what the list needs."""
    tracemalloc.start()
    try:
        report = verify.run_suite(build_torus_triangulation(16, 16), "relators")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.failed()
    assert peak < 4 * 2**20, peak


def test_broken_square_sends_its_commutations_back_to_evaluation(monkeypatch):
    x0 = build_torus_triangulation(4, 3)
    graph = dual_graph(x0)
    span = spanning_data(graph, "canonical")
    p = generate(graph, hexagon_links(x0), "quotient")
    line = p.commutations[0][0]
    real = model.word_action
    seen = []

    def square_broken(word, span, graph):
        seen.append(tuple(word))
        if tuple(word) == (line, line):
            return {}, {1: [1]}
        return real(word, span, graph)

    monkeypatch.setattr(model, "word_action", square_broken)
    expected = [w for w in _coxeter(p) if not word_is_identity(w, span, graph)]
    seen.clear()
    assert model.coxeter_failures(p, span, graph) == expected == [(line, line)]
    own = [w for w in p.commutations if line in w]
    assert own and [w for w in seen if w in p.commutations] == own


def test_relators_suite_evaluates_no_commutation_on_a_grid(monkeypatch):
    """A deterministic work guard: the support of each line plus one
    evaluation per square, braid, fork and cycle, and none per commutation."""
    x0 = build_torus_triangulation(6, 6)
    real = model.word_action
    calls = []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(model, "word_action", counted)
    report = verify.run_suite(x0, "relators")
    counts = next(e.value for e in report.entries if e.name == "relators.counts")
    lines = len(dual_graph(x0).edges)
    assert not report.failed()
    assert len(calls) <= lines + counts["squares"] + counts["braids"] + counts["forks"] + counts["cycles"]


def test_relators_suite_counts_no_nontrivial_cycle_under_a_chordless_span():
    """A span whose tree holds every line has no chords, so every exact
    image has empty coordinates: the cycles still lie in the kernel, but
    none is nontrivial before the reduction, and only that entry fails."""
    x0 = build_torus_triangulation(4, 3)
    ctx = verify._Context(x0, paper=False)
    ctx.span = SpanningData(tree_edges=list(ctx.graph.edges), chords={})
    rep = verify.Report(command="verify:relators")
    verify._suite_relators(ctx, rep)
    entries = {e.name: (e.status, e.value) for e in rep.entries}
    assert len(ctx.links) == 12
    assert entries["relators.cycles_nontrivial_before_reduction"] == ("fail", 0)
    assert entries["relators.cycles_in_kernel"] == ("pass", 12)
    assert entries["relators.counts"][0] == entries["relators.coxeter_identity"][0] == "pass"
    assert sorted(entries) == ["relators.counts", "relators.coxeter_identity",
                               "relators.cycles_in_kernel", "relators.cycles_nontrivial_before_reduction"]


def test_relators_suite_fails_both_reduced_entries_under_a_wrong_chord_weight(paper):
    """The published span with chord 1 weighed (1, 1), not (1, 0): every
    Coxeter relator still holds in the exact model, but the hexagon relators
    no longer reduce to the identity, so both reduced entries fail."""
    ctx = verify._Context(paper.x0, paper=True)
    line, chord = next(iter(paper.span.chords.items()))
    assert (chord.index, chord.weight) == (1, (1, 0))
    ctx.span = replace(paper.span, chords={**paper.span.chords, line: replace(chord, weight=(1, 1))})
    rep = verify.Report(command="verify:relators")
    verify._suite_relators(ctx, rep)
    status = {e.name: e.status for e in rep.entries}
    assert status["relators.reduced_identity"] == status["relators.cycle_orientations_agree"] == "fail"
    assert status["relators.coxeter_identity"] == status["relators.cycles_in_kernel"] == "pass"


def test_run_suite_rejects_an_unknown_suite(paper):
    # The command line offers only the known suites; a direct caller gets the raise.
    with pytest.raises(ValueError, match="unknown suite 'weights'"):
        verify.run_suite(paper.x0, "weights")


# -- the chord weights ---------------------------------------------------------

def _canonical(rows, cols):
    x0 = build_torus_triangulation(rows, cols)
    graph = dual_graph(x0)
    return x0, graph, spanning_data(graph, "canonical")


def _every_relator_reduces_to_the_identity(x0, graph, span):
    """The commutations act trivially already in the exact model, as
    coxeter_failures decides, so they reduce to the identity; every square,
    braid, fork and cycle is reduced by rho_hat."""
    p = generate(graph, hexagon_links(x0), "quotient")
    assert model.coxeter_failures(p, span, graph) == []
    failed = [w for w in p.squares + p.braids + p.forks + p.cycles
              if not rho_hat(word_action(w, span, graph), span).is_identity()]
    assert failed == []


@pytest.mark.parametrize("rows,cols", list(product(range(3, 9), repeat=2)) + [(32, 32)])
def test_every_relator_reduces_to_the_identity_on_grids(rows, cols):
    x0, graph, span = _canonical(rows, cols)
    _every_relator_reduces_to_the_identity(x0, graph, span)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(rows=st.integers(3, 12), cols=st.integers(3, 12))
def test_every_relator_reduces_to_the_identity_on_grids_property(rows, cols):
    _every_relator_reduces_to_the_identity(*_canonical(rows, cols))


@pytest.mark.parametrize("grid", ["paper", *product(range(3, 9), repeat=2)],
                         ids=lambda g: g if g == "paper" else "x".join(map(str, g)))
def test_weights_span_the_kernel_of_the_hexagon_exponents(paper, grid):
    """Each coordinate word that a hexagon relator leaves gives one row of
    chord exponent sums.  Over Q those rows have a kernel of dimension 2,
    the first cohomology of the torus, and the chord weights span it."""
    if grid == "paper":
        x0, graph, span = paper.x0, paper.graph, paper.span
    else:
        x0, graph, span = _canonical(*grid)
    t = len(span.chords)
    rows = []
    for link in hexagon_links(x0):
        for word in word_action(cycle_relator(link.cycle), span, graph)[1].values():
            row = [0] * t
            for x in word:
                row[abs(x) - 1] += 1 if x > 0 else -1
            rows.append(row)

    def matrix(entries):
        return DomainMatrix([[ZZ(v) for v in row] for row in entries], (len(entries), t), ZZ).convert_to(QQ)

    weights = matrix([[ch.weight[k] for ch in sorted(span.chords.values(), key=lambda ch: ch.index)]
                      for k in (0, 1)])
    exponents = matrix(rows)
    assert t - exponents.rank() == weights.rank() == 2
    assert (exponents * weights.transpose()).is_zero_matrix
