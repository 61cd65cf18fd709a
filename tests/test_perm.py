import math
import random
from itertools import combinations

import pytest
from conftest import connected, graph_of

from coxlab.perm import Permutation, compose, identity, transposition


def test_transposition_swaps_and_fixes():
    t = transposition(2, 7, 18).images
    assert t[2 - 1] == 7 and t[7 - 1] == 2
    assert all(t[i - 1] == i for i in range(1, 19) if i not in (2, 7))


def test_transposition_matches_first_witness_conjugate(paper):
    # sigma1^-1 . 14 . sigma1 with sigma1 = 21.19.8.6 lands on (2 7).
    from coxlab.complexes import psi_image, witness_words
    tau1 = psi_image(paper.x0, witness_words()["tau1"])
    assert tau1 == {2: 7, 7: 2}


def test_transposition_matches_fourth_witness_conjugate(paper):
    from coxlab.complexes import psi_image, witness_words
    tau4 = psi_image(paper.x0, witness_words()["tau4"])
    assert tau4 == {1: 3, 3: 1}


def test_transposition_is_involution():
    t = transposition(3, 11, 18)
    assert compose(t, t) == identity(18)


def test_transposition_symmetric():
    assert transposition(4, 9, 12) == transposition(9, 4, 12)


@pytest.mark.parametrize("a,b", [(1, 1), (0, 3), (3, 19)])
def test_transposition_rejects_bad_indices(a, b):
    with pytest.raises(ValueError):
        transposition(a, b, 18)


def test_compose_identity_neutral():
    p = transposition(5, 9, 10)
    assert compose(p, identity(10)) == p
    assert compose(identity(10), p) == p


def test_compose_involution_cancels():
    t = transposition(1, 2, 3)
    assert compose(t, t) == identity(3)


def test_compose_two_transpositions_by_hand():
    # (1 2) after (2 3): trace every point through q then p.
    p, q = transposition(1, 2, 3), transposition(2, 3, 3)
    expected = {1: 2, 2: 3, 3: 1}
    got = compose(p, q).images
    assert all(got[i - 1] == expected[i] for i in (1, 2, 3))


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_compose_associative_random():
    rng = random.Random(5)
    for _ in range(50):
        ps = [Permutation(tuple(rng.sample(range(1, 8), 7))) for _ in range(3)]
        assert compose(compose(ps[0], ps[1]), ps[2]) == compose(ps[0], compose(ps[1], ps[2]))


# Transpositions generate the full symmetric group exactly when the graph
# with an edge per transposition is connected; the brute-force test below
# checks that criterion against the closure order.

def test_generates_full_paper_lines(paper):
    assert connected(graph_of({line.id: line.planes for line in paper.x0.lines}))


def test_single_transposition_misses_s3():
    assert not connected(graph_of({1: (1, 2)}, range(1, 4)))


def test_spanning_tree_transpositions_generate(paper):
    tree = {e: paper.graph.edges[e] for e in paper.span.tree_edges}
    assert connected(graph_of(tree, paper.graph.vertices))


def _group_order(gens):
    # Closure by multiplication; fine for small degrees.
    seen = {identity(gens[0].degree).images}
    frontier = list(seen)
    while frontier:
        nxt = []
        for imgs in frontier:
            for g in gens:
                prod = compose(Permutation(imgs), g).images
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def test_connectivity_criterion_against_brute_force():
    rng = random.Random(7)
    for _ in range(12):
        n = rng.randint(3, 6)
        pairs = rng.sample(list(combinations(range(1, n + 1), 2)), rng.randint(1, n))
        gens = [transposition(a, b, n) for a, b in pairs]
        fast = connected(graph_of(dict(enumerate(pairs, start=1)), range(1, n + 1)))
        assert fast == (_group_order(gens) == math.factorial(n))


def test_json_round_trip():
    p = transposition(2, 7, 18)
    assert Permutation(tuple(p.to_json())) == p
