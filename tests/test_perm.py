import math
import random
from itertools import combinations

import oracle
import pytest
from conftest import connected, graph_of

from coxlab.perm import compose, identity, transposition


def test_transposition_swaps_and_fixes():
    # Only the two moved planes are stored; every other plane is fixed.
    assert transposition(2, 7, 18) == {2: 7, 7: 2}
    assert oracle.transposition(2, 7, 18).moved() == transposition(2, 7, 18)


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
    assert compose(t, t) == identity() == {}


def test_transposition_symmetric():
    assert transposition(4, 9, 12) == transposition(9, 4, 12)


@pytest.mark.parametrize("a,b,message", [(1, 1, "degenerate transposition"),
                                         (0, 3, "out of range 1..18"),
                                         (3, 19, "out of range 1..18")],
                         ids=["1-1", "0-3", "3-19"])
def test_transposition_rejects_bad_indices(a, b, message):
    with pytest.raises(ValueError, match=message):
        transposition(a, b, 18)


def test_compose_identity_neutral():
    p = transposition(5, 9, 10)
    assert compose(p, identity()) == p
    assert compose(identity(), p) == p


def test_compose_involution_cancels():
    t = transposition(1, 2, 3)
    assert compose(t, t) == identity()


def test_compose_two_transpositions_by_hand():
    # (1 2) after (2 3): trace every point through q then p.
    p, q = transposition(1, 2, 3), transposition(2, 3, 3)
    assert compose(p, q) == {1: 2, 2: 3, 3: 1}
    assert compose(q, p) == {1: 3, 3: 2, 2: 1}


def test_compose_degree_mismatch():
    # The sparse form has no degree; the dense reference checks it, since a
    # degree-4 permutation times a degree-3 one would otherwise pass the
    # image check as a permutation of 1..3.
    with pytest.raises(ValueError, match="degree mismatch"):
        oracle.identity(4) * oracle.identity(3)
    with pytest.raises(ValueError, match="not a permutation of 1..3"):
        oracle.Permutation((1, 1, 3))


def test_compose_associative_random():
    # Against the dense reference too, so the convention p(q(i)) is the one
    # the reference states, and no fixed point is ever stored.
    rng = random.Random(5)
    for _ in range(50):
        dense = [oracle.Permutation(tuple(rng.sample(range(1, 8), 7))) for _ in range(3)]
        ps = [d.moved() for d in dense]
        assert compose(compose(ps[0], ps[1]), ps[2]) == compose(ps[0], compose(ps[1], ps[2]))
        assert compose(ps[0], ps[1]) == (dense[0] * dense[1]).moved()
        assert all(i != j for i, j in compose(ps[0], ps[1]).items())


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
    # Closure by multiplication; fine for small degrees.  A dict is keyed
    # by its items, since it cannot be hashed.
    seen = {frozenset()}
    frontier = [identity()]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                prod = compose(p, g)
                if frozenset(prod.items()) not in seen:
                    seen.add(frozenset(prod.items()))
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
    # A report prints sigma as its images of 1..n; they read back as sigma.
    p = compose(transposition(2, 7, 18), transposition(7, 11, 18))
    images = [p.get(i, i) for i in range(1, 19)]
    assert oracle.Permutation(tuple(images)).moved() == p
