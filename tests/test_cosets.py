import math

import pytest

from coxlab.cosets import check_result, enumerate_cosets
from coxlab.fixtures import load_json
from coxlab.perm import compose, generates_full_symmetric, identity, transposition
from coxlab.presentation import generate


def chain_coxeter(n):
    """Adjacent-braid presentation on n involutions (symmetric group shape)."""
    relators = [(i, i) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            relators.append((i, j) * (3 if j == i + 1 else 2))
    return n, relators


def test_three_involutions_with_triple_relations():
    data = load_json("s4_remark.json")
    result = enumerate_cosets(data["generators"], data["relators"])
    assert result.status == "finite" and result.index == 24
    assert check_result(result, data["generators"], data["relators"])


@pytest.mark.parametrize("n,order", [(3, 24), (5, 720)])
def test_chain_presentations_match_factorials(n, order):
    ngens, relators = chain_coxeter(n)
    result = enumerate_cosets(ngens, relators)
    assert result.index == order == math.factorial(n + 1)


def test_hexagon_with_cycle_is_finite_720(paper, hexagon_graph):
    graph, links = hexagon_graph
    pres = generate(graph, links, "quotient")
    result = enumerate_cosets(pres.generator_count, pres.relator_words())
    assert result.status == "finite" and result.index == 720
    assert check_result(result, pres.generator_count, pres.relator_words())

    # Independent lower bound: the edge-to-transposition map is a surjection
    # onto the symmetric group on the six surrounding vertices, and every
    # relator dies under it.
    images = {e: transposition(*graph.edges[e], 6) for e in graph.edges}
    assert generates_full_symmetric(list(images.values()))
    for w in pres.relator_words():
        acc = identity(6)
        for letter in w:
            acc = compose(acc, images[letter])
        assert acc.is_identity()


def test_hexagon_without_cycle_exceeds_capacity(hexagon_graph):
    graph, links = hexagon_graph
    pres = generate(graph, links, "plain")
    result = enumerate_cosets(pres.generator_count, pres.relator_words(), capacity=10 ** 5)
    assert result.status == "capacity-exceeded"
    assert result.index is None and result.table is None
    assert result.allocated == 10 ** 5


def test_enumeration_deterministic():
    data = load_json("hexagon_quotient.json")
    a = enumerate_cosets(data["generators"], data["relators"])
    b = enumerate_cosets(data["generators"], data["relators"])
    assert a.table == b.table and a.allocated == b.allocated


def test_subgroup_index():
    ngens, relators = chain_coxeter(3)
    # One involution generates an index-12 subgroup of the order-24 group;
    # the first two generate a copy of the order-6 parabolic, index 4.
    assert enumerate_cosets(ngens, relators, [(1,)]).index == 12
    assert enumerate_cosets(ngens, relators, [(1,), (2,)]).index == 4


def test_whole_group_as_subgroup():
    ngens, relators = chain_coxeter(3)
    result = enumerate_cosets(ngens, relators, [(1,), (2,), (3,)])
    assert result.index == 1


def test_relator_action_check_validates(paper):
    ngens, relators = chain_coxeter(3)
    result = enumerate_cosets(ngens, relators, [(1,)])
    assert check_result(result, ngens, relators, [(1,)])


def test_bad_generator_index_rejected():
    with pytest.raises(ValueError):
        enumerate_cosets(2, [(1, 3)])


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        enumerate_cosets(2, [(1, 1)], capacity=0)


def test_trivial_presentation():
    result = enumerate_cosets(1, [(1, 1), (1,)])
    assert result.index == 1


def test_unconstrained_involutions_are_inconclusive():
    # Two involutions with no other relation generate an infinite dihedral
    # group; the enumeration must report the cap, not a bogus index.
    result = enumerate_cosets(2, [], capacity=500)
    assert result.status == "capacity-exceeded"
