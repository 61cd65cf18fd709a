import hashlib
import json
import math
import random
import tracemalloc
from collections import deque

import pytest

from coxlab.cosets import (DEFAULT_CAPACITY, EnumerationResult, _find, _standardize, _unify,
                           check_result, enumerate_cosets)
from coxlab.fixtures import load_json
from coxlab.perm import compose, identity, transposition
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
    assert len(graph.walk(graph.edges)) == len(graph.vertices) - 1
    images = {e: transposition(*graph.edges[e], 6) for e in graph.edges}
    for w in pres.relator_words():
        acc = identity()
        for letter in w:
            acc = compose(acc, images[letter])
        assert acc == identity()


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



@pytest.mark.parametrize("malform,subgroup", [
    pytest.param(lambda n, table: (n, [row[:-1] for row in table]), (), id="rows_short_of_ngens"),
    pytest.param(lambda n, table: (n, [row + [1] for row in table]), (), id="rows_with_extra_column"),
    pytest.param(lambda n, table: (n, table[:-1]), (), id="fewer_rows_than_index"),
    pytest.param(lambda n, table: (n, [[0] + row[1:] for row in table]), (), id="entry_outside_1_to_index"),
    pytest.param(lambda n, table: (n, [[float(x) for x in row] for row in table]), (), id="entries_not_int"),
    pytest.param(lambda n, table: (n, [[table[c % n][0]] + row[1:] for c, row in enumerate(table, 1)]), (),
                 id="generator_not_an_involution"),
    pytest.param(lambda n, table: (n, [[c] + row[1:] for c, row in enumerate(table, 1)]), (),
                 id="involution_breaking_a_relator"),
    pytest.param(lambda n, table: (0, []), (), id="no_coset_at_all"),
    pytest.param(lambda n, table: (0, []), [(1,)], id="no_coset_for_the_subgroup_word")])
def test_check_result_rejects_malformed_tables(malform, subgroup):
    data = load_json("s4_remark.json")
    result = enumerate_cosets(data["generators"], data["relators"])
    index, table = malform(result.index, result.table)
    bad = EnumerationResult("finite", index, result.allocated, table)
    assert check_result(bad, data["generators"], data["relators"], subgroup) is False


def test_check_result_rejects_a_table_with_two_orbits():
    # <x | x^2> over the trivial subgroup has index 2.  Two copies of its
    # table claim index 4: x permutes the rows and every relator and
    # subgroup word holds, but coset 1 never reaches rows 3 and 4.
    two_orbits = EnumerationResult("finite", 4, 4, [[2], [1], [4], [3]])
    assert check_result(two_orbits, 1, [(1, 1)]) is False
    assert check_result(EnumerationResult("finite", 2, 2, [[2], [1]]), 1, [(1, 1)]) is True
    assert enumerate_cosets(1, [(1, 1)]).table == [[2], [1]]


@pytest.mark.parametrize("letter", [0, 4])
def test_check_result_rejects_letters_outside_the_generators(letter):
    data = load_json("s4_remark.json")
    result = enumerate_cosets(data["generators"], data["relators"])
    assert check_result(result, data["generators"], data["relators"] + [[letter, letter]]) is False
    assert check_result(result, data["generators"], data["relators"], [(letter,)]) is False

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
    assert check_result(result, 2, []) is False


def _digest(table):
    return None if table is None else hashlib.sha256(json.dumps(table).encode()).hexdigest()


# The enumerator's definition order fixes how many cosets it allocates and,
# through the coincidences met on the way, which standardized table comes
# out; these values must not move when the enumerator is reworked.
@pytest.mark.parametrize("name,allocated,digest", [
    ("s4_remark.json", 53, "86df0317cabe22d23cf0cde3ddd0299da31b05ee94bf2148409042f475b74a4f"),
    ("hexagon_quotient.json", 5225,
     "9e272f1f78180503ed3bcf94a712fc53e3c0e0e05769ab5697034626d2dbf45e")])
def test_fixture_enumerations_are_pinned(name, allocated, digest):
    data = load_json(name)
    result = enumerate_cosets(data["generators"], data["relators"])
    assert result.allocated == allocated and _digest(result.table) == digest


PINNED_FIXTURES = ("s4_remark.json", "hexagon_quotient.json", "hexagon_affine.json")
PINNED_CAPACITIES = (50, 200, 1000, 5000, 20000, 10 ** 6)


def _pinned_cases(count=30, seed=2004):
    """Seeded (fixture, subgroup words, capacity) cases; only rng.random() is
    drawn, whose stream is stable across Python versions."""
    rng = random.Random(seed)

    def pick(n):
        return int(rng.random() * n)

    cases = []
    for k in range(count):
        name = PINNED_FIXTURES[k % 3]
        ngens = load_json(name)["generators"]
        words = tuple(tuple(pick(ngens) + 1 for _ in range(1 + pick(4))) for _ in range(pick(6)))
        # The affine group is infinite: a 10^6 cap would take seconds per case.
        caps = PINNED_CAPACITIES[:-1] if name == "hexagon_affine.json" else PINNED_CAPACITIES
        cases.append((name, words, caps[pick(len(caps))]))
    return cases


# (status, index, allocated, table digest) of each case above.
PINNED_OUTCOMES = [
    ("finite", 1, 11, "0a5d5e44406e47a9edfb8c3ad7530dc5e3546611351cd6f7383a12da28ef2bbb"),
    ("capacity-exceeded", None, 5000, None),
    ("capacity-exceeded", None, 1000, None),
    ("finite", 4, 22, "9ab8cfe16ff2143e34b8ab36b7699707bdb941825bdf26529448a7d2b005ee27"),
    ("finite", 6, 116, "442a99eec095fb05077e275ad189d50d8394c26bff89ccf99aade23010914e90"),
    ("finite", 1, 47, "f1d5d275ef30d7802429c3c556276b3d0e73c73de60ab5478f64db1e94ce35a8"),
    ("finite", 6, 24, "e654f41237052313c6ae5b4f5969c40fc910b4b8d7d5371b4289dbc42e1cf62e"),
    ("finite", 720, 5225, "9e272f1f78180503ed3bcf94a712fc53e3c0e0e05769ab5697034626d2dbf45e"),
    ("capacity-exceeded", None, 20000, None),
    ("finite", 12, 36, "a1a939b1fd646de8f1832d01670b53823a971e3630ea8da46aa17812d50461bd"),
    ("finite", 45, 387, "8188b939217b3b247c6dc0e81479f8294c710e861d73c17495a5bc61a7eb84b6"),
    ("capacity-exceeded", None, 1000, None),
    ("finite", 1, 6, "0a5d5e44406e47a9edfb8c3ad7530dc5e3546611351cd6f7383a12da28ef2bbb"),
    ("finite", 1, 16, "f1d5d275ef30d7802429c3c556276b3d0e73c73de60ab5478f64db1e94ce35a8"),
    ("finite", 1, 31, "f1d5d275ef30d7802429c3c556276b3d0e73c73de60ab5478f64db1e94ce35a8"),
    ("finite", 12, 39, "b3b0e41c26beab5b68b862cfd56430d6bbfae4c6db54449470ac15206f5a9bba"),
    ("finite", 360, 2871, "49aec2a3701a80c5368b3844540dead9b37c89a9e0ad1d40138c0046f69dd8e4"),
    ("capacity-exceeded", None, 1000, None),
    ("finite", 12, 40, "50e8085a414f7d4a77c9727b7df4430478b8f8bce62d658dcbfca4496be0bdb8"),
    ("finite", 1, 16, "f1d5d275ef30d7802429c3c556276b3d0e73c73de60ab5478f64db1e94ce35a8"),
    ("finite", 2, 79, "904bd2835b477c04b13cecc5b623b7bdd05378fe9bcd21c34c31f2e9941d7dbe"),
    ("finite", 1, 4, "0a5d5e44406e47a9edfb8c3ad7530dc5e3546611351cd6f7383a12da28ef2bbb"),
    ("capacity-exceeded", None, 50, None),
    ("capacity-exceeded", None, 20000, None),
    ("finite", 24, 53, "86df0317cabe22d23cf0cde3ddd0299da31b05ee94bf2148409042f475b74a4f"),
    ("capacity-exceeded", None, 1000, None),
    ("capacity-exceeded", None, 200, None),
    ("finite", 6, 14, "221872e099a70c57404e7d26f54df98744a4b890317c25611c1434ae5d8e7699"),
    ("finite", 1, 38, "f1d5d275ef30d7802429c3c556276b3d0e73c73de60ab5478f64db1e94ce35a8"),
    ("capacity-exceeded", None, 5000, None),
]


@pytest.mark.parametrize("case,outcome", zip(_pinned_cases(), PINNED_OUTCOMES))
def test_seeded_enumerations_are_pinned(case, outcome):
    name, words, capacity = case
    data = load_json(name)
    result = enumerate_cosets(data["generators"], data["relators"], words, capacity)
    assert (result.status, result.index, result.allocated, _digest(result.table)) == outcome


def test_table_grows_per_coset_not_to_capacity():
    data = load_json("s4_remark.json")
    tracemalloc.start()
    try:
        enumerate_cosets(data["generators"], data["relators"], capacity=DEFAULT_CAPACITY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


def test_table_is_never_larger_than_the_cap():
    # No more rows are stored than the cap allows, so with many generators
    # and a small cap no column is sized for a large enumeration.
    tracemalloc.start()
    try:
        result = enumerate_cosets(10 ** 4, [], capacity=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "capacity-exceeded"
    assert peak < 10 ** 7


def test_capacity_fires_at_the_same_definition():
    for name, allocated in (("s4_remark.json", 53), ("hexagon_quotient.json", 5225)):
        data = load_json(name)
        closed = enumerate_cosets(data["generators"], data["relators"], capacity=allocated)
        assert closed.status == "finite" and closed.allocated == allocated
        capped = enumerate_cosets(data["generators"], data["relators"], capacity=allocated - 1)
        assert capped.status == "capacity-exceeded" and capped.allocated == allocated - 1
    assert enumerate_cosets(1, [(1,)], capacity=1).status == "capacity-exceeded"
    single = enumerate_cosets(1, [(1,)], capacity=2)
    assert single.status == "finite" and single.index == 1 and single.allocated == 2


@pytest.mark.parametrize("rewrite", [
    pytest.param(lambda ngens, rels: [w for w in rels if not (len(w) == 2 and w[0] == w[1])],
                 id="without_squares"),
    pytest.param(lambda ngens, rels: rels + rels, id="doubled"),
    pytest.param(lambda ngens, rels: rels + [[g, g] for g in range(1, ngens + 1)],
                 id="squares_again")])
def test_redundant_relators_change_nothing(rewrite):
    data = load_json("hexagon_quotient.json")
    ngens, relators = data["generators"], data["relators"]
    assert any(len(w) == 2 and w[0] == w[1] for w in relators)
    base = enumerate_cosets(ngens, relators)
    result = enumerate_cosets(ngens, rewrite(ngens, relators))
    assert result.allocated == base.allocated == 5225 and result.table == base.table


# A frozen copy of the enumerator the pinned outcomes above were computed
# with: it traces every square as a relator word, keeps duplicate relators
# and re-resolves stale entries on every pass.  It shares no code with
# coxlab.cosets beyond the result record: its union-find and its
# renumbering are its own copies, which resolve the stale entries its
# tables keep.  The enumerator proper must match it exactly on every input.

def _reference_find(table, c):
    root = c
    while table[root] != -1:
        root = table[root]
    while c != root:
        table[c], c = root, table[c]
    return root


def _reference_standardize(table, width):
    order = {0: 1}
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for d in table[c + 1:c + width]:
            if d == -1:
                raise ValueError("closed table expected after successful enumeration")
            d = _reference_find(table, d)
            if d not in order:
                order[d] = len(order) + 1
                queue.append(d)
    if len(order) != table[::width].count(-1):
        raise ValueError("live cosets are not all reachable from the start")
    return [[order[_reference_find(table, d)] for d in table[c + 1:c + width]] for c in order]


def _reference_unify(table, ngens, c1, c2):
    pending = [(c1, c2)]
    while pending:
        a, b = pending.pop()
        a, b = _reference_find(table, a), _reference_find(table, b)
        if a == b:
            continue
        if b < a:
            a, b = b, a
        table[b] = a
        for g in range(1, ngens + 1):
            nb = table[b + g]
            if nb == -1:
                continue
            na = table[a + g]
            if na == -1:
                table[a + g] = nb
            else:
                pending.append((na, nb))


def _reference_scans(subs, rels, table, width):
    yield 0, subs
    scan = 0
    while scan < len(table):
        if table[scan] == -1:
            yield scan, rels
        scan += width


def _reference_enumerate(ngens, relators, subgroup_gens=(), capacity=DEFAULT_CAPACITY):
    rels = [tuple(map(abs, w)) for w in relators]
    subs = [tuple(map(abs, w)) for w in subgroup_gens]
    rels = [(g, g) for g in range(1, ngens + 1)] + rels
    width = ngens + 1
    blank = [-1] * width
    table = list(blank)
    for scan, words in _reference_scans(subs, rels, table, width):
        for word in words:
            c = scan if table[scan] == -1 else _reference_find(table, scan)
            for g in word:
                d = table[c + g]
                if d == -1:
                    d = len(table)
                    if d >= capacity * width:
                        return EnumerationResult(status="capacity-exceeded", index=None,
                                                 allocated=capacity, table=None)
                    table.extend(blank)
                    table[c + g] = d
                    table[d + g] = c
                elif table[d] != -1:
                    d = _reference_find(table, d)
                c = d
            if c != scan or table[scan] != -1:
                _reference_unify(table, ngens, c, scan)
    std = _reference_standardize(table, width)
    return EnumerationResult(status="finite", index=len(std),
                             allocated=len(table) // width, table=std)


DIFFERENTIAL_CAPACITIES = (1, 2, 5, 30, 200, 2000)


def _differential_cases(count=300, seed=13):
    """Seeded (ngens, relators, subgroup words, capacity) cases: Coxeter-type
    and arbitrary involutive presentations on 1 to 5 generators, with signed
    letters, explicit squares, duplicated relators and subgroup words with
    repeated letters.  Only rng.random() is drawn, as in _pinned_cases."""
    rng = random.Random(seed)

    def pick(n):
        return int(rng.random() * n)

    def letter(ngens):
        return (pick(ngens) + 1) * (-1 if rng.random() < 0.2 else 1)

    cases = []
    for k in range(count):
        ngens = 1 + pick(5)
        if k % 2:
            # Coxeter type, (ij)^m for each pair with m = 0 leaving it free;
            # mostly a chain of 3s beside commuting pairs, so often finite.
            orders = ((2, 2, 2, 2, 3, 0), (2, 3, 3, 3, 4, 5, 6, 0))
            relators = [(i, j) * m for i in range(1, ngens + 1) for j in range(i + 1, ngens + 1)
                        for m in [orders[j == i + 1][pick(6 + 2 * (j == i + 1))]] if m]
        else:
            relators = [tuple(letter(ngens) for _ in range(2 + pick(9))) for _ in range(pick(5))]
        relators += [(g, letter(1) * g) for g in range(1, ngens + 1) if rng.random() < 0.3]
        relators += [relators[pick(len(relators))] for _ in range(pick(3)) if relators]
        relators = [relators[i] for i in sorted(range(len(relators)), key=lambda _: rng.random())]
        subgroup = []
        for _ in range(pick(3)):
            word = [letter(ngens) for _ in range(1 + pick(4))]
            subgroup.append(tuple(word + word[:pick(len(word) + 1)]))
        cases.append((ngens, relators, subgroup, DIFFERENTIAL_CAPACITIES[pick(6)]))
    return cases


def _doubled_letter_case():
    """The affine hexagon group with its first two relators that are not
    squares prefixed by their doubled first letter: the same group, but the
    table first grows, at 2,048 rows, while a doubled-letter relator is
    defining cosets."""
    data = load_json("hexagon_affine.json")
    relators = [tuple(w) for w in data["relators"]]
    longer = [i for i, w in enumerate(relators) if len(w) > 2][:2]
    for i in longer:
        relators[i] = relators[i][:1] * 2 + relators[i]
    assert [relators[i] for i in longer] == [(1, 1, 1, 2, 1, 2, 1, 2), (1, 1, 1, 3, 1, 3)]
    return data["generators"], relators, [], 5000


def test_enumerator_matches_frozen_reference():
    outcomes = set()
    for ngens, relators, subgroup, capacity in _differential_cases() + [_doubled_letter_case()]:
        got = enumerate_cosets(ngens, relators, subgroup, capacity)
        want = _reference_enumerate(ngens, relators, subgroup, capacity)
        assert (got.status, got.index, got.allocated, got.table) == \
            (want.status, want.index, want.allocated, want.table), (ngens, relators, subgroup, capacity)
        outcomes.add(got.status)
    assert outcomes == {"finite", "capacity-exceeded"}


def _closing_subgroups(count=2, seed=17):
    """Seeded finite-index subgroups of the affine hexagon group: five of its
    six generators and the square of the translation through the sixth, a.
    The hexagon is the cycle 1-2-...-6-1, so with a = 6 the translation is
    6 times the reflection 1 2 3 4 5 4 3 2 1; the index is 2^5 = 32."""
    rng = random.Random(seed)
    subgroups = []
    for _ in range(count):
        a = int(rng.random() * 6)
        ring = [(a + j) % 6 + 1 for j in range(6)]
        translation = tuple(ring + ring[-2:0:-1])
        subgroups.append([(g,) for g in ring[1:]] + [translation * 2])
    return subgroups


def _sweep_capacities(name, subgroups):
    """Enumerate each subgroup of a fixture's group under every cap from 1
    to 400, or until the enumeration closes, against the frozen reference;
    return the index each sweep ends with."""
    data = load_json(name)
    ngens, relators = data["generators"], data["relators"]
    indices = []
    for subgroup in subgroups:
        for capacity in range(1, 401):
            got = enumerate_cosets(ngens, relators, subgroup, capacity)
            want = _reference_enumerate(ngens, relators, subgroup, capacity)
            assert (got.status, got.allocated) == (want.status, want.allocated), (subgroup, capacity)
            assert (got.index, got.table) == (want.index, want.table), (subgroup, capacity)
            if got.status == "finite":
                break
        indices.append(got.index)
    return indices


def test_capacity_fires_at_the_reference_definition_on_every_cap():
    # A cap met inside a trace must fire at the very definition the frozen
    # reference stops at, also where that definition is only counted.  On
    # the infinite group every cap is met; the finite-index subgroups close
    # after a few hundred cosets, so their sweep crosses the closing.  The
    # last subgroup never closes, and its traces fold back onto themselves.
    subgroups = [[]] + _closing_subgroups() + [[(1, 2, 3), (4, 5)]]
    assert _sweep_capacities("hexagon_affine.json", subgroups) == [None, 32, 32, None]


def test_capacity_fires_at_the_reference_definition_on_every_cap_of_the_quotient():
    # The same sweep where one relator, the hexagon cycle, is not dihedral
    # and so is traced at every coset.  The whole group needs more than 400
    # cosets; the two subgroups close after 95 and 370.
    subgroups = [[], [(1, 2), (3, 4)], [(1, 2, 1), (4, 5, 6)]]
    assert _sweep_capacities("hexagon_quotient.json", subgroups) == [None, 12, 6]


def _dihedral_cases(count=200, seed=31):
    """Seeded (ngens, relators, subgroup words, capacity) cases in which
    dihedral relators (x y)^m, some of them signed and some of length 2,
    stand beside relators that are never dihedral: a hexagon-style cycle
    word running out along a ring of generators and back, and odd
    alternating words x y x.  Drawn from their own seed, so the cases of
    _differential_cases stay as they are."""
    rng = random.Random(seed)

    def pick(n):
        return int(rng.random() * n)

    # Mostly a chain of 3s beside commuting pairs, as in a Coxeter diagram.
    orders = ((1, 2, 2, 2, 2, 2, 3, 0), (1, 2, 3, 3, 3, 4, 6, 0))
    cases = []
    for _ in range(count):
        ngens = 2 + pick(5)
        relators = []
        for i in range(1, ngens + 1):
            for j in range(i + 1, ngens + 1):
                m = orders[j == i + 1][pick(8)]
                if m:
                    x, y = (i, j) if rng.random() < 0.5 else (j, i)
                    relators.append((x, y * (-1 if rng.random() < 0.2 else 1)) * m)
        if rng.random() < 0.5:
            ring = sorted(range(1, ngens + 1), key=lambda _: rng.random())
            relators.append(tuple(ring + ring[-2:0:-1]))
        if rng.random() < 0.3:
            x, y = 1 + pick(ngens), 1 + pick(ngens)
            relators.append((x, y, x))
        relators = [relators[i] for i in sorted(range(len(relators)), key=lambda _: rng.random())]
        subgroup = []
        for _ in range(pick(3)):
            x, y = 1 + pick(ngens), 1 + pick(ngens)
            subgroup.append((x, y) * (1 + pick(3)) if rng.random() < 0.5
                            else tuple(1 + pick(ngens) for _ in range(1 + pick(5))))
        cases.append((ngens, relators, subgroup, (3, 40, 400, 4000)[pick(4)]))
    return cases


def test_dihedral_skips_match_frozen_reference():
    outcomes = set()
    for ngens, relators, subgroup, capacity in _dihedral_cases():
        got = enumerate_cosets(ngens, relators, subgroup, capacity)
        want = _reference_enumerate(ngens, relators, subgroup, capacity)
        assert (got.status, got.index, got.allocated, got.table) == \
            (want.status, want.index, want.allocated, want.table), (ngens, relators, subgroup, capacity)
        if got.index != 1:
            outcomes.add(got.status)
    assert outcomes == {"finite", "capacity-exceeded"}


def _parabolic_subgroups(count=4, seed=43):
    """Seeded subgroups of the affine hexagon group drawn as the cosets
    benchmark draws them: one to three words of one to five letters over
    five of the six generators.  Such words lie in a finite parabolic
    subgroup, of infinite index, so the enumeration meets every cap."""
    rng = random.Random(seed)

    def pick(n):
        return int(rng.random() * n)

    subgroups = []
    for _ in range(count):
        omitted = 1 + pick(6)
        letters = [g for g in range(1, 7) if g != omitted]
        subgroups.append([tuple(letters[pick(5)] for _ in range(1 + pick(5))) for _ in range(1 + pick(3))])
    return subgroups


@pytest.mark.parametrize("name", ["hexagon_affine.json", "hexagon_quotient.json"])
@pytest.mark.parametrize("subgroup,capacity", zip(_parabolic_subgroups(), (2000, 3000, 4000, 5000)))
def test_parabolic_subgroups_match_frozen_reference(name, subgroup, capacity):
    # The regime the cosets benchmark measures: many coincidences, no
    # closing, and the cap met in the middle of the scan.  A capped run
    # shows only where the cap fired, so the same subgroups of the finite
    # quotient, which close, compare whole tables as well.
    data = load_json(name)
    ngens, relators = data["generators"], data["relators"]
    got = enumerate_cosets(ngens, relators, subgroup, capacity)
    want = _reference_enumerate(ngens, relators, subgroup, capacity)
    assert (got.status, got.index, got.allocated, got.table) == \
        (want.status, want.index, want.allocated, want.table)
    if name == "hexagon_affine.json":
        assert (got.status, got.allocated) == ("capacity-exceeded", capacity)


def _random_involutive_columns(rng, ngens, size):
    """Columns of size live cosets, one per generator, on which each
    generator acts as a partial involution: c^g = d exactly when d^g = c."""
    cols = [[-1] * size for _ in range(ngens)]
    for col in cols:
        cosets = sorted(range(size), key=lambda _: rng.random())
        while len(cosets) > 1:
            u = rng.random()
            c = cosets.pop()
            if u < 0.2:
                continue                        # left undefined
            d = c if u < 0.35 else cosets.pop()
            col[c], col[d] = d, c
    return cols


def test_unify_leaves_no_dead_coset_named_and_every_entry_paired():
    rng = random.Random(61)
    for _ in range(40):
        ngens = 1 + int(rng.random() * 4)
        width = ngens + 1
        size = 20 + int(rng.random() * 30)
        cols = _random_involutive_columns(rng, ngens, size)
        link = [-1] * size
        # The same table laid out flat for the reference, which names coset
        # c by the offset c * width of its row.
        reference = [-1] * (width * size)
        for g, col in enumerate(cols, 1):
            for c, d in enumerate(col):
                reference[c * width + g] = d if d == -1 else d * width
        for _ in range(1 + int(rng.random() * 4)):
            live = [c for c in range(size) if link[c] == -1]
            if len(live) < 2:
                break
            c1, c2 = sorted(live, key=lambda _: rng.random())[:2]
            _unify(cols, link, c1, c2)
            _reference_unify(reference, ngens, c1 * width, c2 * width)
            live = {c for c in range(size) if link[c] == -1}
            for c in live:
                for col in cols:
                    d = col[c]
                    assert d == -1 or d in live
                    assert d == -1 or col[d] == c
            # The same classes, each kept by its smallest coset, with the
            # same rows up to the reference's stale entries.
            assert {c * width for c in live} == \
                {c for c in range(0, len(reference), width) if reference[c] == -1}
            for c in range(size):
                assert _find(link, c) * width == _reference_find(reference, c * width)
            for c in live:
                assert [col[c] for col in cols] == \
                    [d if d == -1 else _reference_find(reference, d) // width
                     for d in reference[c * width + 1:(c + 1) * width]]


@pytest.mark.parametrize("cols,message", [
    ([[1, -1]], "closed table expected"),           # coset 1 has no image yet
    ([[0, 1]], "not all reachable"),                # coset 0 never reaches coset 1
])
def test_standardize_rejects_a_table_no_enumeration_leaves(cols, message):
    with pytest.raises(ValueError, match=message):
        _standardize(cols, [-1, -1], 2)


def _assert_matches_reference(ngens, relators, subgroup=(), capacity=DEFAULT_CAPACITY):
    got = enumerate_cosets(ngens, relators, subgroup, capacity)
    want = _reference_enumerate(ngens, relators, subgroup, capacity)
    assert got.status == want.status
    assert got.index == want.index
    assert got.allocated == want.allocated
    assert got.table == want.table
    return got


@pytest.mark.parametrize("subgroup,index", [([], 5040), ([(1,)], 2520), ([(3,), (5,)], 1260)])
def test_enumeration_past_the_first_rows_matches_frozen_reference(subgroup, index):
    # The A_6 Coxeter presentation of S_7: the whole group stores about
    # 6,000 rows, more than the enumerator's first block of rows holds.
    ngens, relators = chain_coxeter(6)
    result = _assert_matches_reference(ngens, relators, subgroup)
    assert result.status == "finite" and result.index == index
    if not subgroup:
        assert result.allocated == 31122


@pytest.mark.parametrize("extra", [
    pytest.param([()], id="empty_relator"),
    pytest.param([(2,)], id="one_letter_relator"),
    pytest.param([(), (3,), (-1,)], id="both")])
@pytest.mark.parametrize("subgroup", [[], [()], [(1,)], [(2, 3)]])
def test_short_relators_match_frozen_reference(extra, subgroup):
    ngens, relators = chain_coxeter(3)
    _assert_matches_reference(ngens, relators + extra, subgroup)
    _assert_matches_reference(ngens, extra + relators, subgroup)
    _assert_matches_reference(ngens, extra, subgroup, capacity=200)


@pytest.mark.parametrize("relators", [[], [()]])
def test_no_generators_match_frozen_reference(relators):
    result = _assert_matches_reference(0, relators, [()])
    assert result.index == 1 and result.table == [[]]


@pytest.mark.parametrize("subgroup", [[], [(1, 2, 3)], [(1, 2, 3), (4, 5)]])
def test_capped_enumeration_stores_only_the_cosets_that_outlive_their_trace(subgroup):
    data = load_json("hexagon_affine.json")
    tracemalloc.start()
    try:
        result = enumerate_cosets(data["generators"], data["relators"], subgroup, capacity=20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "capacity-exceeded" and result.allocated == 20000
    assert peak < 10 ** 6
