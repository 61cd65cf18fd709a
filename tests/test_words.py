import hashlib
import heapq
import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coxlab import model
from coxlab.presentation import ax_fixture, generate
from coxlab.words import (MAX_STATES, CleanReport, Derivation, canonical_form, clean,
                          derive_bounded, free_reduce_involutive,
                          reduce_with_commutations, rotations)

words_st = st.lists(st.integers(min_value=1, max_value=9), max_size=14).map(tuple)


@pytest.mark.parametrize("word,expected", [
    ((1, 1), ()),
    ((1, 2, 2, 1), ()),
    ((1, 13, 13, 22), (1, 22)),
])
def test_free_reduce_examples(word, expected):
    assert free_reduce_involutive(word) == expected


@given(words_st)
def test_free_reduce_idempotent_and_shrinking(w):
    once = free_reduce_involutive(w)
    assert free_reduce_involutive(once) == once
    assert len(once) <= len(w)
    assert all(a != b for a, b in zip(once, once[1:]))


def test_reduce_with_commutations_examples():
    assert reduce_with_commutations((1, 2, 1), {(1, 2)}) == (2,)
    assert reduce_with_commutations((1, 2, 1), {(2, 1)}) == (2,)
    assert reduce_with_commutations((1, 2, 1), frozenset({(1, 2)})) == (2,)
    assert reduce_with_commutations((1, 2, 1), set()) == (1, 2, 1)
    ax5 = ax_fixture()["AX5"]
    assert reduce_with_commutations(ax5, set()) == ax5


def test_canonical_form_rotation_and_reversal():
    assert canonical_form((1, 2, 3)) == canonical_form((2, 3, 1))
    assert canonical_form((1, 2, 3)) == canonical_form((3, 2, 1))


def test_canonical_ax7_rotated():
    ax7 = ax_fixture()["AX7"]
    rotated = ax7[4:] + ax7[:4]
    assert canonical_form(ax7) == canonical_form(rotated)


@given(words_st.filter(lambda w: free_reduce_involutive(w)), st.integers(0, 20))
def test_canonical_invariance(w, k):
    w = free_reduce_involutive(w)
    k %= len(w)
    assert canonical_form(w[k:] + w[:k]) == canonical_form(w)
    assert canonical_form(w[::-1]) == canonical_form(w)


def _orbit_minimum(w):
    # The definition: the least of all 2n rotations of w and of its reversal.
    return min((v[k:] + v[:k] for v in (w, w[::-1]) for k in range(len(w))), default=w)


@pytest.mark.parametrize("word", [(), (5,), (3, 3), (2, 1, 2, 1), (1, 2, 1, 3, 1, 2),
                                  (1, 2, 3, 2, 1), (4, 1, 4, 1, 4), (2, 1, 3, 1, 2, 1, 3, 1)])
def test_canonical_form_is_the_orbit_minimum_examples(word):
    # Repeated least letters, palindromes, and words of length 0 and 1.
    assert canonical_form(word) == _orbit_minimum(word)


@given(st.lists(st.integers(min_value=1, max_value=4), max_size=12).map(tuple))
def test_canonical_form_is_the_orbit_minimum(w):
    # Few letters, so the least letter repeats in most words.
    assert canonical_form(w) == _orbit_minimum(w)
    assert canonical_form(w + w[::-1]) == _orbit_minimum(w + w[::-1])


def test_clean_basic_classification():
    rep = clean([(1, 1), (1, 2, 1, 2)])
    assert rep.squares == {1}
    assert rep.commutations == {(1, 2)}
    assert not rep.misc


def test_clean_braid():
    rep = clean([(1, 2, 1, 2, 1, 2)])
    assert rep.braids == {(1, 2)}
    assert not rep.commutations and not rep.misc


def test_clean_feeds_discovered_commutations_back():
    # The second relator only collapses once the first commutation is known,
    # and then reveals a commutation of its own.
    rep = clean([(1, 2, 1, 2), (3, 1, 2, 1, 3, 2)])
    assert rep.commutations == {(1, 2), (2, 3)}
    assert not rep.misc
    assert rep.passes >= 2


def _clean_before_pair_powers(relators):
    """clean as it was before pair powers (i j i j) skipped the rewrite; frozen."""
    pending = [tuple(w) for w in relators]
    report = CleanReport()
    while True:
        report.passes += 1
        survivors = []
        changed = False
        for w in pending:
            if len(w) == 2 and w[0] == w[1]:
                report.squares.add(w[0])
                changed = True
                continue
            w = reduce_with_commutations(w, report.commutations)
            if not w:
                changed = True
                continue
            if len(w) in (4, 6) and w == w[:2] * (len(w) // 2):
                pairs = report.commutations if len(w) == 4 else report.braids
                pairs.add(tuple(sorted(w[:2])))
                changed = True
                continue
            survivors.append(w)
        pending = survivors
        if not changed:
            break
    if report.commutations & report.braids:
        overlap = sorted(report.commutations & report.braids)
        raise ValueError(f"degenerate input: pairs both commute and braid: {overlap}")
    for w in pending:
        key = canonical_form(w)
        kept = report.misc.get(key)
        if kept is None or w < kept:
            report.misc[key] = w
    return report


def _outcome(clean_fn, relators):
    try:
        return clean_fn(relators).to_json()
    except ValueError as exc:
        return str(exc)


_letters = st.integers(min_value=1, max_value=5)
_pair_powers = st.tuples(_letters, _letters, st.sampled_from([2, 3])).map(lambda t: t[:2] * t[2])
_relator_lists = st.lists(st.one_of(_pair_powers, st.tuples(_letters, _letters),
                                    st.lists(_letters, max_size=9).map(tuple)), max_size=24)


@given(_relator_lists, st.randoms(use_true_random=False))
# This shuffle reads the braid (1 2)^3 before the commutation of the same
# pair, so the degenerate-input raise runs on every run, not only when the
# random draws happen to reach it.
@example([(1, 2, 1, 2, 1, 2), (1, 2, 1, 2)], random.Random(3))
def test_clean_matches_its_frozen_copy_on_pair_powers(relators, rng):
    # Repeats and reversals of the pair powers, (i, i, i, i) among them.
    relators = relators + [w[::-1] for w in relators if len(w) == 4] + relators[:3]
    rng.shuffle(relators)
    assert _outcome(clean, relators) == _outcome(_clean_before_pair_powers, relators)


def test_clean_on_paper_relators(paper):
    plain = generate(paper.graph, paper.links, "plain")
    inp = plain.squares + plain.commutations + plain.braids + list(ax_fixture().values())
    rep = clean(inp)
    assert rep.squares == set(range(1, 28))
    assert len(rep.commutations) == 297
    assert len(rep.braids) == 54
    assert len(rep.misc) == 25
    assert set(rep.misc) == {canonical_form(w) for w in ax_fixture().values()}


def test_clean_idempotent(paper):
    plain = generate(paper.graph, paper.links, "plain")
    rep = clean(plain.squares + plain.commutations + plain.braids + list(ax_fixture().values()))
    again = clean(list(rep.misc.values())
                  + [(i, j) * 2 for i, j in rep.commutations]
                  + [(i, j) * 3 for i, j in rep.braids])
    assert again.commutations == rep.commutations
    assert again.braids == rep.braids
    assert set(again.misc) == set(rep.misc)


def test_rewrites_preserve_model_value(paper, paper_phi):
    # In-word equal to out-word under the generator assignment, for the
    # commutations of the paper instance and random inputs.
    plain = generate(paper.graph, paper.links, "plain")
    comm = clean(plain.squares + plain.commutations + plain.braids).commutations

    def value(w):
        v = model.rho_hat(
            model.evaluate_word_semidirect(w, paper.span, paper.graph, paper_phi), paper.span)
        return (v.sigma, v.part)

    rng = random.Random(11)
    samples = [tuple(rng.randint(1, 27) for _ in range(rng.randint(0, 12))) for _ in range(40)]
    samples += list(ax_fixture().values())
    for w in samples:
        assert value(reduce_with_commutations(w, comm)) == value(w)
        assert value(free_reduce_involutive(w)) == value(w)


TRIVIA = [(1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2]


def test_derive_braid_commutation_identity():
    # x y z y x against z y x y z over three involutions with orders 3, 3, 2.
    target = (1, 2, 3, 2, 1) + (3, 2, 1, 2, 3)
    result = derive_bounded(TRIVIA, target, max_len=40)
    assert result.found
    assert result.chain[0] == canonical_form(target)
    assert result.chain[-1] == ()


def test_derive_target_in_known():
    result = derive_bounded(TRIVIA, (1, 2, 1, 2, 1, 2), max_len=10)
    assert result.found and len(result.chain) == 2


def test_derive_bound_too_small():
    with pytest.raises(ValueError):
        derive_bounded(TRIVIA, (1, 2, 3, 2, 1), max_len=3)


def test_derive_inconclusive_without_rules():
    result = derive_bounded([(1, 1), (2, 2)], (1, 2, 1, 2), max_len=6)
    assert not result.found


def test_derive_certificate_steps_are_single_rewrites():
    target = (1, 2, 3, 2, 1) + (3, 2, 1, 2, 3)
    result = derive_bounded(TRIVIA, target, max_len=40)
    # Neighbouring chain entries differ by one bounded rewrite; lengths stay sane.
    assert all(len(w) <= 40 for w in result.chain)
    assert len(result.chain) >= 2


def test_derive_hexagon_relation_from_fixture(paper):
    # The benchmark's four replays: around each point, local graph relators
    # plus the matching fixed relator derive the cyclic relator.  The explored
    # counts, chain lengths and chain digests pin the search order and every
    # parent pointer on the chain.
    from coxlab.presentation import cycle_relator
    plain = generate(paper.graph, paper.links, "plain")
    for label, point, explored, chain_sha256 in (
        ("AX1", 1, 9, "731ce9b8d19b8b4edd8d19e3bacd80c34c43c75c0f31d89f6489bc50a67aa1b7"),
        ("AX3", 4, 8, "9cf833425529e77c1677d6de4e1b653e42aa861d3136e899528d8bb9b20e3e9f"),
        ("AX4", 6, 8, "0618f0e06e33687dc059ea5c4c0ddbc0151ebbb8d0815c6462f776c96862109d"),
        ("AX2", 9, 7, "7a7807893ebc1140a812a08e71e5b824d16e3a2286b39db731e139c5205dd7ac"),
    ):
        link = next(l for l in paper.links if l.point == point)
        local = set(link.cycle)
        known = [(e, e) for e in local]
        known += [w for w in plain.commutations + plain.braids if set(w) <= local]
        known.append(ax_fixture()[label])
        target = cycle_relator(link.cycle)
        result = derive_bounded(known, target, max_len=40)
        assert (result.found, result.explored, len(result.chain)) == (True, explored, 6), label
        assert result.chain[0] == canonical_form(target) and result.chain[-1] == ()
        chain_json = json.dumps([list(w) for w in result.chain]).encode()
        assert hashlib.sha256(chain_json).hexdigest() == chain_sha256, label


def _reference_substitution_rules(known):
    # Frozen reference: every rule as an (lhs, replacement) pair, indexed by
    # the first letter and sorted.
    rules = set()
    for raw in known:
        w = free_reduce_involutive(raw)
        if not w:
            continue
        for form in set(rotations(w)) | set(rotations(w[::-1])):
            for k in range(1, len(form) + 1):
                lhs, repl = form[:k], form[k:][::-1]
                if lhs != repl:
                    rules.add((lhs, repl))
    indexed = {}
    for lhs, repl in sorted(rules):
        indexed.setdefault(lhs[0], []).append((lhs, repl))
    return indexed


def _reference_derive_bounded(known, target, max_len):
    # Frozen reference: at each rotation, scan the sorted rules of its first
    # letter and free-reduce every successor whole.
    target_w = free_reduce_involutive(target)
    if not target_w:
        return Derivation(found=True, chain=[target], explored=0)
    rules = _reference_substitution_rules(known)
    start = canonical_form(target_w)
    parents = {start: None}
    heap = [(len(start), 0, start)]
    explored = 0
    while heap and explored < MAX_STATES:
        _, depth, state = heapq.heappop(heap)
        explored += 1
        doubled = state + state
        produced = set()
        for pos in range(len(state)):
            for lhs, repl in rules.get(doubled[pos], ()):
                if len(lhs) > len(state) or doubled[pos:pos + len(lhs)] != lhs:
                    continue
                rotated = doubled[pos:pos + len(state)]
                nxt = free_reduce_involutive(repl + rotated[len(lhs):])
                if len(nxt) > max_len or nxt in produced:
                    continue
                produced.add(nxt)
                nxt = canonical_form(nxt)
                if nxt in parents:
                    continue
                parents[nxt] = state
                if not nxt:
                    chain, node = [], nxt
                    while node is not None:
                        chain.append(node)
                        node = parents[node]
                    return Derivation(found=True, chain=chain[::-1], explored=explored)
                heapq.heappush(heap, (len(nxt), depth + 1, nxt))
    return Derivation(found=False, chain=None, explored=explored)


def _derive_case(rng):
    # 2 to 5 letters; some relators and targets begin and end with the same
    # letter, so states and replacements that are not cyclically reduced
    # occur, as do raw relators that are not reduced at all.
    letters = range(1, rng.randint(2, 5) + 1)

    def word(lo, hi):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi)))
        return w + w[:1] if rng.random() < 0.35 else w

    known = [(x, x) for x in letters if rng.random() < 0.8]
    known += [word(2, 7) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        known.append(rng.choice([(1, 2, 1, 3), (1, 2, 3, 1), (1, 1, 2, 2), (2, 1, 2)]))
    target = word(1, 6)
    return known, target, min(len(free_reduce_involutive(target)) + rng.randint(0, 2), 8)


# Searches whose chain depends on the order among states of equal length,
# so successors of the popped state's own length must reach the heap first.
_EQUAL_LENGTH_ORDER = [
    ([(2, 2), (3, 3), (4, 4), (5, 5), (5, 5, 5, 1, 3, 2, 2), (3, 1, 4, 3, 2, 5, 3), (5, 3, 4, 3),
      (1, 2, 1, 3)], (1, 2, 3, 3, 3), 4),
    ([(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (4, 5, 4, 3, 4), (5, 3, 1, 1, 4, 5),
      (4, 3, 1, 2, 4, 5, 5), (1, 2, 1, 3)], (4, 4, 2, 4, 3, 4), 6),
]


def test_derive_bounded_matches_the_sorted_rule_scan():
    rng = random.Random(25)
    seen = {"found": 0, "not found": 0, "wrapped target": 0}
    for known, target, max_len in _EQUAL_LENGTH_ORDER + [_derive_case(rng) for _ in range(320)]:
        got = derive_bounded(known, target, max_len)
        want = _reference_derive_bounded(known, target, max_len)
        assert (got.found, got.chain, got.explored) == (want.found, want.chain, want.explored), \
            (known, target, max_len)
        seen["found" if got.found else "not found"] += 1
        reduced = free_reduce_involutive(target)
        seen["wrapped target"] += len(reduced) > 1 and reduced[0] == reduced[-1]
    assert min(seen.values()) >= 40, seen
