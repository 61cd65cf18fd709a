import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coxlab import model
from coxlab.presentation import ax_fixture, generate
from coxlab.words import (TrivialRelatorError, canonical_form,
                          canonical_relator, clean, derive_bounded,
                          free_reduce_involutive, reduce_with_commutations)

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
    assert reduce_with_commutations((1, 2, 1), set()) == (1, 2, 1)
    ax5 = ax_fixture()["AX5"]
    assert reduce_with_commutations(ax5, set()) == ax5


def test_canonical_form_rotation_and_reversal():
    assert canonical_form((1, 2, 3)) == canonical_form((2, 3, 1))
    assert canonical_form((1, 2, 3)) == canonical_form((3, 2, 1))


def test_canonical_ax7_rotated():
    ax7 = ax_fixture()["AX7"]
    rotated = ax7[4:] + ax7[:4]
    assert canonical_relator(ax7).canonical == canonical_relator(rotated).canonical


@given(words_st.filter(lambda w: free_reduce_involutive(w)), st.integers(0, 20))
def test_canonical_invariance(w, k):
    w = free_reduce_involutive(w)
    k %= len(w)
    assert canonical_form(w[k:] + w[:k]) == canonical_form(w)
    assert canonical_form(w[::-1]) == canonical_form(w)


def test_empty_relator_rejected():
    with pytest.raises(TrivialRelatorError):
        canonical_relator((3, 3))


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
    again = clean([r.word for r in rep.misc_relators()]
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
    # Around the point with hexagon {4,5,8,11,15,19}: local graph relators
    # plus the matching fixed relator derive the cyclic relator.
    from coxlab.presentation import cycle_relator
    link = next(l for l in paper.links if l.point == 4)
    local = set(link.cycle)
    plain = generate(paper.graph, paper.links, "plain")
    known = [(e, e) for e in local]
    known += [w for w in plain.commutations + plain.braids if set(w) <= local]
    known.append(ax_fixture()["AX3"])
    result = derive_bounded(known, cycle_relator(link.cycle), max_len=40)
    assert result.found
