"""The independent reference for the exact and reduced models.

The package builds exact images one way only, as the sparse
(sigma, coords) pair of model.word_action, and multiplies only reduced
elements; every permutation it holds is the {plane: image} dict of
coxlab.perm.  This module builds the exact model a second way, densely
and straight from its definition, for the tests to compare against:

- a Permutation is dense, the tuple (p(1), ..., p(n)) checked to be a
  bijection of 1..n, with the convention (p * q)(i) = p(q(i)) of
  coxlab.perm, and moved() gives it in the package's form;
- an Exact element is a Permutation of the n planes and a FreeTuple, one
  freely reduced chord-letter word per plane;
- phi sends a tree edge from a to b to ((a b), trivial tuple) and a chord
  x from tail t to head h to ((t h), x at t and x^-1 at h);
- mul is the dense product (s, f)(t, g) = (st, f^t g), with
  (f^t)_i = f_{t(i)} and each coordinate freely reduced;
- evaluate multiplies the phi images of a word's letters left to right;
- sparse converts a dense element to the (sigma, coords) pair over the
  planes it moves, the form word_action returns, so the two compare
  with ==;
- rho is the dense reduction that walks all n coordinates and multiplies
  the letter images one by one, the reference for model.rho on
  word_action's coordinate dict, and reduced applies it to a dense
  element, giving a SemidirectElement with the moved planes as sigma.

For the reduced layer it adds the identity over the published complex's
18 planes, the group inverse of p^a q^b z^zeta and the published chord
weights: chords 1, 2 and 3 go to p_i, chords 6, 7 and 8 to q_i and the
other four to the identity.
"""

from dataclasses import dataclass
from functools import reduce

from coxlab.model import ReducedElement, SemidirectElement


@dataclass(frozen=True)
class Permutation:
    """Dense bijection on {1..n}, stored as the tuple (p(1), ..., p(n))."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(p * q)(i) = p(q(i)): apply q first."""
        if len(self.images) != len(other.images):
            raise ValueError(f"degree mismatch: {len(self.images)} != {len(other.images)}")
        return Permutation(tuple(self.images[v - 1] for v in other.images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    def moved(self) -> dict[int, int]:
        """{plane: image} over the planes it moves: the form of coxlab.perm."""
        return {i: s for i, s in enumerate(self.images, start=1) if s != i}


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def transposition(alpha: int, beta: int, n: int) -> Permutation:
    images = list(range(1, n + 1))
    images[alpha - 1], images[beta - 1] = beta, alpha
    return Permutation(tuple(images))


@dataclass(frozen=True)
class FreeTuple:
    """An n-tuple of reduced free-group words over the chord letters."""

    coords: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.coords)

    def is_identity(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class Exact:
    """(sigma, part) of the exact model, with part dense."""

    sigma: Permutation
    part: FreeTuple

    def is_identity(self) -> bool:
        return self.sigma.is_identity() and self.part.is_identity()


def free_reduce(word) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def unit(n: int) -> Exact:
    return Exact(identity(n), FreeTuple(((),) * n))


def phi(line_id: int, span, graph) -> Exact:
    """Image of one graph edge; an involution in either case."""
    if line_id not in graph.edges:
        raise ValueError(f"line {line_id} is not an edge of the graph")
    n = len(graph.vertices)
    chord = span.chords.get(line_id)
    if chord is None:
        return Exact(transposition(*graph.edges[line_id], n), unit(n).part)
    coords = [()] * n
    coords[chord.tail - 1] = (chord.index,)
    coords[chord.head - 1] = (-chord.index,)
    return Exact(transposition(chord.tail, chord.head, n), FreeTuple(tuple(coords)))


def phi_table(span, graph) -> dict[int, Exact]:
    return {e: phi(e, span, graph) for e in sorted(graph.edges)}


def mul(g: Exact, h: Exact) -> Exact:
    """(s, f)(t, g) = (st, f^t g) on free-word coordinates."""
    f, k, t = g.part.coords, h.part.coords, h.sigma
    if len(f) != len(k):
        raise ValueError(f"coordinate count mismatch: {len(f)} != {len(k)}")
    return Exact(g.sigma * t, FreeTuple(tuple(
        free_reduce(f[t.images[i - 1] - 1] + k[i - 1]) for i in range(1, len(f) + 1))))


def evaluate(word, table: dict[int, Exact], n: int) -> Exact:
    """The dense product of the images of the word's letters; every image is
    an involution, so a letter's sign is ignored."""
    return reduce(mul, (table[abs(e)] for e in word), unit(n))


def sparse(g: Exact) -> tuple[dict[int, int], dict[int, list[int]]]:
    """g as a (sigma, coords) pair: the planes g moves and its nonempty words."""
    return g.sigma.moved(), {i: list(w) for i, w in enumerate(g.part.coords, start=1) if w}


def rho(f: FreeTuple, span) -> ReducedElement:
    """The dense reduction, walking all n coordinates: coordinate i sends a
    chord letter of weight (alpha, beta) to p_i^alpha q_i^beta and its
    inverse letter to the inverse of that, multiplied in coordinate order,
    then word order."""
    n = len(span.tree_edges) + 1
    if f.n != n:
        raise ValueError(f"the span has {n} planes, got {f.n} coordinates")
    weights = span.weights
    out = ReducedElement.z(n, 0)
    for i, word in enumerate(f.coords, start=1):
        for letter in word:
            if abs(letter) not in weights:
                raise ValueError(f"letter {letter} is not a chord of the span")
            alpha, beta = weights[abs(letter)]
            image = ReducedElement.p(n, i, alpha) * ReducedElement.q(n, i, beta)
            out = out * (image if letter > 0 else inverse(image))
    return out


def reduced(g: Exact, span) -> SemidirectElement:
    return SemidirectElement(g.sigma.moved(), rho(g.part, span))


PUBLISHED_WEIGHTS = {x: (1, 0) if x in (1, 2, 3) else (0, 1) if x in (6, 7, 8) else (0, 0)
                     for x in range(1, 11)}

REDUCED_IDENTITY = ReducedElement.z(18, 0)


def inverse(m: ReducedElement) -> ReducedElement:
    """(p^a q^b z^zeta)^-1 = p^-a q^-b z^(-zeta - a.b)."""
    cross = sum(ai * bi for ai, bi in zip(m.a, m.b))
    return ReducedElement(tuple(-x for x in m.a), tuple(-x for x in m.b), -m.zeta - cross)
