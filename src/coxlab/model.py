"""Semidirect-product models and the reduced normal form.

One semidirect product, S_n acting on n coordinates, with two kinds of
coordinate part.  The exact layer puts n-tuples of free-group words over
the chord letters in the coordinates (coordinate i of a tuple is the word
sitting over plane i); a graph edge maps into it by

    tree edge from a to b   ->  ((a b), trivial tuple)
    chord  x^t from a to b  ->  ((a b), tuple with x^t at a, (x^t)^-1 at b)

and both images square to the identity.  Multiplication is
(s, f)(t, g) = (s t, f^t g) with (f^t)_i = f_{t(i)}, matching the
permutation convention (p q)(i) = p(q(i)).  Words are evaluated sparsely
by word_action: right-multiplying by one edge image swaps two planes and
appends at most two chord letters, so a word costs O(letters) rather than
O(n) per letter.  The dense product over phi_table stays as the reference
the tests compare against.

The reduced layer M collapses the chord letters of the 3 x 3 instance:
four chords become central letters, four more become central letters
times p_i or q_i, and the two remaining chords give p_i and q_i with
[p_i, q_i] = z for a single central z.  A normal form

    y^c p^a q^b z^zeta      (c in Z^8, a and b in Z^PLANES = Z^18, zeta in Z)

is unique, with cocycle multiplication

    (c,a,b,z)(c',a',b',z') = (c+c', a+a', b+b', z+z' - sum_i b_i a'_i)

derived from q_i p_i = p_i q_i z^-1, i.e. the commutator convention
[g, h] = g^-1 h^-1 g h gives [p_i, q_i] = z exactly.  rho_hat sends the
exact (sigma, f) to the reduced (sigma, rho(f)) in the same product.  All
arithmetic is plain Python integers, hence exact at every size.

The substitution table holds only for the published spanning tree and
chord orientations.  complexes.spanning_data(graph, "paper-fixture")
is the one place that decides this: it checks t0_spanning.json against
its oracle and marks the span it returns as published.  rho_hat,
relator_report and center_witness accept only a marked span, so a
canonical span, or one built by hand, raises ValueError; this module
reads no fixture.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import CorruptFixtureError, DualGraph, SpanningData
from .perm import Permutation, transposition

# Central letters, in coordinate order: the four single-chord letters,
# then the four chord-difference letters.
CENTRAL_LETTERS = ("y4", "y5", "y9", "y10", "y7_8", "y6_8", "y3_1", "y2_1")

# Substitution per chord index: (central coordinate or None, tail letter).
# Tail "p" or "q" carries the coordinate index; None is purely central.
CHORD_SUBSTITUTION = {
    4: (0, None), 5: (1, None), 9: (2, None), 10: (3, None),
    7: (4, "q"), 6: (5, "q"),
    3: (6, "p"), 2: (7, "p"),
    1: (None, "p"), 8: (None, "q"),
}

# Planes of the published complex: the reduced layer's only size.
PLANES = 18


# -- the exact layer ---------------------------------------------------------

def _reduce_free(word) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class FreeTuple:
    """An n-tuple of reduced free-group words over the chord letters."""

    coords: tuple[tuple[int, ...], ...]

    @staticmethod
    def trivial(n: int) -> "FreeTuple":
        return FreeTuple(((),) * n)

    @property
    def n(self) -> int:
        return len(self.coords)

    def __mul__(self, other: "FreeTuple") -> "FreeTuple":
        if self.n != other.n:
            raise ValueError(f"coordinate count mismatch: {self.n} != {other.n}")
        return FreeTuple(tuple(_reduce_free(u + v) for u, v in zip(self.coords, other.coords)))

    def inverse(self) -> "FreeTuple":
        return FreeTuple(tuple(tuple(-x for x in u[::-1]) for u in self.coords))

    def act(self, sigma: Permutation) -> "FreeTuple":
        """(f^sigma)_i = f_{sigma(i)}."""
        return FreeTuple(tuple(self.coords[sigma(i) - 1] for i in range(1, self.n + 1)))

    def is_identity(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class SemidirectElement:
    """(sigma, part) in S_n acting on coordinates: (s, f)(t, g) = (st, f^t g).

    part is a FreeTuple (the exact layer) or a ReducedElement (the reduced
    layer); either answers part * part, part.inverse(), part.act(sigma)
    and part.is_identity().
    """

    sigma: Permutation
    part: FreeTuple | ReducedElement

    def __mul__(self, other: "SemidirectElement") -> "SemidirectElement":
        return SemidirectElement(self.sigma * other.sigma,
                                 self.part.act(other.sigma) * other.part)

    def inverse(self) -> "SemidirectElement":
        inv = self.sigma.inverse()
        return SemidirectElement(inv, self.part.inverse().act(inv))

    def is_identity(self) -> bool:
        return self.sigma.is_identity() and self.part.is_identity()

    def commutes_with(self, other: "SemidirectElement") -> bool:
        return self * other == other * self


# Kept as an alias because the benchmark tracer (perfbench/tracer.py) wraps
# ModelElement.commutes_with by name.
ModelElement = SemidirectElement


def phi(line_id: int, span: SpanningData, graph: DualGraph) -> SemidirectElement:
    """Image of one graph edge; an involution in either case."""
    if line_id not in graph.edges:
        raise ValueError(f"line {line_id} is not an edge of the graph")
    n = len(graph.vertices)
    chord = span.chord_by_line().get(line_id)
    if chord is None:
        a, b = graph.edges[line_id]
        return SemidirectElement(transposition(a, b, n), FreeTuple.trivial(n))
    tail, head = chord.tail, chord.head
    coords = [()] * n
    coords[tail - 1] = (chord.index,)
    coords[head - 1] = (-chord.index,)
    return SemidirectElement(transposition(tail, head, n), FreeTuple(tuple(coords)))


def phi_table(span: SpanningData, graph: DualGraph) -> dict[int, SemidirectElement]:
    return {e: phi(e, span, graph) for e in sorted(graph.edges)}


def word_action(word, span: SpanningData, graph: DualGraph) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Sparse left-to-right product of edge images; letters are line ids.

    Returns ({plane: sigma(plane)}, {plane: coordinate word}): the first
    map covers the planes the word touches, the second holds only the
    nonempty coordinate words; every other plane is fixed with an empty
    word.  Right-multiplying by the image of an edge (a b) swaps a and b
    in both maps, then a chord appends its letter at the tail and the
    inverse letter at the head, with free cancellation.
    """
    chords = span.chord_by_line()
    sigma: dict[int, int] = {}
    coords: dict[int, list[int]] = {}
    for letter in word:
        e = abs(letter)
        ends = graph.edges.get(e)
        if ends is None:
            raise ValueError(f"unknown edge letter {letter}")
        chord = chords.get(e)
        a, b = ends if chord is None else (chord.tail, chord.head)
        sigma[a], sigma[b] = sigma.get(b, b), sigma.get(a, a)
        wa, wb = coords.pop(b, []), coords.pop(a, [])
        if chord is not None:
            x = chord.index
            if wa and wa[-1] == -x:
                wa.pop()
            else:
                wa.append(x)
            if wb and wb[-1] == x:
                wb.pop()
            else:
                wb.append(-x)
        if wa:
            coords[a] = wa
        if wb:
            coords[b] = wb
    return sigma, coords


def word_is_identity(word, span: SpanningData, graph: DualGraph) -> bool:
    """Whether the word evaluates to the identity of the exact model."""
    sigma, coords = word_action(word, span, graph)
    return not coords and all(plane == image for plane, image in sigma.items())


def evaluate_word_semidirect(word, span: SpanningData, graph: DualGraph,
                             table: dict[int, SemidirectElement] | None = None) -> SemidirectElement:
    """Left-to-right product of edge images; letters are line ids.

    A given table restricts the accepted letters to its keys.
    """
    if table is not None:
        for letter in word:
            if abs(letter) not in table:
                raise ValueError(f"unknown edge letter {letter}")
    sigma, coords = word_action(word, span, graph)
    n = len(graph.vertices)
    images = list(range(1, n + 1))
    dense: list[tuple[int, ...]] = [()] * n
    for plane, image in sigma.items():
        images[plane - 1] = image
    for plane, w in coords.items():
        dense[plane - 1] = tuple(w)
    return SemidirectElement(Permutation(tuple(images)), FreeTuple(tuple(dense)))


# -- the reduced layer -------------------------------------------------------

@dataclass(frozen=True)
class ReducedElement:
    """Normal form y^c p^a q^b z^zeta over the PLANES planes."""

    c: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    zeta: int

    @staticmethod
    def identity() -> "ReducedElement":
        return _IDENTITY

    @staticmethod
    def z(power: int = 1) -> "ReducedElement":
        return ReducedElement(_IDENTITY.c, _IDENTITY.a, _IDENTITY.b, power)

    @staticmethod
    def p(i: int, power: int = 1) -> "ReducedElement":
        a = [0] * PLANES
        a[i - 1] = power
        return ReducedElement(_IDENTITY.c, tuple(a), _IDENTITY.b, 0)

    @staticmethod
    def q(i: int, power: int = 1) -> "ReducedElement":
        b = [0] * PLANES
        b[i - 1] = power
        return ReducedElement(_IDENTITY.c, _IDENTITY.a, tuple(b), 0)

    def __mul__(self, other: "ReducedElement") -> "ReducedElement":
        cross = sum(bi * ai for bi, ai in zip(self.b, other.a))
        return ReducedElement(
            tuple(x + y for x, y in zip(self.c, other.c)),
            tuple(x + y for x, y in zip(self.a, other.a)),
            tuple(x + y for x, y in zip(self.b, other.b)),
            self.zeta + other.zeta - cross,
        )

    def inverse(self) -> "ReducedElement":
        cross = sum(ai * bi for ai, bi in zip(self.a, self.b))
        return ReducedElement(
            tuple(-x for x in self.c),
            tuple(-x for x in self.a),
            tuple(-x for x in self.b),
            -self.zeta - cross,
        )

    def commutator(self, other: "ReducedElement") -> "ReducedElement":
        return self.inverse() * other.inverse() * self * other

    def act(self, sigma: Permutation) -> "ReducedElement":
        """Permute the p and q indices; the central block is fixed."""
        return ReducedElement(
            self.c,
            tuple(self.a[i - 1] for i in sigma.images),
            tuple(self.b[i - 1] for i in sigma.images),
            self.zeta,
        )

    def is_identity(self) -> bool:
        return self == _IDENTITY

    def is_central_power(self) -> bool:
        """Whether the element lies in the cyclic group generated by z."""
        return self.c == _IDENTITY.c and self.a == _IDENTITY.a and self.b == _IDENTITY.b

    def to_json(self) -> dict:
        return {"c": list(self.c), "a": list(self.a), "b": list(self.b), "zeta": self.zeta}


_IDENTITY = ReducedElement((0,) * len(CENTRAL_LETTERS), (0,) * PLANES, (0,) * PLANES, 0)


def rho(f: FreeTuple) -> ReducedElement:
    """Collapse a chord-letter tuple into the reduced normal form.

    Defined against the published chord indexing only; coordinate i sends
    letter t to its substitute times p_i or q_i as the table dictates.
    Distinct coordinates commute in M, so the product over coordinates is
    taken in index order without loss.  A letter image has a . b = 0, so
    its inverse is its negation and each letter updates the exponents once.
    """
    if f.n != PLANES:
        raise ValueError(f"the substitution table is pinned to {PLANES} coordinates, got {f.n}")
    c, a, b, zeta = [0] * len(CENTRAL_LETTERS), [0] * PLANES, [0] * PLANES, 0
    for i, word in enumerate(f.coords):
        for letter in word:
            if abs(letter) not in CHORD_SUBSTITUTION:
                raise ValueError(f"letter {letter} is outside the published chord range")
            central, tail = CHORD_SUBSTITUTION[abs(letter)]
            sign = 1 if letter > 0 else -1
            if central is not None:
                c[central] += sign
            if tail == "p":
                zeta -= b[i] * sign
                a[i] += sign
            elif tail == "q":
                b[i] += sign
    return ReducedElement(tuple(c), tuple(a), tuple(b), zeta)


def rho_hat(g: SemidirectElement, span: SpanningData) -> SemidirectElement:
    require_paper_span(span)
    return SemidirectElement(g.sigma, rho(g.part))


def require_paper_span(span: SpanningData):
    """Reject every span that the paper-fixture loader did not mark.

    CHORD_SUBSTITUTION holds only for the span that
    complexes.spanning_data(graph, "paper-fixture") loads, checks against
    the fixture's oracle and marks published; no fixture is read here.
    """
    if not span.published:
        raise ValueError("reduction is defined only for the published spanning data")


def relator_report(relator_words, span: SpanningData, graph: DualGraph,
                   table: dict[int, SemidirectElement] | None = None) -> list[dict]:
    """Per-relator verification records {relator, status, value}.

    status is "pass" when the relator reduces to the identity of the
    model, else "fail" with the offending value serialized.
    """
    out = []
    for w in relator_words:
        v = rho_hat(evaluate_word_semidirect(w, span, graph, table), span)
        out.append({
            "relator": [int(x) for x in w],
            "status": "pass" if v.is_identity() else "fail",
            "value": {"sigma": v.sigma.to_json(), **v.part.to_json()},
        })
    return out


# -- structure of the kernel --------------------------------------------------

def kernel_generators() -> list[ReducedElement]:
    """p_i p_{i+1}^-1 and q_i q_{i+1}^-1 for i < PLANES, plus z."""
    gens = [ReducedElement.p(i) * ReducedElement.p(i + 1, -1) for i in range(1, PLANES)]
    gens += [ReducedElement.q(i) * ReducedElement.q(i + 1, -1) for i in range(1, PLANES)]
    return gens + [ReducedElement.z()]


def kernel_relation_matrix() -> list[list[int]]:
    """Relation matrix of the abelianized kernel.

    Generators as in kernel_generators (the final column is z); every
    pairwise commutator is a power of z, contributing one row that kills
    that power of the last generator.
    """
    gens = kernel_generators()
    ngens = len(gens)
    rows = []
    for i in range(ngens):
        for j in range(i + 1, ngens):
            comm = gens[i].commutator(gens[j])
            if not comm.is_central_power():
                raise CorruptFixtureError("kernel generators have a non-central commutator")
            row = [0] * ngens
            row[-1] = comm.zeta
            rows.append(row)
    return rows


def abelianization(relation_matrix, ngens: int) -> tuple[int, list[int]]:
    """(free rank, torsion) of the presented abelian group."""
    from .snf import abelian_invariants
    return abelian_invariants(relation_matrix, ngens)


def random_kernel_element(rng: random.Random) -> ReducedElement:
    """A random element with zero exponent sums and no central-letter part."""
    def balanced():
        v = [rng.randint(-5, 5) for _ in range(PLANES - 1)]
        v.append(-sum(v))
        return tuple(v)

    return ReducedElement(_IDENTITY.c, balanced(), balanced(), rng.randint(-5, 5))


def nilpotency_class_check(sample_size: int = 100, seed: int = 20040709) -> dict:
    """Sampled witness that the kernel is nilpotent of class exactly 2.

    Every sampled commutator must land in the centre; every sampled triple
    commutator must vanish; and at least one sampled pair must fail to
    commute, which pins the class at 2 rather than 1.
    """
    rng = random.Random(seed)
    commutators_central = triple_trivial = True
    witness = None
    for _ in range(sample_size):
        g = random_kernel_element(rng)
        h = random_kernel_element(rng)
        k = random_kernel_element(rng)
        comm = g.commutator(h)
        if not comm.is_central_power():
            commutators_central = False
        if not comm.commutator(k).is_identity():
            triple_trivial = False
        if witness is None and comm.zeta != 0:
            witness = (g, h, comm.zeta)
    if witness is None:
        g = ReducedElement.p(1) * ReducedElement.p(2, -1)
        h = ReducedElement.q(1) * ReducedElement.q(2, -1)
        comm = g.commutator(h)
        if comm.zeta != 0:
            witness = (g, h, comm.zeta)
    return {
        "samples": sample_size,
        "commutators_central": commutators_central,
        "triple_commutators_trivial": triple_trivial,
        "class_two_witness": witness is not None,
        "nilpotency_class": 2 if (commutators_central and triple_trivial and witness) else None,
    }


# -- the centre witness -------------------------------------------------------

def center_witness_word() -> tuple[int, ...]:
    """The commutator word whose image generates the centre."""
    from .complexes import witness_words
    taus = witness_words()
    first = taus["tau1"] + (1,)
    middle = taus["tau3"][::-1] + taus["tau4"] + (4,) + taus["tau3"]
    return first[::-1] + middle[::-1] + first + middle


@dataclass
class CenterWitness:
    value: SemidirectElement
    zeta: int
    tau_images: dict[str, tuple[int, int]]


def center_witness(span: SpanningData, graph: DualGraph) -> CenterWitness:
    """Evaluate the published commutator word; the result must be z or its
    inverse with trivial permutation part, else the fixture is inconsistent."""
    from .complexes import witness_words
    require_paper_span(span)
    tau_images = {}
    for name, word in witness_words().items():
        image = evaluate_word_semidirect(word, span, graph)
        pair = image.sigma.as_transposition()
        if pair is None or not image.part.is_identity():
            raise CorruptFixtureError(f"witness conjugator {name} is not a plain transposition")
        tau_images[name] = pair
    value = rho_hat(evaluate_word_semidirect(center_witness_word(), span, graph), span)
    if not value.sigma.is_identity() or not value.part.is_central_power() \
            or value.part.zeta not in (1, -1):
        raise CorruptFixtureError(f"centre witness is not z^(+-1): {value}")
    return CenterWitness(value=value, zeta=value.part.zeta, tau_images=tau_images)
