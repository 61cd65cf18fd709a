"""Semidirect-product models and the reduced normal form.

One semidirect product, S_n acting on n coordinates, with two kinds of
coordinate part.  The exact layer puts n-tuples of free-group words over
the chord letters in the coordinates (coordinate i of a tuple is the word
sitting over plane i); a graph edge maps into it by

    tree edge from a to b   ->  ((a b), trivial tuple)
    chord  x^t from a to b  ->  ((a b), tuple with x^t at a, (x^t)^-1 at b)

and both images square to the identity.  Multiplication is
(s, f)(t, g) = (s t, f^t g) with (f^t)_i = f_{t(i)}, matching the
permutation convention (p q)(i) = p(q(i)).

The reduced layer M collapses the chord letters of the 3 x 3 instance:
four chords become central letters, four more become central letters
times p_i or q_i, and the two remaining chords give p_i and q_i with
[p_i, q_i] = z for a single central z.  A normal form

    y^c p^a q^b z^zeta      (c in Z^8, a and b in Z^n, zeta in Z)

is unique, with cocycle multiplication

    (c,a,b,z)(c',a',b',z') = (c+c', a+a', b+b', z+z' - sum_i b_i a'_i)

derived from q_i p_i = p_i q_i z^-1, i.e. the commutator convention
[g, h] = g^-1 h^-1 g h gives [p_i, q_i] = z exactly.  rho_hat sends the
exact (sigma, f) to the reduced (sigma, rho(f)) in the same product.  All
arithmetic is plain Python integers, hence exact at every size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import fixtures
from .complexes import DualGraph, SpanningData
from .perm import Permutation, identity, transposition

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


class FixtureInconsistencyError(RuntimeError):
    """A computation pinned to the published labeling came out wrong."""


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

    @staticmethod
    def single(n: int, i: int, word) -> "FreeTuple":
        coords = [()] * n
        coords[i - 1] = _reduce_free(word)
        return FreeTuple(tuple(coords))

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
        return all(u == () for u in self.coords)


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


def semidirect_identity(n: int) -> SemidirectElement:
    return SemidirectElement(identity(n), FreeTuple.trivial(n))


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


def evaluate_word_semidirect(word, span: SpanningData, graph: DualGraph,
                             table: dict[int, SemidirectElement] | None = None) -> SemidirectElement:
    """Left-to-right product of edge images; letters are line ids."""
    if table is None:
        table = phi_table(span, graph)
    out = semidirect_identity(len(graph.vertices))
    for letter in word:
        e = abs(letter)
        if e not in table:
            raise ValueError(f"unknown edge letter {letter}")
        out = out * table[e]
    return out


# -- the reduced layer -------------------------------------------------------

@dataclass(frozen=True)
class ReducedElement:
    """Normal form y^c p^a q^b z^zeta."""

    c: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    zeta: int

    @staticmethod
    def identity(n: int = 18) -> "ReducedElement":
        return ReducedElement((0,) * 8, (0,) * n, (0,) * n, 0)

    @staticmethod
    def z(power: int = 1, n: int = 18) -> "ReducedElement":
        return ReducedElement((0,) * 8, (0,) * n, (0,) * n, power)

    @staticmethod
    def p(i: int, power: int = 1, n: int = 18) -> "ReducedElement":
        a = [0] * n
        a[i - 1] = power
        return ReducedElement((0,) * 8, tuple(a), (0,) * n, 0)

    @staticmethod
    def q(i: int, power: int = 1, n: int = 18) -> "ReducedElement":
        b = [0] * n
        b[i - 1] = power
        return ReducedElement((0,) * 8, (0,) * n, tuple(b), 0)

    @property
    def n(self) -> int:
        return len(self.a)

    def __mul__(self, other: "ReducedElement") -> "ReducedElement":
        if self.n != other.n:
            raise ValueError(f"coordinate count mismatch: {self.n} != {other.n}")
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
            tuple(self.a[sigma(i) - 1] for i in range(1, self.n + 1)),
            tuple(self.b[sigma(i) - 1] for i in range(1, self.n + 1)),
            self.zeta,
        )

    def is_identity(self) -> bool:
        return self == ReducedElement.identity(self.n)

    def is_central_power(self) -> bool:
        """Whether the element lies in the cyclic group generated by z."""
        zero = (0,) * self.n
        return self.c == (0,) * 8 and self.a == zero and self.b == zero

    def to_json(self) -> dict:
        return {"c": list(self.c), "a": list(self.a), "b": list(self.b), "zeta": self.zeta}


def _letter_image(tau: int, i: int, n: int) -> ReducedElement:
    central, tail = CHORD_SUBSTITUTION[tau]
    c = [0] * 8
    if central is not None:
        c[central] = 1
    a = [0] * n
    b = [0] * n
    if tail == "p":
        a[i - 1] = 1
    elif tail == "q":
        b[i - 1] = 1
    return ReducedElement(tuple(c), tuple(a), tuple(b), 0)


def rho(f: FreeTuple) -> ReducedElement:
    """Collapse a chord-letter tuple into the reduced normal form.

    Defined against the published chord indexing only; coordinate i sends
    letter t to its substitute times p_i or q_i as the table dictates.
    Distinct coordinates commute in M, so the product over coordinates is
    taken in index order without loss.
    """
    n = f.n
    if n != 18:
        raise ValueError(f"the substitution table is pinned to 18 coordinates, got {n}")
    out = ReducedElement.identity(n)
    for i, word in enumerate(f.coords, start=1):
        for letter in word:
            tau = abs(letter)
            if tau not in CHORD_SUBSTITUTION:
                raise ValueError(f"letter {letter} is outside the published chord range")
            img = _letter_image(tau, i, n)
            out = out * (img if letter > 0 else img.inverse())
    return out


def rho_hat(g: SemidirectElement, span: SpanningData) -> SemidirectElement:
    require_paper_span(span)
    return SemidirectElement(g.sigma, rho(g.part))


def require_paper_span(span: SpanningData):
    """The reduction tables are pinned to the published spanning data."""
    published = fixtures.load_json("t0_spanning.json")
    got = [(ch.index, ch.line, ch.tail, ch.head) for ch in span.chords]
    want = [(ch["index"], ch["line"], ch["tail"], ch["head"]) for ch in published["chords"]]
    if got != want or sorted(span.tree_edges) != sorted(published["tree"]):
        raise ValueError("reduction is defined only for the published spanning data")


def relator_report(relator_words, span: SpanningData, graph: DualGraph,
                   table: dict[int, SemidirectElement] | None = None) -> list[dict]:
    """Per-relator verification records {relator, status, value}.

    status is "pass" when the relator reduces to the identity of the
    model, else "fail" with the offending value serialized.
    """
    if table is None:
        table = phi_table(span, graph)
    out = []
    for w in relator_words:
        v = rho_hat(evaluate_word_semidirect(w, span, graph, table), span)
        out.append({
            "relator": [int(x) for x in w],
            "status": "pass" if v.is_identity() else "fail",
            "value": {"sigma": v.sigma.to_json(), **v.part.to_json()},
        })
    return out


# -- abelianized invariants ---------------------------------------------------

AB_RANK = 10

# Column of e^t hit by each central letter: y4, y5, y9, y10 go to single
# columns; the difference letters to a +1/-1 pair.
_CENTRAL_AB = [
    ((4, 1),), ((5, 1),), ((9, 1),), ((10, 1),),
    ((7, 1), (8, -1)), ((6, 1), (8, -1)),
    ((3, 1), (1, -1)), ((2, 1), (1, -1)),
]


def ab_image(x: ReducedElement) -> tuple[int, ...]:
    """Exponent sums over e^1 .. e^10; z contributes nothing."""
    out = [0] * AB_RANK
    for coeff, hits in zip(x.c, _CENTRAL_AB):
        for col, sign in hits:
            out[col - 1] += coeff * sign
    out[0] += sum(x.a)
    out[7] += sum(x.b)
    return tuple(out)


def kernel_member(x: ReducedElement) -> bool:
    return ab_image(x) == (0,) * AB_RANK


# -- structure of the kernel --------------------------------------------------

def kernel_generators(n: int = 18) -> list[ReducedElement]:
    """p_i p_{i+1}^-1 and q_i q_{i+1}^-1 for i < n, plus z."""
    gens = []
    for i in range(1, n):
        gens.append(ReducedElement.p(i, 1, n) * ReducedElement.p(i + 1, -1, n))
    for i in range(1, n):
        gens.append(ReducedElement.q(i, 1, n) * ReducedElement.q(i + 1, -1, n))
    gens.append(ReducedElement.z(1, n))
    return gens


def kernel_relation_matrix(n: int = 18) -> list[list[int]]:
    """Relation matrix of the abelianized kernel.

    Generators as in kernel_generators (the final column is z); every
    pairwise commutator is a power of z, contributing one row that kills
    that power of the last generator.
    """
    gens = kernel_generators(n)
    ngens = len(gens)
    rows = []
    for i in range(ngens):
        for j in range(i + 1, ngens):
            comm = gens[i].commutator(gens[j])
            if not comm.is_central_power():
                raise FixtureInconsistencyError("kernel generators have a non-central commutator")
            row = [0] * ngens
            row[-1] = comm.zeta
            rows.append(row)
    return rows


def abelianization(relation_matrix, ngens: int) -> tuple[int, list[int]]:
    """(free rank, torsion) of the presented abelian group."""
    from .snf import abelian_invariants
    return abelian_invariants(relation_matrix, ngens)


def random_kernel_element(rng: random.Random, n: int = 18, spread: int = 5) -> ReducedElement:
    """A random element with zero exponent sums and no central-letter part."""
    def balanced():
        v = [rng.randint(-spread, spread) for _ in range(n - 1)]
        v.append(-sum(v))
        return tuple(v)

    return ReducedElement((0,) * 8, balanced(), balanced(), rng.randint(-spread, spread))


def nilpotency_class_check(sample_size: int = 100, seed: int = 20040709, n: int = 18) -> dict:
    """Sampled witness that the kernel is nilpotent of class exactly 2.

    Every sampled commutator must land in the centre; every sampled triple
    commutator must vanish; and at least one sampled pair must fail to
    commute, which pins the class at 2 rather than 1.
    """
    rng = random.Random(seed)
    commutators_central = triple_trivial = True
    witness = None
    for _ in range(sample_size):
        g = random_kernel_element(rng, n)
        h = random_kernel_element(rng, n)
        k = random_kernel_element(rng, n)
        comm = g.commutator(h)
        if not comm.is_central_power():
            commutators_central = False
        if not comm.commutator(k).is_identity():
            triple_trivial = False
        if witness is None and comm.zeta != 0:
            witness = (g, h, comm.zeta)
    if witness is None:
        g = ReducedElement.p(1, 1, n) * ReducedElement.p(2, -1, n)
        h = ReducedElement.q(1, 1, n) * ReducedElement.q(2, -1, n)
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
    table = phi_table(span, graph)
    tau_images = {}
    for name, word in witness_words().items():
        image = evaluate_word_semidirect(word, span, graph, table)
        pair = image.sigma.as_transposition()
        if pair is None or not image.part.is_identity():
            raise FixtureInconsistencyError(f"witness conjugator {name} is not a plain transposition")
        tau_images[name] = pair
    value = rho_hat(evaluate_word_semidirect(center_witness_word(), span, graph, table), span)
    if not value.sigma.is_identity() or not value.part.is_central_power() \
            or value.part.zeta not in (1, -1):
        raise FixtureInconsistencyError(f"centre witness is not z^(+-1): {value}")
    return CenterWitness(value=value, zeta=value.part.zeta, tau_images=tau_images)
