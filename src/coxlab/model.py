"""The exact model, read sparsely, and the reduced normal form.

S_n acts on n coordinates.  In the exact model coordinate i holds a
free-group word over the chord letters, the word sitting over plane i; a
graph edge maps into it by

    tree edge from a to b   ->  ((a b), no letters)
    chord  x^t from a to b  ->  ((a b), x^t at a, (x^t)^-1 at b)

and both images square to the identity.  The product is
(s, f)(t, g) = (s t, f^t g) with (f^t)_i = f_{t(i)}, matching the
permutation convention (p q)(i) = p(q(i)).  The exact model is the sparse
pair (sigma, coords) that word_action returns for a word: sigma maps the
planes the word moves to their images, and coords holds only the
nonempty coordinate words.  Right-multiplying by one edge image swaps two
planes and appends at most two chord letters, so a word costs O(letters)
rather than O(n) per letter.  No exact element is expanded to n
coordinates or multiplied in the package.  The independent reference,
phi built from the chords and the dense product with free reduction,
lives in tests/oracle.py, and the tests compare word_action against it.
coxeter_failures decides the commutation relators line by line, not
pair by pair, by the support lemma in its docstring.

The reduced layer M keeps, at plane i, a chord letter of weight
(alpha, beta) as p_i^alpha q_i^beta, with [p_i, q_i] = z for a single
central z.  The weight is the chord's class in H_1(T^2, Z) = Z^2, which
complexes.spanning_data reads off the seams of its fundamental cycle, so
the layer holds on every span of every grid.  A normal form

    p^a q^b z^zeta      (a, b in Z^n for the span's n planes, zeta in Z)

is unique.  ReducedElement holds a and b as {plane: exponent} dicts over
the planes whose exponent is not 0, so == is equality in M; it has cocycle
multiplication

    (a,b,z)(a',b',z') = (a+a', b+b', z+z' - sum_i b_i a'_i)

derived from q_i p_i = p_i q_i z^-1, i.e. the commutator convention
[g, h] = g^-1 h^-1 g h gives [p_i, q_i] = z exactly.  Every commutator
is central, in closed form

    [(a,b,z), (a',b',z')] = z^(a.b' - b.a')

because [g, h] = (hg)^-1 (gh), where gh and hg share a and b and their
zeta values differ by b'.a - b.a'.

SemidirectElement is the reduced layer only: S_n acting on
ReducedElement, its sigma the same {plane: image} over the moved planes
that word_action returns, multiplied by perm.compose.  rho_hat sends the
exact (sigma, coords) to the reduced (sigma, p^a q^b z^zeta), passing
sigma through and reducing the word at each written plane; it reads the
width n = len(span.tree_edges) + 1 only to check the planes, and the
weights from the span, no fixture.  Like word_action's coords and perm's
sigma, a reduced element holds only the planes a word touches, so a
reduction, a product, act and commutator cost the touched planes, not n.
The width is read back only where a report prints sigma, a and b as
their dense lists over 1..n (ReducedElement.to_json(n)) and by
is_permutation_invariant(n).  All arithmetic is plain Python integers,
hence exact at every size.  No central block per chord is needed: a
chord letter enters an image at its tail and leaves, inverted, at its
head, so its exponent summed over the planes is 0 on every image.

The kernel's structure is read in closed form except for two sampled
checks, nilpotency_class_check here (SAMPLES triples) and verify's
structure.noncentral_kernel_elements (SAMPLES elements), each drawn by
random_kernel_element from a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import DualGraph, SpanningData, witness_words
from .perm import compose
from .snf import abelian_invariants


# -- the exact layer ---------------------------------------------------------

# word_action's sparse image of a word: ({moved plane: sigma(plane)}, {plane: coordinate word}).
Action = tuple[dict[int, int], dict[int, list[int]]]


def phi_table(span: SpanningData, graph: DualGraph) -> dict[int, Action]:
    """The exact image of each graph edge, by line id; only the benchmark calls it."""
    return {e: word_action((e,), span, graph) for e in sorted(graph.edges)}


def word_action(word, span: SpanningData, graph: DualGraph) -> Action:
    """Sparse left-to-right product of edge images; letters are line ids.

    Returns ({plane: sigma(plane)}, {plane: coordinate word}): the first
    map holds the planes the word moves, the second only the nonempty
    coordinate words; every other plane is fixed with an empty word.
    Right-multiplying by the image of an edge (a b) swaps a and b
    in both maps, then a chord appends its letter at the tail and the
    inverse letter at the head, with free cancellation.
    """
    chords = span.chords
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
    return {a: b for a, b in sigma.items() if a != b}, coords


def word_is_identity(word, span: SpanningData, graph: DualGraph) -> bool:
    """Whether the word evaluates to the identity of the exact model."""
    sigma, coords = word_action(word, span, graph)
    return not sigma and not coords


def coxeter_failures(p, span: SpanningData, graph: DualGraph) -> list[tuple[int, ...]]:
    """The square, commutation, braid and fork relators of the presentation
    p whose exact image is not the identity, in that order.

    Precondition: p's commutations are (x, y, x, y) for the line pairs that
    share no plane, as presentation.generate derives them.

    Support lemma.  The support of a line is the set of planes its image
    moves or writes a chord letter on, read from word_action((e,)) rather
    than from graph.edges, so a chord placed off its edge still shows.
    Let phi(x) = (s, f) and phi(y) = (t, g) have disjoint supports.  Then
    t fixes every plane where f is nonempty, so f^t = f, and likewise
    g^s = g; s and t commute, and f and g are never both nonempty at one
    plane, so (s, f)(t, g) = (st, fg) = (t, g)(s, f).  If both images are
    also involutions, x y x y = x x y y is the identity.

    Per line, not per pair: a line is decided when its square evaluated to
    the identity here and its support lies within its own two planes
    graph.edges[e].  Two decided lines that share no plane then have
    disjoint supports, so their commutation holds.  Only the commutations
    that touch an undecided line are read from p.commutations and
    evaluated; on a valid complex there are none, and the list is never
    built.  Every other relator goes through word_is_identity, so the
    result is the same as evaluating them all.
    """
    failed, undecided = [], set()
    for w in p.squares:
        sigma, coords = word_action(w[:1], span, graph)
        support = sigma.keys() | coords.keys()
        if not word_is_identity(w, span, graph):
            failed.append(w)
        elif support <= set(graph.edges[w[0]]):
            continue
        undecided.add(w[0])
    touched = p.commutations if undecided else []
    failed += [w for w in touched if (w[0] in undecided or w[1] in undecided)
               and not word_is_identity(w, span, graph)]
    failed += [w for w in p.braids + p.forks if not word_is_identity(w, span, graph)]
    return failed


def evaluate_word_semidirect(word, span: SpanningData, graph: DualGraph,
                             table: dict[int, Action] | None = None) -> Action:
    """word_action, with the letters restricted to the keys of a given table.

    No command calls it; the benchmark's words step does, with phi_table.
    """
    if table is not None:
        for letter in word:
            if abs(letter) not in table:
                raise ValueError(f"unknown edge letter {letter}")
    return word_action(word, span, graph)


# -- the reduced layer -------------------------------------------------------

@dataclass(frozen=True)
class SemidirectElement:
    """(sigma, part) in S_n acting on the reduced coordinates:
    (s, f)(t, g) = (st, f^t g), with sigma a {plane: image} dict over the
    planes it moves and part a ReducedElement."""

    sigma: dict[int, int]
    part: ReducedElement

    def __mul__(self, other: "SemidirectElement") -> "SemidirectElement":
        return SemidirectElement(compose(self.sigma, other.sigma),
                                 self.part.act(other.sigma) * other.part)

    def is_identity(self) -> bool:
        return not self.sigma and self.part.is_identity()

    def commutes_with(self, other: "SemidirectElement") -> bool:
        return self * other == other * self


# Kept as an alias because the benchmark tracer (perfbench/tracer.py) wraps
# ModelElement.commutes_with by name.
ModelElement = SemidirectElement


@dataclass(frozen=True)
class ReducedElement:
    """Normal form p^a q^b z^zeta, with a and b the {plane: exponent} dicts
    over the planes whose exponent is not 0; it stores no width."""

    a: dict[int, int]
    b: dict[int, int]
    zeta: int

    def __mul__(self, other: "ReducedElement") -> "ReducedElement":
        return ReducedElement(_add(self.a, other.a), _add(self.b, other.b),
                              self.zeta + other.zeta - _dot(self.b, other.a))

    def commutator(self, other: "ReducedElement") -> "ReducedElement":
        """[g, h] = g^-1 h^-1 g h = z^(a.b' - b.a').

        [g, h] = (hg)^-1 (gh), and gh and hg have the same a and b while
        their zeta values differ by b'.a - b.a'.
        """
        return ReducedElement({}, {}, _dot(self.a, other.b) - _dot(self.b, other.a))

    def act(self, sigma: dict[int, int]) -> "ReducedElement":
        """Permute the p and q indices by {plane: image}: plane i takes the
        exponent at sigma(i), so the exponent at j moves to sigma^-1(j); z
        is fixed."""
        inverse = {j: i for i, j in sigma.items()}
        return ReducedElement({inverse.get(i, i): e for i, e in self.a.items()},
                              {inverse.get(i, i): e for i, e in self.b.items()}, self.zeta)

    def is_identity(self) -> bool:
        return self.zeta == 0 and self.is_central_power()

    def is_permutation_invariant(self, n: int) -> bool:
        """Whether act(sigma) is the element itself for every sigma in
        S_n, i.e. a and b are both constant over the n planes: each is
        empty or writes all n planes with one exponent."""
        return all(not v or (len(v) == n and len(set(v.values())) == 1) for v in (self.a, self.b))

    def is_central_power(self) -> bool:
        """Whether the element lies in the cyclic group generated by z."""
        return not self.a and not self.b

    def to_json(self, n: int) -> dict:
        """a and b as the dense lists over the planes 1..n."""
        return {"a": [self.a.get(i, 0) for i in range(1, n + 1)],
                "b": [self.b.get(i, 0) for i in range(1, n + 1)], "zeta": self.zeta}


def _add(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
    """The sum of two {plane: exponent} dicts, holding no zero exponent."""
    return {i: s for i in x.keys() | y.keys() if (s := x.get(i, 0) + y.get(i, 0))}


def _dot(x: dict[int, int], y: dict[int, int]) -> int:
    return sum(e * y.get(i, 0) for i, e in x.items())


def rho_hat(action: Action, span: SpanningData) -> SemidirectElement:
    """The reduced image (sigma, p^a q^b z^zeta) of an exact (sigma, coords).

    The word at plane i sends a chord letter x of weight (alpha, beta) to
    p_i^alpha q_i^beta, and x^-1 to p_i^-alpha q_i^-beta z^-alpha*beta.
    Distinct planes commute in M, so they are taken in any order, and a
    plane the word leaves empty is never read.  A moved or written plane
    outside the span's planes 1..n, an action read on another graph,
    raises ValueError, and so does a letter that is not a chord of the span.
    """
    sigma, coords = action
    n = len(span.tree_edges) + 1
    for plane in (*sigma, *coords):
        if not 1 <= plane <= n:
            raise ValueError(f"the span has planes 1..{n}, got {plane}")
    weights = span.weights
    a, b, zeta = {}, {}, 0
    for plane, word in coords.items():
        ai = bi = 0
        for letter in word:
            if abs(letter) not in weights:
                raise ValueError(f"letter {letter} is not a chord of the span")
            alpha, beta = weights[abs(letter)]
            if letter < 0:
                alpha, beta = -alpha, -beta
                zeta -= alpha * beta
            zeta -= bi * alpha
            ai += alpha
            bi += beta
        if ai:
            a[plane] = ai
        if bi:
            b[plane] = bi
    return SemidirectElement(sigma, ReducedElement(a, b, zeta))


def relator_report(relator_words, span: SpanningData, graph: DualGraph) -> list[dict]:
    """Per-relator verification records {relator, status, value}.

    status is "pass" when the relator reduces to the identity of the
    model, else "fail" with the offending value serialized.
    """
    n = len(span.tree_edges) + 1
    out = []
    for w in relator_words:
        v = rho_hat(word_action(w, span, graph), span)
        out.append({
            "relator": [int(x) for x in w],
            "status": "pass" if v.is_identity() else "fail",
            "value": {"sigma": [v.sigma.get(i, i) for i in range(1, n + 1)], **v.part.to_json(n)},
        })
    return out


# -- structure of the kernel --------------------------------------------------

def kernel_generators(n: int) -> list[ReducedElement]:
    """p_i p_{i+1}^-1 and q_i q_{i+1}^-1 for i < n, plus z."""
    gens = [ReducedElement({i: 1, i + 1: -1}, {}, 0) for i in range(1, n)]
    gens += [ReducedElement({}, {i: 1, i + 1: -1}, 0) for i in range(1, n)]
    return gens + [ReducedElement({}, {}, 1)]


def kernel_relation_matrix(n: int) -> list[list[int]]:
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
            row = [0] * ngens
            row[-1] = gens[i].commutator(gens[j]).zeta
            rows.append(row)
    return rows


def abelianization(relation_matrix, ngens: int) -> tuple[int, list[int]]:
    """(free rank, torsion) of the presented abelian group."""
    return abelian_invariants(relation_matrix, ngens)


# The sample count of both sampled structure entries.
SAMPLES = 120


def random_kernel_element(rng: random.Random, n: int) -> ReducedElement:
    """A random element over n planes with zero exponent sums.

    Sampling law: a and b each take n - 1 entries uniform in -5..5 and a
    last entry that brings their sum to 0; zeta is uniform in -5..5.  The
    2n - 1 uniform entries come from one rng.choices call, in the order a,
    b, zeta.
    """
    draws = rng.choices(range(-5, 6), k=2 * n - 1)
    a, b = ({i: x for i, x in enumerate((*v, -sum(v)), start=1) if x}
            for v in (draws[:n - 1], draws[n - 1:-1]))
    return ReducedElement(a, b, draws[-1])


def nilpotency_class_check(n: int) -> dict:
    """Sampled witness that the kernel over n planes is nilpotent of class
    exactly 2.

    Over SAMPLES triples drawn from one fixed seed, every sampled
    commutator must land in the centre and every sampled triple commutator
    must vanish; and the fixed pair p_1 p_2^-1, q_1 q_2^-1 must fail to
    commute, which pins the class at 2 rather than 1.
    """
    rng = random.Random(20040709)
    commutators_central = triple_trivial = True
    for _ in range(SAMPLES):
        g = random_kernel_element(rng, n)
        h = random_kernel_element(rng, n)
        k = random_kernel_element(rng, n)
        comm = g.commutator(h)
        if not comm.is_central_power():
            commutators_central = False
        if not comm.commutator(k).is_identity():
            triple_trivial = False
    g = ReducedElement({1: 1, 2: -1}, {}, 0)
    h = ReducedElement({}, {1: 1, 2: -1}, 0)
    witness = g.commutator(h).zeta != 0
    return {
        "samples": SAMPLES,
        "commutators_central": commutators_central,
        "triple_commutators_trivial": triple_trivial,
        "class_two_witness": witness,
        "nilpotency_class": 2 if (commutators_central and triple_trivial and witness) else None,
    }


# -- the centre witness -------------------------------------------------------

def center_witness_word() -> tuple[int, ...]:
    """The commutator word whose image generates the centre."""
    taus = witness_words()
    first = taus["tau1"] + (1,)
    middle = taus["tau3"][::-1] + taus["tau4"] + (4,) + taus["tau3"]
    return first[::-1] + middle[::-1] + first + middle


@dataclass
class CenterWitness:
    value: SemidirectElement
    tau_images: dict[str, tuple[int, int] | None]


def center_witness(span: SpanningData, graph: DualGraph) -> CenterWitness:
    """Evaluate the published commutator word and its conjugating words.

    Each conjugating word maps to its plain transposition, the two planes
    its sigma moves when it moves exactly two and writes no coordinate, or
    to None; verify's centre suite judges both against the paper.
    """
    tau_images = {}
    for name, word in witness_words().items():
        sigma, coords = word_action(word, span, graph)
        tau_images[name] = tuple(sorted(sigma)) if len(sigma) == 2 and not coords else None
    value = rho_hat(word_action(center_witness_word(), span, graph), span)
    return CenterWitness(value=value, tau_images=tau_images)
