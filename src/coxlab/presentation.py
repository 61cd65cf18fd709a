"""Presentations generated from a dual graph.

Three nested variants over the same generators (one involution per line):

    plain     squares, one braid per pair of lines at a plane and one
              commutation per other line pair (the disjoint ones),
              derived one at a time from the squares and braids
              whenever the relators are read
    fork      plain plus, at every 3-valent vertex with edges {u, v, w},
              the commutators [u, wvw] for each choice of u
    quotient  fork plus one cyclic relator per hexagon

Braids are the line pairs at each plane, read from graph.adjacency, which
must be ascending, so every pair comes out as (i, j) with i < j.  The
commutations are never stored: Presentation.relators streams every
relator in file order, and a presentation's memory grows with the number
of lines, not with its square.

A cycle u_1 ... u_m contributes the relator encoding
u_1 ... u_{m-1} = u_2 ... u_m.  Only the hexagon cycles enter the quotient
variant; the remaining cycles of the graph are deliberately left out.
Each hexagon is oriented by words.canonical_form: on six distinct lines
that starts at the smallest and runs toward its smaller neighbour.

The fixed data of the 3 x 3 instance, the 25 miscellaneous relators (no AX9)
and the 43 pairs with no order relation given up front, is loaded and checked
by coxlab.fixtures; classify_missing sorts the pairs by positional role.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator
from itertools import chain, combinations

from . import fixtures
from .complexes import DualGraph, HexagonLink
from .words import Word, canonical_form, word_from_json

VARIANTS = ("plain", "fork", "quotient")

# Role pairs that can go missing, in the column order of the published table.
MISSING_ROLE_COLUMNS = ("ab", "de", "bd", "ea", "ad", "be")

# Expected classification for the 3 x 3 instance: point -> marked role pairs.
EXPECTED_MISSING_ROLES = {
    1: {"de", "bd", "ea", "ad", "be"},
    2: {"ab", "de", "bd", "ea", "ad", "be"},
    3: {"de", "bd", "ea", "ad"},
    4: {"bd", "ea", "ad", "be"},
    5: {"ab", "de", "bd", "ea", "ad", "be"},
    6: {"bd", "ea", "ad", "be"},
    7: {"ab", "bd", "ea", "ad"},
    8: {"ab", "de", "bd", "ea", "ad"},
    9: {"ab", "bd", "ea", "ad", "be"},
}


@dataclass
class Presentation:
    generator_count: int
    squares: list[Word]
    braids: list[Word]
    forks: list[Word]
    cycles: list[Word]

    @property
    def commutations(self) -> list[Word]:
        """The commutation words as a list; built on each read."""
        return list(self._commutation_words())

    def _commutation_words(self) -> Iterator[Word]:
        """(x y)^2 for every pair of square letters that is not a braid, in
        combinations order, derived one at a time: a Coxeter check on a
        valid complex needs the braids only, and the pairs number lines^2."""
        braided = {w[:2] for w in self.braids}
        return ((i, j) * 2 for (i, _), (j, _) in combinations(self.squares, 2) if (i, j) not in braided)

    def relators(self) -> Iterator[Word]:
        """Every relator in file order: squares, commutations, braids, forks
        and cycles.  Only the lists the presentation stores are held."""
        return chain(self.squares, self._commutation_words(), self.braids, self.forks, self.cycles)

    def relator_words(self) -> list[Word]:
        return list(self.relators())

    def counts(self) -> dict[str, int]:
        lines = len(self.squares)
        counts = {"squares": lines, "commutations": lines * (lines - 1) // 2 - len(self.braids),
                  "braids": len(self.braids), "forks": len(self.forks), "cycles": len(self.cycles)}
        counts["total"] = sum(counts.values())
        return counts

    def to_json(self) -> dict:
        """The presentation file's data.  The relators are relators(), a
        one-shot iterator that can be read only once; cli._json_text writes
        it as an array of arrays without holding it whole."""
        return {"generators": self.generator_count, "relators": self.relators()}


def presentation_from_json(data: dict) -> tuple[int, list[Word]]:
    """Generic presentation files: (generator count, relator words)."""
    if type(data) is not dict:
        raise ValueError(f"a presentation file holds one object, got {type(data).__name__}")
    ngens, relators = data["generators"], data["relators"]
    if type(ngens) is not int or ngens < 1:
        raise ValueError(f"generators must be an integer of at least 1, got {ngens!r}")
    if type(relators) is not list:
        raise ValueError(f"relators must be a list of relators, got {relators!r}")
    return ngens, [word_from_json(w, ngens, "relator") for w in relators]


def cycle_relator(cycle) -> Word:
    """Relator of the cycle u_1 ... u_m: the word u_1 ... u_{m-1} u_m ... u_2."""
    cycle = tuple(cycle)
    if len(cycle) < 3:
        raise ValueError(f"cycle of length {len(cycle)} has no cyclic relator")
    return cycle[:-1] + cycle[:0:-1]


def generate(graph: DualGraph, links: list[HexagonLink], variant: str) -> Presentation:
    """The presentation of the given variant from a dual graph and its hexagons.

    Two lines braid exactly when they share a plane, so the braided pairs
    are the line pairs at each plane, read from graph.adjacency, which must
    be ascending; they are sorted, since the relator lists' order is
    output.  Every other pair commutes, and Presentation derives those
    from the squares and braids whenever its relators are read.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    edges = sorted(graph.edges)
    squares = [(e, e) for e in edges]
    braided = {pair for v in graph.vertices for pair in combinations(graph.adjacency[v], 2)}
    braids = [(i, j) * 3 for i, j in sorted(braided)]
    forks: list[Word] = []
    if variant in ("fork", "quotient"):
        for v in sorted(graph.vertices):
            if graph.degree(v) != 3:
                if variant == "fork":
                    raise ValueError("fork relators need a 3-regular graph")
                continue
            triple = graph.adjacency[v]
            for u in triple:
                x, y = (t for t in triple if t != u)
                conj = (y, x, y)
                forks.append((u,) + conj + (u,) + conj)
    cycles: list[Word] = []
    if variant == "quotient":
        for link in sorted(links, key=lambda l: l.point):
            cycles.append(cycle_relator(canonical_form(link.cycle)))
    return Presentation(
        generator_count=len(edges),
        squares=squares,
        braids=braids,
        forks=forks,
        cycles=cycles,
    )


def ax_fixture() -> dict[str, Word]:
    """The 25 miscellaneous relators of the 3 x 3 instance."""
    return fixtures.load_ax_relations()


def nonrel_fixture() -> list[tuple[int, int]]:
    """The 43 pairs with no order relation given up front, each ascending."""
    return fixtures.load_nonrel_pairs()


def classify_missing(pairs, links: list[HexagonLink]) -> dict[int, set[str]]:
    """Role pairs per point whose order relation is missing.

    Each pair is located at the unique point its two lines share; the two
    roles there name the entry, in the fixed column spelling (ab, de, bd,
    ea, ad, be) or else in alphabetical order.  A pair whose lines share no
    single point is left out.  verify's tables suite judges the result.
    """
    table: dict[int, set[str]] = {link.point: set() for link in links}
    for i, j in pairs:
        homes = [link for link in links if i in link.cycle and j in link.cycle]
        if len(homes) == 1:
            role_of = {line: role for role, line in homes[0].roles.items()}
            roles = sorted((role_of[i], role_of[j]))
            table[homes[0].point].add(
                next((c for c in MISSING_ROLE_COLUMNS if sorted(c) == roles), "".join(roles)))
    return table


def coverage_counts(p: Presentation, pairs, graph: DualGraph) -> dict:
    """Accounting of which edge pairs receive an order relation.

    The disjoint/adjacent split is read off p's commutations and braids and
    the missing pairs are subtracted from each side; pairs_total counts the
    pairs of graph edges, independently of p.
    """
    edges = len(graph.edges)
    missing = {tuple(sorted(q)) for q in pairs}
    split = {"disjoint": {w[:2] for w in p.commutations}, "adjacent": {w[:2] for w in p.braids}}
    report = {"pairs_total": edges * (edges - 1) // 2, "missing": len(missing)}
    for side, given in split.items():
        report[side] = len(given)
        report[f"missing_{side}"] = len(given & missing)
        report[f"{side}_given"] = len(given - missing)
    return report
