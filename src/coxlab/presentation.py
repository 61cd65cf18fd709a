"""Presentations generated from a dual graph.

Three nested variants over the same generators (one involution per line):

    plain     squares, one commutation per disjoint edge pair and one
              braid per edge pair sharing a plane
    fork      plain plus, at every 3-valent vertex with edges {u, v, w},
              the commutators [u, wvw] for each choice of u
    quotient  fork plus one cyclic relator per hexagon

A cycle u_1 ... u_m contributes the relator encoding
u_1 ... u_{m-1} = u_2 ... u_m.  Only the hexagon cycles enter the quotient
variant; the remaining cycles of the graph are deliberately left out.

The module also houses the fixed data of the 3 x 3 instance: the 25
miscellaneous relators (labels keep their published gap, there is no AX9)
and the 43-pair table of products whose order is not given up front,
together with its classification by positional roles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import fixtures
from .complexes import DualGraph, HexagonLink
from .words import Word

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
    commutations: list[Word]
    braids: list[Word]
    forks: list[Word]
    cycles: list[Word]
    variant: str

    def relator_words(self) -> list[Word]:
        return self.squares + self.commutations + self.braids + self.forks + self.cycles

    def counts(self) -> dict[str, int]:
        return {
            "squares": len(self.squares),
            "commutations": len(self.commutations),
            "braids": len(self.braids),
            "forks": len(self.forks),
            "cycles": len(self.cycles),
            "total": len(self.relator_words()),
        }

    def to_json(self) -> dict:
        return {
            "generators": self.generator_count,
            "relators": [list(w) for w in self.relator_words()],
        }


def presentation_from_json(data: dict) -> tuple[int, list[Word]]:
    """Generic presentation files: (generator count, relator words)."""
    if type(data) is not dict:
        raise ValueError(f"a presentation file holds one object, got {type(data).__name__}")
    ngens, relators = data["generators"], data["relators"]
    if type(ngens) is not int or ngens < 1:
        raise ValueError(f"generators must be an integer of at least 1, got {ngens!r}")
    if type(relators) is not list:
        raise ValueError(f"relators must be a list of relators, got {relators!r}")
    for w in relators:
        if type(w) is not list or any(type(x) is not int for x in w):
            raise ValueError(f"relator {w!r} must be a list of integer letters")
        if any(not 1 <= x <= ngens for x in w):
            raise ValueError(f"relator letter out of range 1..{ngens}: {tuple(w)}")
    return ngens, [tuple(w) for w in relators]


def cycle_relator(cycle) -> Word:
    """Relator of the cycle u_1 ... u_m: the word u_1 ... u_{m-1} u_m ... u_2."""
    cycle = tuple(cycle)
    if len(cycle) < 3:
        raise ValueError(f"cycle of length {len(cycle)} has no cyclic relator")
    return cycle[:-1] + cycle[:0:-1]


def _canonical_cycle_orientation(cycle) -> tuple[int, ...]:
    # Start at the smallest edge, run toward its smaller neighbour.
    cycle = tuple(cycle)
    k = cycle.index(min(cycle))
    rotated = cycle[k:] + cycle[:k]
    reverse = (rotated[0],) + rotated[:0:-1]
    return rotated if rotated[1] <= reverse[1] else reverse


def generate(graph: DualGraph, links: list[HexagonLink], variant: str) -> Presentation:
    """The presentation of the given variant from a dual graph and its hexagons."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    edges = sorted(graph.edges)
    squares = [(e, e) for e in edges]
    commutations = []
    braids = []
    for i, j in combinations(edges, 2):
        if set(graph.edges[i]) & set(graph.edges[j]):
            braids.append((i, j) * 3)
        else:
            commutations.append((i, j) * 2)
    forks: list[Word] = []
    if variant in ("fork", "quotient"):
        degrees = {v: graph.degree(v) for v in graph.vertices}
        if variant == "fork" and any(d != 3 for d in degrees.values()):
            raise ValueError("fork relators need a 3-regular graph")
        for v in sorted(graph.vertices):
            if degrees[v] != 3:
                continue
            triple = sorted(graph.adjacency[v])
            for u in triple:
                x, y = sorted(set(triple) - {u})
                conj = (y, x, y)
                forks.append((u,) + conj + (u,) + conj)
    cycles: list[Word] = []
    if variant == "quotient":
        for link in sorted(links, key=lambda l: l.point):
            cycles.append(cycle_relator(_canonical_cycle_orientation(link.cycle)))
    return Presentation(
        generator_count=len(edges),
        squares=squares,
        commutations=commutations,
        braids=braids,
        forks=forks,
        cycles=cycles,
        variant=variant,
    )


def ax_fixture() -> dict[str, Word]:
    """The 25 miscellaneous relators of the 3 x 3 instance."""
    relations = fixtures.load_ax_relations()
    expected = [f"AX{k}" for k in range(1, 27) if k != 9]
    if sorted(relations) != sorted(expected):
        raise fixtures.CorruptFixtureError("miscellaneous relator fixture has unexpected labels")
    return relations


def nonrel_fixture() -> list[tuple[int, int]]:
    """The 43 pairs with no order relation given up front."""
    pairs = fixtures.load_nonrel_pairs()
    if len(pairs) != 43 or len(set(map(tuple, pairs))) != 43:
        raise fixtures.CorruptFixtureError("pair fixture must hold 43 distinct pairs")
    return [tuple(sorted(p)) for p in pairs]


def classify_missing(pairs, links: list[HexagonLink]) -> dict[int, set[str]]:
    """Role pairs per point whose order relation is missing.

    Each pair is located at the unique point its two lines share; the two
    roles there, sorted into the fixed column spellings (ab, de, bd, ea,
    ad, be), name the entry.
    """
    by_point = {link.point: link for link in links}
    table: dict[int, set[str]] = {p: set() for p in by_point}
    for i, j in pairs:
        homes = [link for link in links if i in link.cycle and j in link.cycle]
        if len(homes) != 1:
            raise ValueError(f"pair ({i}, {j}) is not localizable to one point")
        link = homes[0]
        roles = frozenset((link.role_of(i), link.role_of(j)))
        column = next((c for c in MISSING_ROLE_COLUMNS if frozenset(c) == roles), None)
        if column is None:
            raise ValueError(f"pair ({i}, {j}) sits in roles {sorted(roles)} at point {link.point}")
        table[link.point].add(column)
    return table


def coverage_counts(p: Presentation, pairs, graph: DualGraph) -> dict:
    """Accounting of which edge pairs receive an order relation.

    Splits all pairs into disjoint/adjacent, subtracts the missing table,
    and reports whether every count matches the expected bookkeeping for
    the 3 x 3 instance.
    """
    edges = sorted(graph.edges)
    pair_set = {tuple(sorted(q)) for q in pairs}
    disjoint = adjacent = 0
    missing_disjoint = missing_adjacent = 0
    for i, j in combinations(edges, 2):
        shared = set(graph.edges[i]) & set(graph.edges[j])
        if shared:
            adjacent += 1
            if (i, j) in pair_set:
                missing_adjacent += 1
        else:
            disjoint += 1
            if (i, j) in pair_set:
                missing_disjoint += 1
    report = {
        "pairs_total": disjoint + adjacent,
        "disjoint": disjoint,
        "adjacent": adjacent,
        "missing": len(pair_set),
        "missing_disjoint": missing_disjoint,
        "missing_adjacent": missing_adjacent,
        "disjoint_given": disjoint - missing_disjoint,
        "adjacent_given": adjacent - missing_adjacent,
    }
    report["consistent"] = (
        report["pairs_total"] == len(edges) * (len(edges) - 1) // 2
        and len(p.commutations) == disjoint
        and len(p.braids) == adjacent
        and report["missing"] == missing_disjoint + missing_adjacent
    )
    return report
