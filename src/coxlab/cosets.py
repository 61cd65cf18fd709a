"""Coset enumeration for involutive presentations.

Relator-scanning enumeration over a single action table: every generator
is an involution and acts as its own inverse, so defining c^g = d sets
d^g = c at the same time and no doubled alphabet is needed.  Vertices are
merged through a union-find as coincidences appear; reads go through the
find operation, so stale entries resolve lazily.

The table size cap counts every coset ever allocated, dead or alive.
Hitting the cap is a distinguished inconclusive outcome, not an error:
the presented group may simply be infinite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

DEFAULT_CAPACITY = 10 ** 6


class _CapacityExceeded(Exception):
    pass


@dataclass
class EnumerationResult:
    status: str                 # "finite" or "capacity-exceeded"
    index: int | None           # subgroup index when finite
    allocated: int              # cosets ever defined, including merged ones
    table: list[list[int]] | None   # standardized action table, rows 1..index

    def action_permutation(self, gen: int) -> list[int]:
        """Image list of one generator acting on 1..index (1-based)."""
        if self.table is None:
            raise ValueError("no table: enumeration was inconclusive")
        return [row[gen - 1] for row in self.table]


class CosetTable:
    def __init__(self, ngens: int, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.ngens = ngens
        self.capacity = capacity
        self.labels: list[int] = []
        self.rows: list[list[int]] = []     # -1 marks an undefined slot
        self.allocated = 0
        self.start = self._add_vertex()

    def _add_vertex(self) -> int:
        if self.allocated >= self.capacity:
            raise _CapacityExceeded
        c = len(self.labels)
        self.labels.append(c)
        self.rows.append([-1] * self.ngens)
        self.allocated += 1
        return c

    def find(self, c: int) -> int:
        labels = self.labels
        root = c
        while labels[root] != root:
            root = labels[root]
        while labels[c] != root:
            labels[c], c = root, labels[c]
        return root

    def follow(self, c: int, g: int) -> int:
        c = self.find(c)
        d = self.rows[c][g]
        if d == -1:
            d = self._add_vertex()
            self.rows[c][g] = d
            self.rows[d][g] = c
            return d
        return self.find(d)

    def follow_path(self, c: int, word) -> int:
        for g in word:
            c = self.follow(c, g)
        return c

    def unify(self, c1: int, c2: int):
        pending = [(c1, c2)]
        while pending:
            a, b = pending.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.labels[b] = a
            row_a, row_b = self.rows[a], self.rows[b]
            for g in range(self.ngens):
                nb = row_b[g]
                if nb == -1:
                    continue
                if row_a[g] == -1:
                    row_a[g] = nb
                else:
                    pending.append((row_a[g], nb))

    def live(self) -> list[int]:
        return [c for c in range(len(self.labels)) if self.find(c) == c]


def enumerate_cosets(ngens: int, relators, subgroup_gens=(),
                     capacity: int = DEFAULT_CAPACITY) -> EnumerationResult:
    """Index of the subgroup generated by the given words, if it closes.

    Relators and subgroup words are sequences of 1-based generator
    indices; signs are ignored since generators are involutions.
    """
    rels = [tuple(abs(x) - 1 for x in w) for w in relators]
    subs = [tuple(abs(x) - 1 for x in w) for w in subgroup_gens]
    for w in rels + subs:
        if any(not 0 <= g < ngens for g in w):
            raise ValueError("generator index out of range")
    # Every generator is an involution; scanning its square at each coset
    # also guarantees the final table is total.
    rels = [(g, g) for g in range(ngens)] + rels

    table = CosetTable(ngens, capacity)
    try:
        for w in subs:
            table.unify(table.follow_path(table.start, w), table.start)
        scan = 0
        while scan < len(table.labels):
            if table.find(scan) == scan:
                for rel in rels:
                    table.unify(table.follow_path(scan, rel), scan)
            scan += 1
    except _CapacityExceeded:
        return EnumerationResult(status="capacity-exceeded", index=None,
                                 allocated=table.allocated, table=None)
    std = _standardize(table)
    return EnumerationResult(status="finite", index=len(std),
                             allocated=table.allocated, table=std)


def _standardize(table: CosetTable) -> list[list[int]]:
    """Renumber live cosets in breadth-first order from the subgroup coset."""
    order = {table.find(table.start): 1}
    queue = deque([table.find(table.start)])
    while queue:
        c = queue.popleft()
        for g in range(table.ngens):
            d = table.rows[c][g]
            if d == -1:
                raise ValueError("closed table expected after successful enumeration")
            d = table.find(d)
            if d not in order:
                order[d] = len(order) + 1
                queue.append(d)
    live = table.live()
    if len(order) != len(live):
        raise ValueError("live cosets are not all reachable from the start")
    std = [[0] * table.ngens for _ in live]
    for c, new_c in order.items():
        for g in range(table.ngens):
            std[new_c - 1][g] = order[table.find(table.rows[c][g])]
    return std


def check_result(result: EnumerationResult, ngens: int, relators, subgroup_gens=()) -> bool:
    """Full post-hoc validation of a finite enumeration.

    Every generator must act as a permutation of the cosets, every relator
    must fix every coset, and every subgroup word must fix coset 1.
    """
    if result.status != "finite" or result.table is None:
        return False
    n = result.index
    for g in range(1, ngens + 1):
        images = result.action_permutation(g)
        if sorted(images) != list(range(1, n + 1)):
            return False
        if any(images[images[c - 1] - 1] != c for c in range(1, n + 1)):
            return False

    def act(c, word):
        for g in word:
            c = result.table[c - 1][abs(g) - 1]
        return c

    if any(act(c, w) != c for w in relators for c in range(1, n + 1)):
        return False
    return all(act(1, w) == 1 for w in subgroup_gens)
