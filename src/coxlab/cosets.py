"""Coset enumeration for involutive presentations.

Relator-scanning (HLT) enumeration: each live coset in turn has every
relator traced from it, defining new cosets where the path runs off the
table, and the path's end is identified with the coset it started from.
Every generator is an involution and acts as its own inverse, so defining
c^g = d sets d^g = c at the same time and no doubled alphabet is needed.
So squares are not traced: each live coset first defines its undefined
entries in generator order, as tracing every g g would.  A relator equal,
up to signs, to a square or to an earlier one is dropped, as its path
stays closed at a coset once it has closed there.

The action table is one flat list of rows of ``ngens + 1`` entries,
grown by one blank row per stored coset, and a coset is named by the
offset of its row.  Entry 0 of a row is its link in a union-find forest
over the cosets (``-1`` while the coset is live) and entry g its image
under generator g (``-1`` while undefined).  A coincidence merges the
larger coset into the smaller one.  A trace that meets an entry naming
a merged coset writes the root back, so each stale entry is resolved
once.  Keeping the links in the table leaves one large list to grow, so
peak memory does not depend on where the allocator places a second one.

Where a trace runs off the table, HLT defines one coset per letter left
and then identifies the path's end with its start.  That identification
merges the last of those cosets straight back into the cosets met by
reading the word backwards from the start, so they are counted, never
stored; the first ones are stored, the last joined to where that reading
stopped.  The stored rows keep HLT's order, and each coincidence keeps
the same coset as in HLT.  In a fold the reading stops where the trace
ran off, so the join doubles the stored path back onto itself and
``_unify`` merges that part.  Only a word with two equal adjacent
letters is traced the long way, storing every coset it defines.

The table size cap counts every coset HLT defines, dead or alive, stored
or only counted, and fires at the same definition as in HLT.
Hitting the cap is a distinguished inconclusive outcome, not an error:
the presented group may simply be infinite.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

DEFAULT_CAPACITY = 10 ** 6


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


def _find(table: list[int], c: int) -> int:
    root = c
    while table[root] != -1:
        root = table[root]
    while c != root:
        table[c], c = root, table[c]
    return root


def _unify(table: list[int], ngens: int, c1: int, c2: int):
    """Merge two cosets and every coincidence their rows imply."""
    pending = [(c1, c2)]
    pop, push = pending.pop, pending.append
    while pending:
        a, b = pop()
        a, b = _find(table, a), _find(table, b)
        if a == b:
            continue
        if b < a:
            a, b = b, a
        table[b] = a
        for g in range(1, ngens + 1):
            nb = table[b + g]
            if nb != -1:
                na = table[a + g]
                if na == -1:
                    table[a + g] = nb
                elif na != nb:
                    push((na, nb))


def enumerate_cosets(ngens: int, relators, subgroup_gens=(),
                     capacity: int = DEFAULT_CAPACITY) -> EnumerationResult:
    """Index of the subgroup generated by the given words, if it closes.

    Relators and subgroup words are sequences of 1-based generator
    indices; signs are ignored since generators are involutions.
    """
    rels = [tuple(map(abs, w)) for w in relators]
    subs = [tuple(map(abs, w)) for w in subgroup_gens]
    for w in rels + subs:
        if any(not 1 <= g <= ngens for g in w):
            raise ValueError("generator index out of range")
    if capacity < 1:
        raise ValueError("capacity must be positive")
    rels = [w for w in dict.fromkeys(rels) if not (len(w) == 2 and w[0] == w[1])]
    # Flag the words in which no letter repeats the one before it.  Any
    # other word doubles back onto a coset its own trace has just defined,
    # so it defines fewer cosets than it has letters left, and it is always
    # traced the long way.
    rels, subs = ([(w, all(map(int.__ne__, w, w[1:]))) for w in ws] for ws in (rels, subs))

    width = ngens + 1
    capped = EnumerationResult(status="capacity-exceeded", index=None, allocated=capacity, table=None)
    blank = [-1] * width
    table = list(blank)         # row 0 is the subgroup's own coset
    allocated = 1
    scan, words = 0, subs       # the subgroup words at coset 0 come first
    while True:
        for word, plain in words:
            # No coincidence is processed while a word is traced, so every
            # coset the path reaches stays a root until its end.
            c = s = scan if table[scan] == -1 else _find(table, scan)
            i = 0
            for g in word:
                d = table[c + g]
                if d == -1:
                    break
                if table[d] != -1:     # stale: store the root in its place
                    table[c + g] = d = _find(table, d)
                c = d
                i += 1
            else:
                if c != s:
                    _unify(table, ngens, c, s)
                continue
            # The path runs off the table after i letters: HLT defines one
            # coset per letter left, e_{i+1} .. e_k, and identifies e_k with
            # s.  That identification merges e_k .. e_q into the cosets b met
            # by tracing the word backwards from s, so those are counted but
            # never stored.
            k = len(word)
            if plain:
                if allocated + k - i > capacity:
                    return capped
                allocated += k - i
                b, q = s, k
                while q > i + 1:       # b = s w[k-1] w[k-2] ... w[q-1]
                    h = word[q - 1]
                    d = table[b + h]
                    if d == -1:
                        break
                    if table[d] != -1:
                        table[b + h] = d = _find(table, d)
                    b = d
                    q -= 1
                # Store e_{i+1} .. e_{q-1} (none for a deduction, q = i + 1)
                # and join the last to b by h = w[q-1].  If b^h is defined,
                # as in a fold (b = c, h = g), the two are one coset.
                for g in word[i:q - 1]:
                    d = len(table)
                    table.extend(blank)
                    table[c + g] = d
                    table[d + g] = c
                    c = d
                h = word[q - 1]
                d = table[b + h]
                table[c + h] = b
                if d == -1:
                    table[b + h] = c
                else:
                    _unify(table, ngens, c, d)
                continue
            # A doubled letter: the long way, define every coset, then identify.
            for g in word[i:]:
                d = table[c + g]
                if d == -1:
                    if allocated >= capacity:
                        return capped
                    allocated += 1
                    d = len(table)
                    table.extend(blank)
                    table[c + g] = d
                    table[d + g] = c
                elif table[d] != -1:
                    table[c + g] = d = _find(table, d)
                c = d
            _unify(table, ngens, c, s)
        if words is rels:
            scan += width
            while scan < len(table) and table[scan] != -1:
                scan += width
            if scan == len(table):
                break
        words = rels
        for g in range(1, width):   # the squares at this coset: fill its row
            if table[scan + g] == -1:
                if allocated >= capacity:
                    return capped
                allocated += 1
                d = len(table)
                table.extend(blank)
                table[scan + g] = d
                table[d + g] = scan
    std = _standardize(table, width)
    return EnumerationResult(status="finite", index=len(std), allocated=allocated, table=std)


def _standardize(table: list[int], width: int) -> list[list[int]]:
    """Renumber live cosets in breadth-first order from the subgroup coset.

    Coset 0 is always live, since a coincidence keeps the smaller coset.
    """
    order = {0: 1}
    queue = deque([0])
    while queue:
        c = queue.popleft()
        for d in table[c + 1:c + width]:
            if d == -1:
                raise ValueError("closed table expected after successful enumeration")
            d = _find(table, d)
            if d not in order:
                order[d] = len(order) + 1
                queue.append(d)
    if len(order) != table[::width].count(-1):
        raise ValueError("live cosets are not all reachable from the start")
    return [[order[_find(table, d)] for d in table[c + 1:c + width]] for c in order]


def check_result(result: EnumerationResult, ngens: int, relators, subgroup_gens=()) -> bool:
    """Full post-hoc validation of a finite enumeration.

    The table must have one row per coset and one entry in 1..index per
    generator, every generator must act as a permutation of the cosets,
    every relator must fix every coset, and every subgroup word must fix
    coset 1.  A word with a letter outside 1..ngens (up to sign) fails.
    """
    if result.status != "finite" or result.table is None:
        return False
    if any(not 1 <= abs(g) <= ngens for w in (*relators, *subgroup_gens) for g in w):
        return False
    n, table = result.index, result.table
    if type(n) is not int or len(table) != n or any(len(row) != ngens for row in table):
        return False
    if not set(map(type, chain.from_iterable(table))) <= {int}:
        return False
    # columns[g][c] is the image of coset c under generator g.  Each column a
    # permutation of 1..n also confines every entry to 1..n.
    columns = [None] + [[0] + result.action_permutation(g) for g in range(1, ngens + 1)]
    every = list(range(1, n + 1))

    def images(start, word):
        for g in word:
            column = columns[abs(g)]
            start = [column[c] for c in start]
        return start

    if any(sorted(columns[g][1:]) != every or images(every, (g, g)) != every
           for g in range(1, ngens + 1)):
        return False
    if any(images(every, w) != every for w in relators):
        return False
    return all(images([1], w) == [1] for w in subgroup_gens)
