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
under generator g (``-1`` while undefined).  Keeping the links in the
table leaves one large list to grow, so peak memory does not depend on
where the allocator places a second one.

A coincidence is processed by Holt's procedure COINCIDENCE (Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, 2005, section
5.1), which for an involutive table reads: a merge links the larger root
to the smaller and queues the dead coset; for each queued coset b and
each g with nb = b^g defined, nb^g, which names b, is cleared, and with
mu and nu the roots of b and nb, nu is merged with mu^g if that is
defined, else mu with nu^g if that is, else mu^g = nu and nu^g = mu are
set.  So outside a coincidence no live row names a dead coset, c^g = d
holds exactly when d^g = c, and a trace reads the table without testing
what it finds.  So do ``_standardize``, which renumbers the closed table,
and ``check_result``, which reads the renumbered one; ``_find`` serves
only ``_unify``.  Each class keeps its smallest coset, as in HLT.

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

Most relators of a Coxeter-type presentation are dihedral words
w = (x y)^m with x != y, and once a trace of w has closed at a coset r,
every coset in the <x, y>-orbit of r has both entries defined and is
fixed by w: the closed path runs through the whole orbit, and <(xy)^m>
is normal in <x, y | x^2, y^2>, as x (xy)^m x = (xy)^-m, so what fixes
one point of a transitive orbit fixes all of them.  Later definitions
and coincidences keep this true.  So two kinds of trace are skipped, as
HLT would close them at their start coset without a definition or a
coincidence:

* once a coset's row is filled, a dihedral relator in a generator g
  with c^g < c, since c^g was scanned and w closed there;
* every relator left at a coset merged into an earlier one, since each
  has closed at that root.

The generators g with c^g < c form a mask, and the relators traced at c
are the list kept for that mask, made the first time the mask is met;
only the masks that occur get a list.  Subgroup words are never skipped.

The table size cap counts every coset HLT defines, dead or alive, stored
or only counted, and fires at the same definition as in HLT.
Hitting the cap is a distinguished inconclusive outcome, not an error:
the presented group may simply be infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

DEFAULT_CAPACITY = 10 ** 6


@dataclass
class EnumerationResult:
    status: str                 # "finite" or "capacity-exceeded"
    index: int | None           # subgroup index when finite
    allocated: int              # cosets ever defined, including merged ones
    table: list[list[int]] | None   # standardized action table, rows 1..index


def _pair_bits(word) -> int:
    """1<<x | 1<<y for a dihedral word (x y)^m with x != y, else 0."""
    if not word or len(word) % 2 or word[0] == word[1] or word != word[:2] * (len(word) // 2):
        return 0
    return 1 << word[0] | 1 << word[1]


def _find(table: list[int], c: int) -> int:
    root = c
    while table[root] != -1:
        root = table[root]
    while c != root:
        table[c], c = root, table[c]
    return root


def _unify(table: list[int], ngens: int, c1: int, c2: int):
    """Merge two live cosets and every coincidence that follows, by
    COINCIDENCE as described above.  On return no live row names a dead
    coset, and c^g = d holds exactly when d^g = c, as on entry."""
    if c2 < c1:
        c1, c2 = c2, c1
    table[c2] = c1
    queue = [c2]
    push = queue.append
    for b in queue:
        for g in range(1, ngens + 1):
            nb = table[b + g]
            if nb == -1:
                continue
            table[nb + g] = -1
            mu, nu = _find(table, b), _find(table, nb)
            e = table[mu + g]
            if e == -1:
                e = table[nu + g]
                if e == -1:
                    table[mu + g] = nu
                    table[nu + g] = mu
                    continue
                nu = mu                 # merge mu with nu^g
            e = _find(table, e)         # else nu with mu^g
            if e != nu:
                if e < nu:
                    nu, e = e, nu
                table[e] = nu
                push(e)


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
    # traced the long way.  Each word is stored with its length, and each
    # relator beside the bits of x and y if it is dihedral, (x y)^m, else 0.
    rels = [((w, all(map(int.__ne__, w, w[1:])), len(w)), _pair_bits(w)) for w in rels]
    subs = [(w, all(map(int.__ne__, w, w[1:])), len(w)) for w in subs]
    by_early = {}               # early mask -> the relators traced under it

    width = ngens + 1
    capped = EnumerationResult(status="capacity-exceeded", index=None, allocated=capacity, table=None)
    blank = [-1] * width
    table = list(blank)         # row 0 is the subgroup's own coset
    top = width                 # offset of the next row to store
    allocated = 1
    scan, words = 0, subs       # the subgroup words at coset 0 come first
    while True:
        for word, plain, k in words:
            # Live rows name only live cosets, and no coincidence is
            # processed while a word is traced.
            c = s = scan
            i = 0
            for g in word:
                d = table[c + g]
                if d == -1:
                    break
                c = d
                i += 1
            if i == k:
                d = s
            elif plain:
                # The path runs off the table after i letters: HLT defines
                # one coset per letter left, e_{i+1} .. e_k, and identifies
                # e_k with s.  That identification merges e_k .. e_q into
                # the cosets b met by tracing the word backwards from s, so
                # those are counted but never stored.
                if allocated + k - i > capacity:
                    return capped
                allocated += k - i
                b, q = s, k
                while q > i + 1:       # b = s w[k-1] w[k-2] ... w[q-1]
                    d = table[b + word[q - 1]]
                    if d == -1:
                        break
                    b = d
                    q -= 1
                # Store e_{i+1} .. e_{q-1} (none for a deduction, q = i + 1)
                # and join the last to b by h = w[q-1].  If b^h is defined,
                # as in a fold (b = c, h = g), it and c are one coset.  c^h
                # is not set first: _unify needs c^g = d exactly when d^g = c.
                for g in word[i:q - 1]:
                    table.extend(blank)
                    table[c + g] = top
                    table[top + g] = c
                    c = top
                    top += width
                h = word[q - 1]
                d = table[b + h]
                if d == -1:
                    table[c + h] = b
                    table[b + h] = c
                    continue
            else:
                # A doubled letter: the long way, define every coset, then identify.
                for g in word[i:]:
                    d = table[c + g]
                    if d == -1:
                        if allocated >= capacity:
                            return capped
                        allocated += 1
                        table.extend(blank)
                        d = top
                        top += width
                        table[c + g] = d
                        table[d + g] = c
                    c = d
                d = s
            if c != d:
                _unify(table, ngens, c, d)
                if table[scan] != -1:   # merged: every relator closes at its root
                    break
        if words is not subs:
            scan += width
            while scan < top and table[scan] != -1:
                scan += width
            if scan == top:
                break
        early = 0
        for g in range(1, width):   # the squares at this coset: fill its row
            d = table[scan + g]
            if d == -1:
                if allocated >= capacity:
                    return capped
                allocated += 1
                table.extend(blank)
                table[scan + g] = top
                table[top + g] = scan
                top += width
            elif d < scan:          # scanned before this coset
                early |= 1 << g
        # A dihedral relator in a generator of early has closed at an
        # earlier coset of its orbit.
        words = by_early.get(early)
        if words is None:
            words = by_early[early] = [w for w, pair in rels if not pair & early]
    std = _standardize(table, width)
    return EnumerationResult(status="finite", index=len(std), allocated=allocated, table=std)


def _standardize(table: list[int], width: int) -> list[list[int]]:
    """Renumber live cosets in breadth-first order from the subgroup coset.

    Reads the table as COINCIDENCE leaves it: no live row names a dead
    coset, so each entry is read as it stands.  Coset 0 is always live,
    since a coincidence keeps the smaller coset.
    """
    order = {0: 1}
    queue = [0]
    for c in queue:
        for d in table[c + 1:c + width]:
            if d == -1:
                raise ValueError("closed table expected after successful enumeration")
            if d not in order:
                order[d] = len(order) + 1
                queue.append(d)
    if len(order) != table[::width].count(-1):
        raise ValueError("live cosets are not all reachable from the start")
    return [[order[d] for d in table[c + 1:c + width]] for c in order]


def check_result(result: EnumerationResult, ngens: int, relators, subgroup_gens=()) -> bool:
    """Full post-hoc validation of a finite enumeration.

    The table must have one row per coset, at least coset 1, and one
    entry in 1..index per generator, every generator must act as a
    permutation of the cosets, every relator must fix every coset, and
    every subgroup word must fix coset 1.  A word with a letter outside
    1..ngens (up to sign) fails.
    """
    if result.status != "finite" or result.table is None:
        return False
    if any(not 1 <= abs(g) <= ngens for w in (*relators, *subgroup_gens) for g in w):
        return False
    n, table = result.index, result.table
    if type(n) is not int or n < 1 or len(table) != n or any(len(row) != ngens for row in table):
        return False
    if not set(map(type, chain.from_iterable(table))) <= {int}:
        return False
    # columns[g][c] is the image of coset c under generator g.  Each column a
    # permutation of 1..n also confines every entry to 1..n.
    columns = [None] + [[0, *column] for column in zip(*table)]
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
