"""Coset enumeration for involutive presentations.

Relator-scanning (HLT) enumeration: each live coset in turn has every
relator traced from it, defining new cosets where the path runs off the
table, and the path's end is identified with the coset it started from.
Every generator is an involution and acts as its own inverse, so defining
c^g = d sets d^g = c at the same time and no doubled alphabet is needed.
So squares are not traced: each live coset first defines its undefined
entries in generator order, as tracing every g g would.  The empty
relator, and a relator equal up to signs to a square or to an earlier
one, is dropped, as its path stays closed at a coset once it has closed
there.  Every relator left has a first letter, and a trace of it starts
at that letter's image, which the filled row holds.

The action table is one list per generator, a column: ``cols[g - 1][c]``
is the image of coset c under generator g (``-1`` while undefined).
Cosets are numbered in the order their rows are stored, and a list
``link`` beside the columns holds each coset's link in a union-find
forest over the cosets (``-1`` while the coset is live).  A word is held
as the tuple of its letters' columns, so a step of a trace is one list
read, ``d = col[c]``, with no offset to add and no int to make.  The
columns and the links grow together by blocks of blank rows.  The first
block, 2,048 rows or the cap if that is smaller, holds a small
enumeration whole (the hexagon quotient stores 1,324 rows); the next,
8,192, keeps a run that stores a few thousand small; at 16,384 rows each
list holds 128 KiB, glibc's mmap threshold, and from there it is mapped
and grows by 1,024 rows at a time without being copied.  No more rows
are stored than cosets are defined, so the cap bounds the table.

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
BLOCK_ROWS = (2048, 8192, 16384)    # the table's first sizes in rows, then
STEP_ROWS = 1024                    # this many more at each growth


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


def _find(link: list[int], c: int) -> int:
    root = c
    while link[root] != -1:
        root = link[root]
    while c != root:
        link[c], c = root, link[c]
    return root


def _unify(cols: list[list[int]], link: list[int], c1: int, c2: int):
    """Merge two live cosets and every coincidence that follows, by
    COINCIDENCE as described above.  On return no live row names a dead
    coset, and c^g = d holds exactly when d^g = c, as on entry."""
    if c2 < c1:
        c1, c2 = c2, c1
    link[c2] = c1
    queue = [c2]
    push = queue.append
    for b in queue:
        for col in cols:
            nb = col[b]
            if nb == -1:
                continue
            col[nb] = -1
            mu, nu = _find(link, b), _find(link, nb)
            e = col[mu]
            if e == -1:
                e = col[nu]
                if e == -1:
                    col[mu] = nu
                    col[nu] = mu
                    continue
                nu = mu                 # merge mu with nu^g
            e = _find(link, e)          # else nu with mu^g
            if e != nu:
                if e < nu:
                    nu, e = e, nu
                link[e] = nu
                push(e)


def _grow(cols: list[list[int]], link: list[int], size: int) -> int:
    """Add blank rows to every column and to the links; return the new
    number of rows, the next of BLOCK_ROWS or STEP_ROWS more."""
    new = next((n for n in BLOCK_ROWS if n > size), size + STEP_ROWS)
    blank = [-1] * (new - size)
    for col in cols:
        col.extend(blank)
    link.extend(blank)
    return new


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
    rels = [w for w in dict.fromkeys(rels) if w and not (len(w) == 2 and w[0] == w[1])]
    cols = [None] * ngens       # one block first, so a huge ngens fails at once
    size = min(BLOCK_ROWS[0], capacity)
    for g in range(ngens):
        cols[g] = [-1] * size
    link = [-1] * size

    def traced(w, head=()):
        # Flag the words in which no letter repeats the one before it.  Any
        # other word doubles back onto a coset its own trace has just
        # defined, so it defines fewer cosets than it has letters left, and
        # it is always traced the long way.  Each word is stored as the
        # columns of its letters, after its head, with its tail and length.
        word = (*head, *[cols[g - 1] for g in w])
        return word, word[1:], all(map(int.__ne__, w, w[1:])), len(word)

    # Each relator beside the bits of x and y if it is dihedral, (x y)^m,
    # else 0.  Only the generators of dihedral relators can mask one, so
    # only their columns carry a bit for the early mask.
    rels = [(w, _pair_bits(w)) for w in rels]
    paired = {g for w, pair in rels if pair for g in w[:2]}
    colbits = [(col, 1 << g if g in paired else 0) for g, col in enumerate(cols, 1)]
    # A trace starts at the first letter's image, which the scanned coset's
    # filled row holds.  The subgroup words are traced at coset 0 before
    # its row is filled, so each gets a head column that sends 0 to itself.
    rels = [(traced(w), pair) for w, pair in rels]
    subs = [traced(w, ([0],)) for w in subs]
    by_early = {}               # early mask -> the relators traced under it

    capped = EnumerationResult(status="capacity-exceeded", index=None, allocated=capacity, table=None)
    top = 1                     # coset 0 is the subgroup's own; top is the next to store
    left = capacity - 1         # cosets HLT may still define under the cap
    scan, words = 0, subs       # the subgroup words at coset 0 come first
    while True:
        s = scan
        for word, tail, plain, k in words:
            # Live rows name only live cosets, and no coincidence is
            # processed while a word is traced.
            c = word[0][s]
            i = 1
            for col in tail:
                d = col[c]
                if d == -1:
                    break
                c = d
                i += 1
            if i == k:
                d = s
            elif plain:
                # The path runs off the table after i letters: HLT defines
                # one coset per letter left, e_{i+1} .. e_k, and identifies
                # e_k with s.  That identification merges e_k .. e_{p+1}
                # into the cosets b met by tracing the word backwards from
                # s, so those are counted but never stored.
                left -= k - i
                if left < 0:
                    return capped
                b, p = s, k - 1
                while p > i:           # b = s w[k-1] w[k-2] ... w[p+1]
                    d = word[p][b]
                    if d == -1:
                        break
                    b = d
                    p -= 1
                # Store e_{i+1} .. e_p (none for a deduction, p = i) and
                # join the last to b by h = w[p].  If b^h is defined,
                # as in a fold (b = c, h = g), it and c are one coset.  c^h
                # is not set first: _unify needs c^g = d exactly when d^g = c.
                for col in word[i:p]:
                    if top == size:
                        size = _grow(cols, link, size)
                    col[c] = top
                    col[top] = c
                    c = top
                    top += 1
                col = word[p]
                d = col[b]
                if d == -1:
                    col[c] = b
                    col[b] = c
                    continue
            else:
                # A doubled letter: the long way, define every coset, then identify.
                for col in word[i:]:
                    d = col[c]
                    if d == -1:
                        if not left:
                            return capped
                        left -= 1
                        if top == size:
                            size = _grow(cols, link, size)
                        d = top
                        top += 1
                        col[c] = d
                        col[d] = c
                    c = d
                d = s
            if c != d:
                _unify(cols, link, c, d)
                if link[scan] != -1:    # merged: every relator closes at its root
                    break
        if words is not subs:
            scan += 1
            while scan < top and link[scan] != -1:
                scan += 1
            if scan == top:
                break
        early = 0
        for col, bit in colbits:    # the squares at this coset: fill its row
            d = col[scan]
            if d == -1:
                if not left:
                    return capped
                left -= 1
                if top == size:
                    size = _grow(cols, link, size)
                col[scan] = top
                col[top] = scan
                top += 1
            elif d < scan:          # scanned before this coset
                early |= bit
        # A dihedral relator in a generator of early has closed at an
        # earlier coset of its orbit.
        words = by_early.get(early)
        if words is None:
            words = by_early[early] = [w for w, pair in rels if not pair & early]
    std = _standardize(cols, link, top)
    return EnumerationResult(status="finite", index=len(std), allocated=capacity - left, table=std)


def _standardize(cols: list[list[int]], link: list[int], top: int) -> list[list[int]]:
    """Renumber live cosets in breadth-first order from the subgroup coset.

    Reads the table as COINCIDENCE leaves it: no live row names a dead
    coset, so each entry is read as it stands.  Coset 0 is always live,
    since a coincidence keeps the smaller coset.  The rows from top on
    are blank, not yet stored.
    """
    rows = list(zip(*[col[:top] for col in cols])) if cols else [()] * top
    order = {0: 1}
    queue = [0]
    for c in queue:
        for d in rows[c]:
            if d == -1:
                raise ValueError("closed table expected after successful enumeration")
            if d not in order:
                order[d] = len(order) + 1
                queue.append(d)
    if len(order) != link[:top].count(-1):
        raise ValueError("live cosets are not all reachable from the start")
    return [[order[d] for d in rows[c]] for c in order]


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
