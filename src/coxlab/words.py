"""Words and relators over an involutive generator alphabet.

Words are tuples of positive generator indices.  Since every generator
squares to the identity in all the presentations handled here, a formal
inverse is just the letter itself; the inverse of a word is its reversal.
A word from outside is checked once, where it is parsed (word_from_json,
for presentation files and fixtures); the functions here take their
tuples as given.

Two relators define the same normal closure when one is a rotation of the
other or of its reversal, so relator identity goes through a canonical
form minimal over that whole orbit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

Word = tuple[int, ...]
Pair = tuple[int, int]


def word_from_json(letters, ngens: int, what: str) -> Word:
    """A JSON list of letters in 1..ngens as a word; ValueError naming `what` if not."""
    if type(letters) is not list or any(type(x) is not int or not 1 <= x <= ngens for x in letters):
        raise ValueError(f"{what} {letters!r} must be a list of integer letters in 1..{ngens}")
    return tuple(letters)


def free_reduce_involutive(word: Word) -> Word:
    """Delete subwords u.u until none remain (u^2 = 1 for every u)."""
    stack: list[int] = []
    for x in word:
        if stack and stack[-1] == x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def reduce_with_commutations(word, comm) -> Word:
    """Fixpoint of u.u -> empty and u_i u_j u_i -> u_j for commuting pairs.

    comm is a set of unordered pairs, each as a tuple in either order.

    The rewrite is not confluent, so its strategy (free reduction, then
    the leftmost i j i -> j, then a restart from the left) is part of what
    the clean reports pin, and the restart loop stays.  A one-pass stack
    reducer, even with free reduction first, gave a different word on 640
    of 200,000 random words (up to 16 letters over 2 to 6 generators, each
    pair commuting with probability 1/2): with {4, 6} and {1, 4} commuting,
    (5, 4, 1, 6, 4, 6, 4) reduces to (5, 4, 1) here and to (5, 1, 4) on a
    stack.
    """
    w = free_reduce_involutive(word)
    changed = True
    while changed:
        changed = False
        for k in range(len(w) - 2):
            i, j = w[k], w[k + 1]
            if w[k + 2] == i and i != j and ((i, j) in comm or (j, i) in comm):
                w = free_reduce_involutive(w[:k] + (j,) + w[k + 3:])
                changed = True
                break
    return w


def rotations(word: Word):
    for k in range(len(word)):
        yield word[k:] + word[:k]


def canonical_form(word: Word) -> Word:
    """Lexicographic minimum over all rotations of the word and its reversal.

    That minimum begins with the word's least letter, so only the
    rotations starting with it are compared.
    """
    if not word:
        return word
    least, n = min(word), len(word)
    return min(w[k:] + w[:k] for w in (word, word[::-1]) for k in range(n) if w[k] == least)


@dataclass
class CleanReport:
    """Fixpoint classification of a relator list.

    squares: generators seen as square relators (dropped), commutations and
    braids as unordered pairs, misc the surviving relators keyed by
    canonical form, each key keeping its least word.  Every commutation
    discovered along the way was fed back into the rewriting until nothing
    changed; `passes` counts the sweeps that took.
    """

    squares: set[int] = field(default_factory=set)
    commutations: set[Pair] = field(default_factory=set)
    braids: set[Pair] = field(default_factory=set)
    misc: dict[Word, Word] = field(default_factory=dict)
    passes: int = 0

    def to_json(self) -> dict:
        return {
            "squares": sorted(self.squares),
            "commutations": [list(p) for p in sorted(self.commutations)],
            "braids": [list(p) for p in sorted(self.braids)],
            "misc": [list(self.misc[k]) for k in sorted(self.misc)],
            "passes": self.passes,
        }


def clean(relators) -> CleanReport:
    """Classify relators, rewriting with the squares and every commutation found.

    A relator reducing to (i j i j) registers the commutation {i, j}; one
    reducing to (i j i j i j) registers the braid pair {i, j}; squares are
    dropped.  Newly found commutations are used to re-reduce everything,
    repeating to a fixpoint.  Only commutations are used as rewriting
    rules, never braids.
    """
    pending = [tuple(w) for w in relators]
    report = CleanReport()
    while True:
        report.passes += 1
        survivors: list[Word] = []
        changed = False
        for w in pending:
            if len(w) == 2 and w[0] == w[1]:
                report.squares.add(w[0])
                changed = True
                continue
            if len(w) == 4 and w[0] == w[2] != w[1] == w[3]:
                # (u_i u_j)^2, i != j: the rewrite below would leave it to
                # register {i, j}, or empty it once {i, j} is known.
                report.commutations.add((w[0], w[1]) if w[0] < w[1] else (w[1], w[0]))
                changed = True
                continue
            w = reduce_with_commutations(w, report.commutations)
            if not w:
                changed = True
                continue
            # (u_i u_j)^2 or (u_i u_j)^3; w is reduced, so i != j.
            if len(w) in (4, 6) and w == w[:2] * (len(w) // 2):
                pairs = report.commutations if len(w) == 4 else report.braids
                pairs.add(tuple(sorted(w[:2])))
                changed = True
                continue
            survivors.append(w)
        pending = survivors
        if not changed:
            break
    if report.commutations & report.braids:
        overlap = sorted(report.commutations & report.braids)
        raise ValueError(f"degenerate input: pairs both commute and braid: {overlap}")
    for w in pending:
        key = canonical_form(w)
        kept = report.misc.get(key)
        if kept is None or w < kept:
            report.misc[key] = w
    return report


MAX_STATES = 300_000  # states derive_bounded explores before it gives up


@dataclass
class Derivation:
    """Outcome of a bounded triviality search.

    found=True comes with a certificate chain of words from the target down
    to the empty word, each obtained from the previous one by a single
    relator substitution (up to rotation, reversal and square deletion).
    found=False is inconclusive, never a proof of independence.
    """

    found: bool
    chain: list[Word] | None
    explored: int


def _substitution_rules(known) -> dict[int, list[tuple[Word, Word]]]:
    # Every relator r, rotated and reversed, split as r = lhs.rhs, yields the
    # rewrite lhs -> reversed(rhs) (words are involutive).  Rules are indexed
    # by their first letter.
    rules: set[tuple[Word, Word]] = set()
    for raw in known:
        w = free_reduce_involutive(raw)
        if not w:
            continue
        forms = set(rotations(w)) | set(rotations(w[::-1]))
        for form in forms:
            for k in range(1, len(form) + 1):
                lhs, rhs = form[:k], form[k:]
                repl = rhs[::-1]
                if lhs != repl:
                    rules.add((lhs, repl))
    indexed: dict[int, list[tuple[Word, Word]]] = {}
    for lhs, repl in sorted(rules):
        indexed.setdefault(lhs[0], []).append((lhs, repl))
    return indexed


def derive_bounded(known, target: Word, max_len: int) -> Derivation:
    """Search for a derivation that the target word is trivial.

    Moves: replace a subword matching one side of a known relator by the
    other side, then reduce squares; states are identified up to rotation
    and reversal (conjugation and inversion preserve triviality).  Words
    never exceed max_len.  Short words are explored first, so derivations
    that stay near the target length are found quickly.  The search stops,
    inconclusive, after MAX_STATES states.
    """
    target_w = free_reduce_involutive(target)
    if max_len < len(target_w):
        raise ValueError(f"max_len {max_len} is below the reduced target length {len(target_w)}")
    if not target_w:
        return Derivation(found=True, chain=[target], explored=0)

    rules = _substitution_rules(known)
    start = canonical_form(target_w)
    parents: dict[Word, Word | None] = {start: None}
    heap: list[tuple[int, int, Word]] = [(len(start), 0, start)]
    explored = 0

    while heap and explored < MAX_STATES:
        length, depth, state = heapq.heappop(heap)
        explored += 1
        # Rules apply at every rotation, so scan the doubled word once.
        doubled = state + state
        # A successor this state already produced has its canonical form
        # in parents, so it is skipped before canonical_form runs.
        produced: set[Word] = set()
        for pos in range(len(state)):
            for lhs, repl in rules.get(doubled[pos], ()):
                if len(lhs) > len(state):
                    continue
                if doubled[pos:pos + len(lhs)] != lhs:
                    continue
                rotated = doubled[pos:pos + len(state)]
                nxt = free_reduce_involutive(repl + rotated[len(lhs):])
                if len(nxt) > max_len or nxt in produced:
                    continue
                produced.add(nxt)
                nxt = canonical_form(nxt)
                if nxt in parents:
                    continue
                parents[nxt] = state
                if not nxt:
                    chain: list[Word] = []
                    node: Word | None = nxt
                    while node is not None:
                        chain.append(node)
                        node = parents[node]
                    chain.reverse()
                    return Derivation(found=True, chain=chain, explored=explored)
                heapq.heappush(heap, (len(nxt), depth + 1, nxt))
    return Derivation(found=False, chain=None, explored=explored)
