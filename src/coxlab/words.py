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


def _substitution_rules(known) -> dict[Word, list[Word]]:
    # Every relator r, rotated and reversed, split as r = lhs.rhs, yields the
    # rewrite lhs -> reversed(rhs) (words are involutive).  Rules are keyed
    # by their whole left side; each key lists its replacements in increasing
    # order.  Every prefix of a rotated relator is a key, even one left
    # without a replacement (lhs == reversed(rhs)), so the keys are closed
    # under prefixes.
    rules: dict[Word, set[Word]] = {}
    for raw in known:
        w = free_reduce_involutive(raw)
        if not w:
            continue
        for form in set(rotations(w)) | set(rotations(w[::-1])):
            for k in range(1, len(form) + 1):
                lhs, repl = form[:k], form[k:][::-1]
                repls = rules.setdefault(lhs, set())
                if lhs != repl:
                    repls.add(repl)
    return {lhs: sorted(repls) for lhs, repls in rules.items()}


def derive_bounded(known, target: Word, max_len: int) -> Derivation:
    """Search for a derivation that the target word is trivial.

    Moves: replace a subword matching one side of a known relator by the
    other side, then reduce squares; states are identified up to rotation
    and reversal (conjugation and inversion preserve triviality).  Words
    never exceed max_len.  Short words are explored first, so derivations
    that stay near the target length are found quickly.  The search stops,
    inconclusive, after MAX_STATES states.

    At each rotation of a state the rules are looked up by the rotation's
    prefixes in increasing length, and each prefix's replacements in
    increasing order.  That is the order of a scan over all rules sorted
    as (lhs, replacement) pairs: the left sides matching there are all
    prefixes of one word, and a prefix sorts before its extensions.  The
    keys are closed under prefixes, so the first prefix that is not a key
    ends the lookups at that rotation.

    Successors wait, by length and in the order first produced, until the
    heap holds no shorter state; only then are they put in canonical form
    and checked against parents.  The search pops and links the same
    states as when every successor was canonicalized at once: a state's
    length is its canonical form's, so the first producer of each form
    still becomes its parent, and every successor that could be popped
    next is on the heap before the pop.  The replays of the published
    hexagons pop no state longer than their targets, so most successors
    are never canonicalized.  A search that climbs pays in memory instead:
    it holds every distinct successor word until the heap reaches its
    length, where canonicalizing at once would keep only new forms.
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
    # Successors by length: each word with the depth and parent of its
    # first producer, in the order produced; see the docstring.
    waiting: dict[int, dict[Word, tuple[int, Word]]] = {}
    explored = 0

    while explored < MAX_STATES:
        for n in sorted(waiting):
            if heap and n > heap[0][0]:
                break
            for word, (depth, parent) in waiting.pop(n).items():
                word = canonical_form(word)
                if word not in parents:
                    parents[word] = parent
                    heapq.heappush(heap, (n, depth, word))
        if not heap:
            break
        length, depth, state = heapq.heappop(heap)
        explored += 1
        # Rules apply at every rotation, so slice the doubled word.
        doubled = state + state
        for pos in range(length):
            rotated = doubled[pos:pos + length]
            for k in range(1, length + 1):
                repls = rules.get(rotated[:k])
                if repls is None:
                    break
                rest = rotated[k:]
                for repl in repls:
                    nxt = free_reduce_involutive(repl + rest)
                    if len(nxt) > max_len:
                        continue
                    if not nxt:
                        chain: list[Word] = [nxt]
                        node: Word | None = state
                        while node is not None:
                            chain.append(node)
                            node = parents[node]
                        chain.reverse()
                        return Derivation(found=True, chain=chain, explored=explored)
                    waiting.setdefault(len(nxt), {}).setdefault(nxt, (depth + 1, state))
    return Derivation(found=False, chain=None, explored=explored)
