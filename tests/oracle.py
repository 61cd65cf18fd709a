"""The independent reference for the exact and reduced models.

The package builds exact images one way only, by the sparse
model.word_action, and multiplies only reduced elements.  This module
builds the exact model a second way, straight from its definition, for
the tests to compare against:

- phi sends a tree edge from a to b to ((a b), trivial tuple) and a chord
  x from tail t to head h to ((t h), x at t and x^-1 at h);
- mul is the dense product (s, f)(t, g) = (st, f^t g), with
  (f^t)_i = f_{t(i)} and each coordinate freely reduced;
- evaluate multiplies the phi images of a word's letters left to right.

For the reduced layer it adds the identity and the group inverse of
p^a q^b z^zeta.
"""

from functools import reduce

from coxlab.model import FreeTuple, ReducedElement, SemidirectElement
from coxlab.perm import identity, transposition


def free_reduce(word) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def unit(n: int) -> SemidirectElement:
    return SemidirectElement(identity(n), FreeTuple(((),) * n))


def phi(line_id: int, span, graph) -> SemidirectElement:
    """Image of one graph edge; an involution in either case."""
    if line_id not in graph.edges:
        raise ValueError(f"line {line_id} is not an edge of the graph")
    n = len(graph.vertices)
    chord = span.chord_by_line().get(line_id)
    if chord is None:
        return SemidirectElement(transposition(*graph.edges[line_id], n), unit(n).part)
    coords = [()] * n
    coords[chord.tail - 1] = (chord.index,)
    coords[chord.head - 1] = (-chord.index,)
    return SemidirectElement(transposition(chord.tail, chord.head, n), FreeTuple(tuple(coords)))


def phi_table(span, graph) -> dict[int, SemidirectElement]:
    return {e: phi(e, span, graph) for e in sorted(graph.edges)}


def mul(g: SemidirectElement, h: SemidirectElement) -> SemidirectElement:
    """(s, f)(t, g) = (st, f^t g) on free-word coordinates."""
    f, k, t = g.part.coords, h.part.coords, h.sigma
    if len(f) != len(k):
        raise ValueError(f"coordinate count mismatch: {len(f)} != {len(k)}")
    return SemidirectElement(g.sigma * t, FreeTuple(tuple(
        free_reduce(f[t(i) - 1] + k[i - 1]) for i in range(1, len(f) + 1))))


def evaluate(word, table: dict[int, SemidirectElement], n: int) -> SemidirectElement:
    """The dense product of the images of the word's letters; every image is
    an involution, so a letter's sign is ignored."""
    return reduce(mul, (table[abs(e)] for e in word), unit(n))


REDUCED_IDENTITY = ReducedElement.z(0)


def inverse(m: ReducedElement) -> ReducedElement:
    """(p^a q^b z^zeta)^-1 = p^-a q^-b z^(-zeta - a.b)."""
    cross = sum(ai * bi for ai, bi in zip(m.a, m.b))
    return ReducedElement(tuple(-x for x in m.a), tuple(-x for x in m.b), -m.zeta - cross)
