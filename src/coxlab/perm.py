"""Plane permutations as {plane: image} over the planes they move.

Planes are numbered 1..n as in the degeneration diagrams.  A plane that
is not a key is fixed, and no fixed point is ever stored, so == is
equality of permutations and the identity is the empty dict.  The
composition convention is fixed once and for all as
(p * q)(i) = p(q(i)), i.e. q acts first; every word evaluation in the
rest of the package is defined against this convention.
"""

from __future__ import annotations


def identity() -> dict[int, int]:
    return {}


def transposition(alpha: int, beta: int, n: int) -> dict[int, int]:
    """The transposition (alpha beta) of the planes 1..n."""
    if not (1 <= alpha <= n and 1 <= beta <= n):
        raise ValueError(f"transposition indices out of range 1..{n}: ({alpha}, {beta})")
    if alpha == beta:
        raise ValueError(f"degenerate transposition ({alpha}, {beta})")
    return {alpha: beta, beta: alpha}


def compose(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    """(p * q)(i) = p(q(i)): apply q first."""
    images = {i: p.get(j, j) for i, j in q.items()}
    return {i: j for i, j in {**p, **images}.items() if i != j}
