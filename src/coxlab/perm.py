"""Exact permutations on plane indices 1..n.

One-line notation, 1-based, matching the plane numbering of the
degeneration diagrams.  The composition convention is fixed once and for
all as (p * q)(i) = p(q(i)), i.e. q acts first; every word evaluation in
the rest of the package is defined against this convention.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..n}, stored as the tuple (p(1), ..., p(n))."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    def to_json(self) -> list[int]:
        return list(self.images)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def transposition(alpha: int, beta: int, n: int) -> Permutation:
    """The transposition (alpha beta) in S_n."""
    if not (1 <= alpha <= n and 1 <= beta <= n):
        raise ValueError(f"transposition indices out of range 1..{n}: ({alpha}, {beta})")
    if alpha == beta:
        raise ValueError(f"degenerate transposition ({alpha}, {beta})")
    images = list(range(1, n + 1))
    images[alpha - 1], images[beta - 1] = beta, alpha
    return Permutation(tuple(images))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p * q)(i) = p(q(i)): apply q first."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return Permutation(tuple(p.images[v - 1] for v in q.images))

