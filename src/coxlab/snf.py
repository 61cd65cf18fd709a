"""Smith normal form over the integers, exact, by sparse elimination.

Each row is a ``{column: nonzero entry}`` dict, which suits relation
matrices from presentations: sparse and mostly +-1 (Havas, Holt & Rees,
Linear Algebra Appl. 192, 1993; Havas & Majewski, J. Symbolic Comput. 24,
1997).  Plain Python integers throughout, so there is no overflow to
guard against.
"""

from __future__ import annotations

from math import gcd


def smith_normal_form(matrix) -> list[int]:
    """Nonnegative diagonal d_1 | d_2 | ... of the Smith normal form.

    The input is a rows x cols iterable of rows, each an iterable of
    exact integers (bools count as 0 and 1); it is not modified.  Returned
    diagonal has length min(rows, cols), padded with zeros, and satisfies
    the divisibility chain.
    """
    dense = [row if isinstance(row, (list, tuple)) else list(row) for row in matrix]
    cols = len(dense[0]) if dense else 0
    if any(len(row) != cols for row in dense):
        raise ValueError("ragged matrix")
    # A zero row is dropped before its dict is built, and int() sees only
    # nonzero entries.
    rows = [{c: int(x) for c, x in enumerate(row) if x} for row in dense if any(row)]

    diag: list[int] = []
    while rows:
        # The least |entry| over all rows, then the sparsest row, then the first.
        i = min(range(len(rows)), key=lambda k: (min(map(abs, rows[k].values())), len(rows[k])))
        pivot = rows[i]
        col, a = min(pivot.items(), key=lambda e: abs(e[1]))
        # Clear the pivot column by row operations.  A remainder is smaller
        # than |a|, so the pivot is chosen again and this terminates.
        remainder = False
        for row in rows:
            if row is not pivot and col in row:
                q = row[col] // a
                for c, x in pivot.items():
                    v = row.get(c, 0) - q * x
                    if v:
                        row[c] = v
                    else:
                        del row[c]
                remainder = remainder or col in row
        if not remainder:
            # Column operations reduce the pivot row mod a; no other row has
            # an entry in the pivot column, so no other row changes.
            residues = {c: x % a for c, x in pivot.items() if x % a}
            if residues:
                rows[i] = {col: a, **residues}
            else:
                diag.append(abs(a))
                rows[i] = {}
        rows = [row for row in rows if row]

    # The recorded pivots diagonalize the matrix; replacing pairs by
    # (gcd, lcm) keeps the group and reaches the divisibility chain.
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag + [0] * (min(len(dense), cols) - len(diag))


def abelian_invariants(matrix, ngens: int) -> tuple[int, list[int]]:
    """(free rank, torsion coefficients) of the abelian group presented
    by the given relation matrix (rows = relators, columns = generators)."""
    rows = list(matrix)  # read once: the matrix may be an iterator
    if any(len(row) != ngens for row in rows):
        raise ValueError("relation matrix width differs from generator count")
    diag = smith_normal_form(rows) if rows else []
    nonzero = [d for d in diag if d != 0]
    rank = ngens - len(nonzero)
    torsion = [d for d in nonzero if d != 1]
    return rank, torsion
