import random
import time
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form as sympy_smith_normal_form

from coxlab.snf import abelian_invariants, smith_normal_form


def test_identity_matrix_presents_trivial_group():
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert smith_normal_form(eye) == [1, 1, 1, 1]
    assert abelian_invariants(eye, 4) == (0, [])


def test_single_commutator_relator():
    # Three generators, one relator killing the last: free of rank 2.
    assert abelian_invariants([[0, 0, -1]], 3) == (2, [])


def test_known_diagonal():
    # det -8, gcd 2, so the chain is 2 | 4.
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]


def test_torsion_extraction():
    assert abelian_invariants([[2, 0], [0, 2]], 2) == (0, [2, 2])
    assert abelian_invariants([[2, 0, 0], [0, 3, 0]], 3) == (1, [6])


def test_zero_matrix():
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert abelian_invariants([[0, 0], [0, 0]], 2) == (2, [])


def _det(m):
    # Exact cofactor expansion; fine for the small random cases here.
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def _maximal_minor_gcd(m):
    # The product of the Smith diagonal is the gcd of the maximal minors;
    # for a square matrix that is |det|.
    k = min(len(m), len(m[0]))
    g = 0
    for rows in combinations(m, k):
        for cols in combinations(range(len(m[0])), k):
            g = gcd(g, _det([[row[c] for c in cols] for row in rows]))
    return g


def test_divisibility_chain_and_determinant_random():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 7)
        shapes = [(n, n), (n, rng.randint(1, 7)), (rng.randint(1, 7), n)]
        for rows, cols in shapes:
            m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            diag = smith_normal_form(m)
            assert len(diag) == min(rows, cols)
            for a, b in zip(diag, diag[1:]):
                if a:
                    assert b % a == 0
                else:
                    assert b == 0
            assert all(d >= 0 for d in diag)
            prod = 1
            for d in diag:
                prod *= d
            assert prod == _maximal_minor_gcd(m)


@pytest.mark.parametrize("matrix, expected", [
    ([[-3, -6, 5, 6, 7], [-8, -1, -6, -7, 6], [4, -4, -8, -2, 8],
      [6, 2, -4, -1, 5], [3, -7, 5, -9, 7], [-2, 2, -5, 4, -1]],
     [1, 1, 1, 1, 2]),
    ([[-4, -5, -4, -1, 4, 6], [5, -2, -4, 4, 7, -8], [-5, -4, 2, 9, -3, -9],
      [0, -3, 3, -9, -5, 5], [-1, -5, -7, 5, 1, -4], [-7, 8, -3, 5, -3, 2]],
     [1, 1, 1, 1, 1, 240497]),
])
def test_small_matrices_without_entry_blowup(matrix, expected):
    # A dense elimination that pivots within one row and column at a time
    # grew these entries past thousands of digits and did not finish.
    copy = [row[:] for row in matrix]
    start = time.perf_counter()
    assert smith_normal_form(matrix) == expected
    assert time.perf_counter() - start < 1.0
    assert matrix == copy


@st.composite
def _matrices(draw):
    # Up to 8 x 8 with entries in -20..20; 0 to 9 tenths of the cells are zero.
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    zeros = draw(st.integers(0, 9))
    return [[draw(st.integers(-20, 20)) if draw(st.integers(0, 9)) >= zeros else 0
             for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_matrices())
def test_agrees_with_sympy(m):
    reference = sympy_smith_normal_form(Matrix(m), domain=ZZ)
    expected = [abs(int(reference[i, i])) for i in range(min(len(m), len(m[0])))]
    assert smith_normal_form(m) == expected


def test_rectangular_shapes():
    assert smith_normal_form([[3, 0, 0]]) == [3]
    assert smith_normal_form([[3], [0], [0]]) == [3]


def test_ragged_matrix_rejected():
    for matrix in ([[1, 2], [3]], [[], [1]]):
        with pytest.raises(ValueError):
            smith_normal_form(matrix)


def test_abelian_invariants_reads_an_iterator_of_rows_once():
    assert abelian_invariants(iter([[2, 0], [0, 3]]), 2) == (0, [6])
    assert abelian_invariants(iter([]), 3) == (3, [])
    with pytest.raises(ValueError):
        abelian_invariants(iter([[2, 0], [0, 3, 0]]), 2)


def _sympy_diagonal(m):
    reference = sympy_smith_normal_form(Matrix(m), domain=ZZ)
    return [abs(int(reference[i, i])) for i in range(min(len(m), len(m[0])))]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_mostly_zero_rows_and_other_row_types(data):
    # Up to 12 x 8, most rows zero; the same matrix is then given with bool,
    # tuple and generator rows, and none of the inputs is modified.
    rows, cols = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 8))
    m = [[data.draw(st.integers(-9, 9)) if data.draw(st.integers(0, 9)) < 3 else 0
          for _ in range(cols)] if data.draw(st.integers(0, 3)) == 0 else [0] * cols
         for _ in range(rows)]
    copy = [row[:] for row in m]
    expected = _sympy_diagonal(m)
    assert smith_normal_form(m) == expected
    tuples = [tuple(row) for row in m]
    assert smith_normal_form(tuples) == expected
    assert smith_normal_form(list(row) for row in m) == expected
    assert smith_normal_form([(x for x in row) for row in m]) == expected
    assert m == copy and tuples == [tuple(row) for row in copy]
    bits = [[x % 2 == 1 for x in row] for row in m]
    assert smith_normal_form(bits) == _sympy_diagonal([[int(x) for x in row] for row in bits])


def test_zero_rows_keep_the_diagonal_length():
    assert smith_normal_form([[0, 0, 0]] * 5) == [0, 0, 0]
    assert smith_normal_form([[0, 0]] * 3 + [[0, 4]]) == [4, 0]
    assert smith_normal_form([(True, False), (False, False)]) == [1, 0]
