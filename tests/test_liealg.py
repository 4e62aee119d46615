import itertools
import math
import random
from fractions import Fraction

import pytest

from sympbw.liealg import (
    Root,
    bar,
    jpos,
    make_root,
    mat_add,
    mat_mul,
    mat_scale,
    positive_roots,
    root_from_dict,
    root_key,
    root_vector_matrix,
    root_vector_weight,
    symplectic_form,
    transpose,
    weyl_dimension,
)

# Dimensions computed independently by Freudenthal's recursion formula and
# frozen here; (n, m-vector) -> dim.
DIMENSIONS = {
    (1, (0,)): 1, (1, (1,)): 2, (1, (2,)): 3, (1, (3,)): 4,
    (2, (0, 0)): 1, (2, (0, 1)): 5, (2, (0, 2)): 14, (2, (0, 3)): 30,
    (2, (1, 0)): 4, (2, (1, 1)): 16, (2, (1, 2)): 40,
    (2, (2, 0)): 10, (2, (2, 1)): 35, (2, (3, 0)): 20,
    (3, (0, 0, 0)): 1, (3, (0, 0, 1)): 14, (3, (0, 0, 2)): 84, (3, (0, 0, 3)): 330,
    (3, (0, 1, 0)): 14, (3, (0, 1, 1)): 126, (3, (0, 1, 2)): 594,
    (3, (0, 2, 0)): 90, (3, (0, 2, 1)): 616, (3, (0, 3, 0)): 385,
    (3, (1, 0, 0)): 6, (3, (1, 0, 1)): 70, (3, (1, 0, 2)): 378,
    (3, (1, 1, 0)): 64, (3, (1, 1, 1)): 512, (3, (1, 2, 0)): 350,
    (3, (2, 0, 0)): 21, (3, (2, 0, 1)): 216, (3, (2, 1, 0)): 189,
    (3, (3, 0, 0)): 56,
}


def test_bar_is_an_involution():
    for n in range(1, 6):
        for r in range(1, 2 * n + 1):
            assert 1 <= bar(r, n) <= 2 * n
            assert bar(bar(r, n), n) == r
        assert bar(n, n) == n + 1


def test_positive_roots_n2_order():
    assert positive_roots(2) == [
        Root(1, 1, False),
        Root(1, 2, False),
        Root(1, 1, True),
        Root(2, 2, False),
    ]


def test_positive_roots_counts_and_keys():
    for n in range(1, 6):
        roots = positive_roots(n)
        assert len(roots) == n * n
        keys = [root_key(a, n) for a in roots]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for a in roots:
            assert a.i <= jpos(a, n) <= 2 * n - a.i


def test_make_root_normalizes_barred_n():
    assert make_root(3, 1, 3, barred=True) == Root(1, 3, False)
    assert make_root(3, 2, 3, barred=False) == Root(2, 3, False)
    with pytest.raises(ValueError):
        make_root(3, 2, 1)
    with pytest.raises(ValueError):
        make_root(3, 0, 1)
    with pytest.raises(ValueError):
        make_root(3, 1, 4)


def test_root_dict_roundtrip():
    for n in (2, 3):
        for a in positive_roots(n):
            assert root_from_dict(n, a.to_dict()) == a


def test_root_is_a_named_tuple():
    alpha = Root(1, 2, True)
    assert repr(alpha) == "Root(i=1, j=2, barred=True)"
    assert alpha.to_dict() == {"i": 1, "j": 2, "barred": True}
    assert alpha == (1, 2, True) and hash(alpha) == hash((1, 2, True))
    assert Root(1, 2) == Root(1, 2, False)


def test_root_vector_matrices_n2():
    def e(a, b, size=4):
        m = [[0] * size for _ in range(size)]
        m[a - 1][b - 1] = 1
        return m

    def add(x, y):
        return [[u + v for u, v in zip(r1, r2)] for r1, r2 in zip(x, y)]

    def neg(x):
        return [[-v for v in r] for r in x]

    assert root_vector_matrix(2, Root(1, 1, False)) == add(e(2, 1), neg(e(4, 3)))
    assert root_vector_matrix(2, Root(1, 2, False)) == add(e(3, 1), e(4, 2))
    assert root_vector_matrix(2, Root(1, 1, True)) == e(4, 1)
    assert root_vector_matrix(2, Root(2, 2, False)) == e(3, 2)


def in_symplectic_algebra(n, mat):
    """True iff mat^T Psi + Psi mat = 0."""
    psi = symplectic_form(n)
    lhs = mat_add(mat_mul(transpose(mat), psi), mat_mul(psi, mat))
    return all(all(x == 0 for x in row) for row in lhs)


def cartan_element(n, coeffs):
    """diag(t_1, ..., t_n, -t_n, ..., -t_1) for coeffs = (t_1, ..., t_n)."""
    size = 2 * n
    mat = [[0] * size for _ in range(size)]
    for i, t in enumerate(coeffs):
        mat[i][i] = t
        mat[size - 1 - i][size - 1 - i] = -t
    return mat


def test_root_vectors_lie_in_the_algebra():
    for n in range(1, 5):
        for a in positive_roots(n):
            assert in_symplectic_algebra(n, root_vector_matrix(n, a))


def test_root_vector_weight_matches_cartan_action():
    # [h, f_alpha] = -alpha(h) f_alpha for h = diag(t, -t reversed)
    for n in (2, 3):
        for a in positive_roots(n):
            f = root_vector_matrix(n, a)
            wt = root_vector_weight(n, a)
            for trial in range(n):
                coeffs = [1 + ((trial + i) % n) for i in range(n)]
                h = cartan_element(n, coeffs)
                expected = sum(c * w for c, w in zip(coeffs, wt))
                bracket = mat_add(mat_mul(h, f), mat_scale(-1, mat_mul(f, h)))
                assert bracket == [[expected * v for v in row] for row in f]


def test_root_vector_squares_vanish():
    # so exp(c f_alpha) = I + c f_alpha, which the classical sampler relies on
    for n in range(1, 6):
        for a in positive_roots(n):
            f = root_vector_matrix(n, a)
            assert mat_mul(f, f) == [[0] * 2 * n for _ in range(2 * n)]


def test_symplectic_form_shape():
    psi = symplectic_form(2)
    assert psi == [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [-1, 0, 0, 0],
    ]
    for n in (2, 3):
        psi = symplectic_form(n)
        assert transpose(psi) == [[-v for v in row] for row in psi]


def test_weyl_dimension_frozen_table():
    for (n, m), dim in DIMENSIONS.items():
        assert weyl_dimension(n, m) == dim


def test_weyl_dimension_rejects_bad_input():
    with pytest.raises(ValueError):
        weyl_dimension(2, (1,))
    with pytest.raises(ValueError):
        weyl_dimension(2, (-1, 0))
    for n, m in ((1, (0.5,)), (2, (1.0, 1)), (2, (True, 1))):
        with pytest.raises(ValueError):
            weyl_dimension(n, m)


def _bareiss(mat):
    """Fraction-free Gaussian elimination (Bareiss 1968) of an integer matrix.

    Returns (rank, d).  After each pivot every remaining entry is a minor of
    the row-permuted input, so the division by the previous pivot is exact;
    d is the last pivot with the sign of the row swaps, which is the
    determinant when the matrix is square of full rank.  Floor division
    would give wrong values on non-integers, so those raise ValueError.
    """
    work = [list(row) for row in mat]
    if not all(isinstance(x, int) for row in work for x in row):
        raise ValueError("elimination needs integer entries")
    rows = len(work)
    cols = len(work[0]) if work else 0
    found, sign, prev = 0, 1, 1
    for c in range(cols):
        pivot = next((r for r in range(found, rows) if work[r][c]), None)
        if pivot is None:
            continue
        if pivot != found:
            work[found], work[pivot] = work[pivot], work[found]
            sign = -sign
        top = work[found]
        p = top[c]
        for r in range(found + 1, rows):
            row = work[r]
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (p * row[j] - f * top[j]) // prev
        prev = p
        found += 1
    return found, sign * prev


def rank(vectors):
    """Exact rank of a list of integer vectors of one length, by Bareiss
    elimination.  The oracle of the isotropy check's span membership
    (tests/test_verify.py)."""
    return _bareiss(vectors)[0]


def det(mat):
    """Exact determinant of a square integer matrix, by Bareiss elimination."""
    found, d = _bareiss(mat)
    return d if found == len(mat) else 0


def matrix_minor(mat, row_set, col_set):
    """Determinant of the submatrix on the given 1-indexed row/column index sets.

    The oracle of the point samplers' minors (tests/test_verify.py).
    """
    sub = [[mat[r - 1][c - 1] for c in sorted(col_set)] for r in sorted(row_set)]
    return det(sub)


def test_matrix_minor_small():
    mat = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert matrix_minor(mat, (1,), (1,)) == 1
    assert matrix_minor(mat, (1, 2), (1, 2)) == -3
    assert matrix_minor(mat, (1, 2, 3), (1, 2, 3)) == -3


def permutation_det(mat):
    """Leibniz expansion: sum over permutations of sign * product."""
    total = 0
    for perm in itertools.permutations(range(len(mat))):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(len(perm)), 2))
        total += (-1) ** inversions * math.prod(mat[r][perm[r]] for r in range(len(mat)))
    return total


def fraction_rank(vectors):
    """Row reduction over the rationals."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    found = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(found, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for r in range(found + 1, len(rows)):
            f = rows[r][c] / rows[found][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[found])]
        found += 1
    return found


def seeded_matrices(rng, rows, cols):
    """Dense, sparse (pivots need row swaps), and rank-deficient integer matrices."""
    dense = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    sparse = [[rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(cols)] for _ in range(rows)]
    swapped = [[0] + row[1:] for row in dense[:-1]] + dense[-1:] if rows else []
    dependent = [list(row) for row in dense]
    if rows >= 2:
        dependent[-1] = [2 * a - 3 * b for a, b in zip(dense[0], dense[1])]
    return [dense, sparse, swapped, dependent]


def test_elimination_matches_oracles():
    rng = random.Random(7)
    for size in range(6):
        for _ in range(20):
            for mat in seeded_matrices(rng, size, size):
                assert det(mat) == permutation_det(mat), mat
                assert rank(mat) == fraction_rank(mat), mat
                rows = tuple(range(1, size + 1))
                assert matrix_minor(mat, rows, rows) == permutation_det(mat)
                if size:
                    kept = rows[1:]
                    sub = [row[1:] for row in mat[1:]]
                    assert matrix_minor(mat, kept, kept) == permutation_det(sub)
    for rows, cols in ((2, 5), (5, 2), (4, 6), (6, 3)):
        for _ in range(20):
            for mat in seeded_matrices(rng, rows, cols):
                assert rank(mat) == fraction_rank(mat), mat
    assert det([]) == 1 and rank([]) == 0
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[2, 4], [1, 2]]) == 0 and rank([[2, 4], [1, 2]]) == 1


def test_elimination_rejects_non_integers():
    for bad in (Fraction(1, 2), Fraction(3), 1.0):
        with pytest.raises(ValueError):
            det([[1, 0], [0, bad]])
        with pytest.raises(ValueError):
            rank([[bad, 1]])
        with pytest.raises(ValueError):
            matrix_minor([[bad, 1], [2, 3]], (1, 2), (1, 2))
