import itertools

import pytest

from sympbw.liealg import bar
from sympbw.pluecker import (
    _sort_sign,
    check_index,
    minor_rows,
    pbw_degree_index,
    pbw_fill,
    poly_add,
    poly_canonical,
    poly_frozen,
    poly_scale,
    poly_term,
    poly_to_json,
)
from sympbw.relations import pluecker_relation
from sympbw.tableaux import is_symplectic_column

# --- the minor route, kept as the oracle of minor_rows ---
#
# A minor is a pair (I2, I1) of subsets of {1..n}: I1 collects the unbarred
# row labels of an index, I2 the bases of the barred ones, k = |I1| + |I2|.


def normalize_index(k, seq):
    """Sort a row sequence into a Pluecker index, tracking the sign.

    Returns (sorted tuple, (-1)^inversions); a repeated value makes the
    alternating form vanish, signalled as (None, 0).
    """
    seq = tuple(seq)
    if len(seq) != k:
        raise ValueError(f"expected {k} values, got {len(seq)}")
    return _sort_sign(seq)


def validate_minor(n, m):
    """Normalize a minor to a pair of sorted tuples (I2, I1) and check ranges."""
    I2, I1 = tuple(sorted(m[0])), tuple(sorted(m[1]))
    if len(set(I2)) != len(I2) or len(set(I1)) != len(I1):
        raise ValueError("minor parts must not repeat values")
    k = len(I1) + len(I2)
    if k == 0 or k > n:
        raise ValueError(f"minor level {k} out of range for n={n}")
    for v in I1 + I2:
        if not (1 <= v <= n):
            raise ValueError(f"minor entry {v} outside 1..{n}")
    return I2, I1


def minor_parts(n, m):
    """Split a minor into (I2_tilde, I1_tilde, Gamma), each sorted ascending."""
    I2, I1 = validate_minor(n, m)
    gamma = tuple(sorted(set(I1) & set(I2)))
    return (
        tuple(v for v in I2 if v not in gamma),
        tuple(v for v in I1 if v not in gamma),
        gamma,
    )


def computed_minor(n, m):
    """Row sequence of the determinant computing the minor (I2, I1): barred
    complements first, then the unbarred complement reversed, then the
    bar/unbar pairs of the overlap from the largest down."""
    i2t, i1t, gamma = minor_parts(n, m)
    seq = [bar(b, n) for b in i2t]
    seq.extend(reversed(i1t))
    for g in reversed(gamma):
        seq.extend((bar(g, n), g))
    return tuple(seq)


def is_reverse_admissible(n, m):
    """True iff some T in the complement of I1 u I2 has |T| = |Gamma| and T < Gamma."""
    i2, i1 = validate_minor(n, m)
    gamma = sorted(set(i1) & set(i2))
    pool = sorted(set(range(1, n + 1)) - set(i1) - set(i2))
    return any(
        all(t < g for t, g in zip(t_set, gamma))
        for t_set in itertools.combinations(pool, len(gamma))
    )


def column_to_minor(n, col):
    """Inverse reading: unbarred entries form I1, bases of barred entries I2."""
    if len(set(col)) != len(col):
        raise ValueError("repeated entry in column")
    I1 = tuple(sorted(e for e in col if e <= n))
    I2 = tuple(sorted(bar(e, n) for e in col if e > n))
    return validate_minor(n, (I2, I1))


def all_indices(n):
    """Every Pluecker index at rank n, by level, then lexicographically."""
    rows = range(1, 2 * n + 1)
    return [J for k in range(1, n + 1) for J in itertools.combinations(rows, k)]


def test_normalize_index():
    assert normalize_index(3, (1, 2, 3)) == ((1, 2, 3), 1)
    assert normalize_index(3, (2, 1, 3)) == ((1, 2, 3), -1)
    assert normalize_index(2, (3, 2)) == ((2, 3), -1)
    assert normalize_index(2, (4, 1)) == ((1, 4), -1)
    assert normalize_index(4, (7, 2, 8, 1)) == ((1, 2, 7, 8), 1)
    assert normalize_index(4, (6, 3, 8, 1)) == ((1, 3, 6, 8), 1)
    assert normalize_index(4, (5, 4, 8, 1)) == ((1, 4, 5, 8), 1)
    assert normalize_index(2, (1, 1)) == (None, 0)


def test_validate_minor():
    assert validate_minor(2, ({1}, {2})) == ((1,), (2,))
    assert validate_minor(3, (set(), {1, 3})) == ((), (1, 3))
    with pytest.raises(ValueError):
        validate_minor(2, ({1, 2, 3}, set()))  # level above n
    with pytest.raises(ValueError):
        validate_minor(2, ({3}, set()))  # base out of range
    with pytest.raises(ValueError):
        validate_minor(2, (set(), set()))  # empty minor


def test_minor_parts_and_computed_minor():
    # I2 = I1 = {1,2} at n=4: Gamma = {1,2}, row sequence (2bar,2,1bar,1)
    parts = minor_parts(4, ({1, 2}, {1, 2}))
    assert parts == ((), (), (1, 2))
    assert computed_minor(4, ({1, 2}, {1, 2})) == (7, 2, 8, 1)
    # disjoint parts: I2 = {2}, I1 = {1} at n = 2: row sequence (2bar, 1)
    assert minor_parts(2, ({2}, {1})) == ((2,), (1,), ())
    assert computed_minor(2, ({2}, {1})) == (3, 1)
    assert computed_minor(2, ({1}, {1})) == (4, 1)


ADMISSIBILITY_N2 = {
    # (I2, I1) -> reverse admissible
    ((), (1,)): True,
    ((), (2,)): True,
    ((), (1, 2)): True,
    ((1,), ()): True,
    ((2,), ()): True,
    ((1,), (1,)): False,
    ((1,), (2,)): True,
    ((2,), (1,)): True,
    ((2,), (2,)): True,
    ((1, 2), ()): True,
}


def test_admissibility_table_n2():
    for (i2, i1), rev in ADMISSIBILITY_N2.items():
        m = (set(i2), set(i1))
        assert is_reverse_admissible(2, m) == rev, m


def test_admissibility_diagonal_n4():
    diag = {
        (1, 2): False, (1, 3): False, (1, 4): False,
        (2, 3): False, (2, 4): True, (3, 4): True,
    }
    for pair, rev in diag.items():
        m = (set(pair), set(pair))
        assert is_reverse_admissible(4, m) == rev, pair


def test_pbw_fill():
    assert pbw_fill((1, 3)) == (1, 3)
    assert pbw_fill((2, 4)) == (4, 2)
    assert pbw_fill((3, 4)) == (4, 3)
    assert pbw_fill((1, 2, 6)) == (1, 2, 6)
    assert pbw_fill((2, 5, 6)) == (6, 2, 5)
    with pytest.raises(ValueError):
        pbw_fill((1, 1))


def test_minor_column_bijection():
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            minors = []
            for i2_size in range(k + 1):
                for i2 in itertools.combinations(range(1, n + 1), i2_size):
                    for i1 in itertools.combinations(range(1, n + 1), k - i2_size):
                        minors.append((set(i2), set(i1)))
            ra = [m for m in minors if is_reverse_admissible(n, m)]
            cols = [pbw_fill(computed_minor(n, m)) for m in ra]
            # reverse-admissible minors fill to symplectic columns, bijectively
            for m, col in zip(ra, cols):
                assert is_symplectic_column(n, pbw_fill(col))
                assert column_to_minor(n, col) == validate_minor(n, m)
            assert len(set(cols)) == len(ra)
            # non-reverse-admissible minors land on non-symplectic fills
            for m in minors:
                if not is_reverse_admissible(n, m):
                    col = pbw_fill(computed_minor(n, m))
                    assert not is_symplectic_column(n, pbw_fill(col))


def test_minor_rows_and_fillings_match_the_minor_route():
    # minor_rows reads the minor's row order off J; an index fills to a
    # symplectic column exactly when its minor is reverse-admissible
    for n in range(1, 8):
        indices = all_indices(n)
        for J in indices:
            m = column_to_minor(n, J)
            assert minor_rows(n, J) == computed_minor(n, m), J
            assert is_symplectic_column(n, pbw_fill(J)) == is_reverse_admissible(n, m), J
    assert len(indices) == 9907


def test_check_index():
    assert check_index(3, [1, 4, 6]) == (1, 4, 6)
    for J, message in [((), "column level 0 out of range for n=2"),
                       ((1, 2, 3), "column level 3 out of range for n=2"),
                       ((2, 1), "column indices must be strictly increasing"),
                       ((1, 1), "column indices must be strictly increasing"),
                       ((0, 1), "entries must lie in 1..4"),
                       ((1, 5), "entries must lie in 1..4"),
                       ((1.5,), "column indices must be ints, got (1.5,)"),
                       ((True, 2), "column indices must be ints, got (True, 2)"),
                       ((1, 2.0), "column indices must be ints, got (1, 2.0)"),
                       ("12", "column indices must be ints, got ('1', '2')")]:
        with pytest.raises(ValueError) as err:
            check_index(2, J)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="^L and J must be strictly increasing$"):
        check_index(2, (2, 1), "L and J")
    with pytest.raises(ValueError, match=r"^L and J must be ints, got \(1\.0, 2\)$"):
        pluecker_relation(2, (1.0, 2), (3,), 1)


def test_pbw_degrees():
    assert pbw_degree_index(2, (1, 2)) == 0
    assert pbw_degree_index(2, (1, 4)) == 1
    assert pbw_degree_index(2, (3, 4)) == 2


def test_poly_arithmetic():
    p = poly_term(2, [(1, 2), (3,)])
    q = poly_term(-2, [(3,), (1, 2)])
    assert poly_add(p, q) == {}
    assert poly_scale(3, p) == poly_term(6, [(1, 2), (3,)])
    assert poly_term(0, [(1,)]) == {}


def test_poly_term_sorts_variables():
    assert poly_term(1, [(3,), (1, 2)]) == poly_term(1, [(1, 2), (3,)])


def test_poly_canonical_and_frozen():
    p = poly_add(poly_term(-2, [(1,)]), poly_term(4, [(2,)]))
    q = poly_add(poly_term(2, [(1,)]), poly_term(-4, [(2,)]))
    assert poly_canonical(p) == q
    assert poly_canonical(q) == q
    assert poly_frozen(p) == poly_frozen(poly_scale(-1, p))
    assert poly_frozen(p) != poly_frozen(poly_term(1, [(1,)]))


def test_poly_to_json():
    p = poly_add(poly_term(3, [(1, 2), (3,)]), poly_term(-1, [(1, 4)], s_deg=2))
    assert poly_to_json(p) == [
        {"coeff": "-1", "s_deg": 2, "vars": [{"k": 2, "J": [1, 4]}]},
        {"coeff": "3", "s_deg": None, "vars": [{"k": 1, "J": [3]}, {"k": 2, "J": [1, 2]}]},
    ]
