import itertools

import pytest

from sympbw.pluecker import (
    column_to_minor,
    computed_minor,
    is_reverse_admissible,
    minor_parts,
    normalize_index,
    pbw_degree_index,
    pbw_fill,
    poly_add,
    poly_canonical,
    poly_frozen,
    poly_scale,
    poly_term,
    poly_to_json,
    validate_minor,
)
from sympbw.tableaux import is_symplectic_column


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
