import itertools

import pytest

from sympbw.liealg import weyl_dimension
from sympbw.pluecker import pbw_fill
from sympbw.tableaux import (
    column_lengths_from_m,
    enumerate_tableaux,
    entry_str,
    highest_weight_tableau,
    is_symplectic_column,
    is_symplectic_pbw_semistandard,
    partition_from_m,
    tableau_from_json,
    tableau_pretty,
    tableau_to_json,
    tableau_weight,
    validate_tableau,
    _first_violation,
    _index_column,
    _moved_entries_ok,
    _symplectic_columns,
    _uncovered_row,
    _validate_columns,
)

from test_liealg import DIMENSIONS

# n=2, lambda = omega_1 + omega_2 (alphabet 1 < 2 < 2bar=3 < 1bar=4):
# the full census of symplectic PBW semistandard tableaux.
SIXTEEN = {
    ((1, 2), (1,)), ((1, 2), (2,)),
    ((1, 3), (1,)), ((1, 3), (2,)), ((1, 3), (3,)),
    ((3, 2), (1,)), ((3, 2), (2,)), ((3, 2), (3,)),
    ((4, 2), (1,)), ((4, 2), (2,)), ((4, 2), (3,)), ((4, 2), (4,)),
    ((4, 3), (1,)), ((4, 3), (2,)), ((4, 3), (3,)), ((4, 3), (4,)),
}

# valid PBW tableaux at the same shape that fail the semistandard condition
NOT_SEMISTANDARD = [
    ((1, 2), (3,)),
    ((1, 2), (4,)),
    ((1, 3), (4,)),
    ((3, 2), (4,)),
]

# n=3, lambda = omega_3 (alphabet 1 < 2 < 3 < 3bar=4 < 2bar=5 < 1bar=6):
# all symplectic single columns of height 3.
FOURTEEN = {
    ((1, 2, 3),), ((1, 2, 4),), ((1, 4, 3),), ((1, 5, 3),), ((1, 5, 4),),
    ((4, 2, 3),), ((5, 2, 3),), ((5, 2, 4),), ((5, 4, 3),),
    ((6, 2, 3),), ((6, 2, 4),), ((6, 4, 3),), ((6, 5, 3),), ((6, 5, 4),),
}


def test_partition_helpers():
    assert partition_from_m((1, 1)) == (2, 1)
    assert partition_from_m((0, 2, 1)) == (3, 3, 1)
    assert column_lengths_from_m((1, 1)) == (2, 1)
    assert column_lengths_from_m((2, 0, 1)) == (3, 1, 1)
    assert highest_weight_tableau((1, 1)) == ((1, 2), (1,))


def test_census_n2_sixteen():
    assert set(enumerate_tableaux(2, (1, 1))) == SIXTEEN


def is_symplectic_pbw(n, tab):
    """True iff every column separately satisfies the symplectic column conditions."""
    cols = validate_tableau(n, tab)
    return all(is_symplectic_column(n, col) for col in cols)


def is_pbw_semistandard_typeA(n2, tab):
    """PBW semistandardness for gl(n2) tableaux over the alphabet 1..n2.

    Per column: conditions (i) and (ii) of ``_moved_entries_ok``; between
    columns: the same domination condition as in the symplectic case.  No
    symplectic pair condition.
    """
    cols = _validate_columns(tab, n2, n2)  # a taller column would break condition (i)
    return all(_moved_entries_ok(col) for col in cols) and all(
        not _uncovered_row(cols[c], cols[c + 1]) for c in range(len(cols) - 1)
    )


def test_census_rejects_non_semistandard():
    for tab in NOT_SEMISTANDARD:
        assert is_symplectic_pbw(2, tab)
        assert not is_symplectic_pbw_semistandard(2, tab)


def test_census_n3_fourteen():
    assert set(enumerate_tableaux(3, (0, 0, 1))) == FOURTEEN


def test_census_counts_match_dimension():
    for (n, m), dim in DIMENSIONS.items():
        assert len(enumerate_tableaux(n, m)) == dim


def test_symplectic_columns_match_brute_force():
    cases = [(n, k) for n in range(1, 5) for k in range(1, n + 1)]
    cases += [(5, k) for k in range(1, 4)]
    for n, k in cases:
        brute = tuple(
            col
            for col in itertools.product(range(1, 2 * n + 1), repeat=k)
            if is_symplectic_column(n, col)
        )
        assert _symplectic_columns(n, k) == brute


@pytest.mark.parametrize("n", range(1, 6))
def test_index_column_fills_and_tests_the_index(n):
    for k in range(1, n + 1):
        for J in itertools.combinations(range(1, 2 * n + 1), k):
            assert _index_column(n, J) == (pbw_fill(J), is_symplectic_column(n, pbw_fill(J))), J


def brute_first_violation(cols):
    """(pair, row) of the first entry, scanning pairs left to right and rows
    top to bottom, that no entry at or below its row in the left neighbour
    dominates."""
    for c, (left, right) in enumerate(zip(cols, cols[1:])):
        for i in range(len(right)):
            if not any(left[r] >= right[i] for r in range(i, len(left))):
                return c, i + 1
    return None


@pytest.mark.parametrize("n, width", [(1, 3), (2, 3), (3, 2)])
def test_first_violation_matches_a_brute_scan(n, width):
    # every sequence of symplectic columns, unequal lengths in either order included
    columns = [col for k in range(1, n + 1) for col in _symplectic_columns(n, k)]
    for cols in itertools.product(columns, repeat=width):
        assert _first_violation(cols) == brute_first_violation(cols), cols
        first = brute_first_violation(cols[:2])
        assert _uncovered_row(cols[0], cols[1]) == (first[1] if first else 0), cols


def test_census_counts_beyond_n6():
    for n, m in ((7, (0,) * 6 + (1,)), (8, (0,) * 7 + (1,)), (7, (1, 0, 0, 0, 0, 0, 1))):
        assert len(enumerate_tableaux(n, m)) == weyl_dimension(n, m)


def test_enumeration_is_sorted_and_valid():
    for n, m in ((2, (1, 1)), (2, (0, 2)), (3, (1, 1, 0))):
        tabs = enumerate_tableaux(n, m)
        assert tabs == sorted(tabs)
        for tab in tabs:
            assert is_symplectic_pbw_semistandard(n, tab)


def test_symplectic_column_conditions():
    # (i) entries <= mu sit at their own row
    assert not is_symplectic_column(2, (2, 1))
    assert not is_symplectic_column(2, (4, 1))
    # (ii) moved entries strictly dominate everything below
    assert is_symplectic_column(2, (3, 2))
    assert not is_symplectic_column(3, (1, 4, 5))
    # (iii) i alongside ibar is allowed only with the bar strictly above
    assert is_symplectic_column(2, (3, 2))
    assert not is_symplectic_column(2, (1, 4))
    assert not is_symplectic_column(3, (1, 6, 3))
    assert is_symplectic_column(3, (6, 2, 3))


def test_typeA_census_n4():
    # alphabet 1..4 with no symplectic condition: the sixteen plus four more
    expected = SIXTEEN | {((1, 4), (1,)), ((1, 4), (2,)), ((1, 4), (3,)), ((1, 4), (4,))}
    found = set()
    for col1 in itertools.product(range(1, 5), repeat=2):
        for col2 in itertools.product(range(1, 5), repeat=1):
            if is_pbw_semistandard_typeA(4, (col1, col2)):
                found.add((col1, col2))
    assert found == expected


def test_typeA_rejects_invalid_input():
    with pytest.raises(ValueError):
        is_pbw_semistandard_typeA(2, ((2, 1), (5,)))  # bad entry after a failing column
    with pytest.raises(ValueError):
        is_pbw_semistandard_typeA(2, ((1, 2, 1),))  # taller than the alphabet


def test_tableau_weight():
    assert tableau_weight(2, ((1, 2), (1,))) == (2, 1)
    assert tableau_weight(2, ((4, 3), (4,))) == (-2, -1)
    assert tableau_weight(2, ((4, 2), (3,))) == (-1, 0)
    assert tableau_weight(3, ((1, 5, 3),)) == (1, -1, 1)


def test_validate_tableau_errors():
    with pytest.raises(ValueError):
        validate_tableau(2, ((1, 2, 3), (1,)))  # column taller than 2n allows
    with pytest.raises(ValueError):
        validate_tableau(2, ((1,), (1, 2)))  # lengths must not increase
    with pytest.raises(ValueError):
        validate_tableau(2, ((0, 1),))  # entry out of range


def test_json_roundtrip():
    for tab in enumerate_tableaux(2, (1, 1)):
        data = tableau_to_json(2, tab)
        assert data["shape"] == [2, 1]
        assert tableau_from_json(2, data) == tab
    with pytest.raises(ValueError):
        tableau_from_json(2, {"shape": [2, 2], "columns": [[1, 2], [1]]})


def test_entry_str():
    assert entry_str(2, 2) == "2"
    assert entry_str(2, 3) == "2̅"
    assert entry_str(2, 3, ascii_only=True) == "2'"
    assert entry_str(2, 4, ascii_only=True) == "1'"
    assert entry_str(3, 4, ascii_only=True) == "3'"


def test_pretty_ascii_golden():
    text = tableau_pretty(2, ((4, 2), (3,)), ascii_only=True)
    assert text == "1' 2'\n2"
