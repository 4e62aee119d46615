import itertools

import pytest

from sympbw.correspondence import (
    monomial_to_tableau,
    monomial_weight,
    order_monomial,
    tableau_to_monomial,
)
from sympbw.fflv import lattice_points
from sympbw.liealg import Root
from sympbw.tableaux import enumerate_tableaux, tableau_weight

A11 = Root(1, 1, False)
A12 = Root(1, 2, False)
A11B = Root(1, 1, True)
A22 = Root(2, 2, False)

# n=2, lambda = omega_1 + omega_2: every monomial next to its tableau
# (alphabet 1 < 2 < 2bar=3 < 1bar=4).
PAIRING = [
    ({}, ((1, 2), (1,))),
    ({A11: 1}, ((1, 2), (2,))),
    ({A22: 1}, ((1, 3), (1,))),
    ({A11: 1, A22: 1}, ((1, 3), (2,))),
    ({A12: 1, A22: 1}, ((1, 3), (3,))),
    ({A12: 1}, ((3, 2), (1,))),
    ({A11: 1, A12: 1}, ((3, 2), (2,))),
    ({A12: 2}, ((3, 2), (3,))),
    ({A11B: 1}, ((4, 2), (1,))),
    ({A11: 1, A11B: 1}, ((4, 2), (2,))),
    ({A12: 1, A11B: 1}, ((4, 2), (3,))),
    ({A11B: 2}, ((4, 2), (4,))),
    ({A11B: 1, A22: 1}, ((4, 3), (1,))),
    ({A11: 1, A11B: 1, A22: 1}, ((4, 3), (2,))),
    ({A12: 1, A11B: 1, A22: 1}, ((4, 3), (3,))),
    ({A11B: 2, A22: 1}, ((4, 3), (4,))),
]


def test_order_monomial_expands_largest_first():
    p = {A11: 2, A11B: 1, A22: 1}
    assert order_monomial(p) == (A11, A11, A11B, A22)
    assert order_monomial({A12: 1, A11B: 1}) == (A12, A11B)


def test_single_column_golden():
    # f_{2,2bar} f_{3,3} acting on the omega_3 highest weight column
    p = {Root(2, 2, True): 1, Root(3, 3, False): 1}
    assert monomial_to_tableau(3, (0, 0, 1), p) == ((1, 5, 4),)


def test_worked_chain_golden():
    p = {A12: 1, A11B: 1, A22: 1}
    assert monomial_to_tableau(2, (1, 1), p) == ((4, 3), (3,))


def test_sixteen_pairing():
    for p, tab in PAIRING:
        assert monomial_to_tableau(2, (1, 1), p) == tab
        assert tableau_to_monomial(2, tab) == ((1, 1), p)


def test_roundtrip_exhaustive():
    weights = [(2, m) for m in itertools.product(range(3), repeat=2)]
    weights += [(3, m) for m in itertools.product(range(2), repeat=3)]
    for n, m in weights:
        tabs = set(enumerate_tableaux(n, m))
        seen = set()
        for p in lattice_points(n, m):
            tab = monomial_to_tableau(n, m, p)
            assert tab in tabs
            assert tab not in seen
            seen.add(tab)
            assert tableau_to_monomial(n, tab) == (m, p)
            assert monomial_weight(n, m, p) == tableau_weight(n, tab)
        assert seen == tabs


def test_monomial_outside_polytope_rejected():
    with pytest.raises(ValueError):
        monomial_to_tableau(2, (1, 1), {A11: 2})


def test_non_semistandard_tableau_rejected():
    with pytest.raises(ValueError):
        tableau_to_monomial(2, ((1, 2), (4,)))


def test_plain_tuple_keys_match_root_keys():
    # a Root is the tuple (i, j, barred), so either spelling of a key works
    for p, tab in PAIRING:
        plain = {tuple(alpha): e for alpha, e in p.items()}
        assert monomial_to_tableau(2, (1, 1), plain) == tab
        assert monomial_weight(2, (1, 1), plain) == monomial_weight(2, (1, 1), p)
