import itertools

import pytest

from sympbw.pluecker import pbw_fill
from sympbw.straighten import (
    _min_arrangement,
    _validate_monomial,
    minor_order_compare,
    straighten,
    tableau_order_compare,
)
from sympbw.tableaux import _semistandard_step, _symplectic_columns, is_symplectic_pbw_semistandard
from sympbw.verify import sample_classical_flag, sample_degenerate_point

RINGS = ("classical", "degenerate")


def variables_n2():
    out = []
    for k in (1, 2):
        out.extend(itertools.combinations(range(1, 5), k))
    return out


def evaluate(monomial, coords):
    value = 1
    for col in monomial:
        value *= coords[tuple(sorted(col))]
    return value


def arrangements(mono):
    """Distinct column orders compatible with the tableau shape."""
    groups = [list(g) for _, g in itertools.groupby(mono, key=len)]
    pools = [sorted(set(itertools.permutations(g))) for g in groups]
    for choice in itertools.product(*pools):
        yield tuple(itertools.chain.from_iterable(choice))


def test_tableau_order_compare():
    assert tableau_order_compare(((1, 2),), ((1, 3),)) == -1
    assert tableau_order_compare(((1, 3),), ((1, 2),)) == 1
    assert tableau_order_compare(((1, 2), (3,)), ((1, 2), (3,))) == 0
    # rightmost column decides first
    assert tableau_order_compare(((3, 2), (1,)), ((1, 2), (4,))) == -1
    with pytest.raises(ValueError):
        tableau_order_compare(((1, 2),), ((1,), (2,)))


def test_minor_order_compare():
    assert minor_order_compare((1, 2), (1, 3)) == -1  # lower PBW degree first
    assert minor_order_compare((1, 3), (1, 2)) == 1
    assert minor_order_compare((2, 3), (1, 4)) == 1  # degree tie: last difference
    assert minor_order_compare((1, 2), (1, 2)) == 0


def brute_min_arrangement(mono):
    """The first arrangement minimal in the tableau order, by trying them all."""
    best = None
    for arr in arrangements(mono):
        cols = tuple(pbw_fill(J) for J in arr)
        if best is None or tableau_order_compare(cols, best[1]) == -1:
            best = (arr, cols)
    return best


@pytest.mark.parametrize("n, max_degree, count", [(2, 3, 285), (3, 3, 13243), (4, 2, 13365)])
def test_min_arrangement_matches_brute_force(n, max_degree, count):
    variables = [
        J for k in range(1, n + 1) for J in itertools.combinations(range(1, 2 * n + 1), k)
    ]
    seen = 0
    for degree in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(variables, degree):
            mono = _validate_monomial(n, combo)
            assert _min_arrangement(n, mono) == brute_min_arrangement(mono), mono
            seen += 1
    assert seen == count


@pytest.mark.parametrize("n", range(1, 6))
def test_same_length_semistandard_pairs_descend(n):
    # the rule that lets straightening test only the minimal arrangement
    for k in range(1, n + 1):
        for a, b in itertools.permutations(_symplectic_columns(n, k), 2):
            if _semistandard_step(a, b):
                assert a[::-1] > b[::-1], (a, b)


@pytest.mark.parametrize("mono", [
    tuple((r,) for r in (1, 2, 3, 4, 5, 6) * 2),
    ((1, 4), (2, 5), (3, 6), (1, 6), (2, 4), (3, 5), (1,), (2,), (3,), (4,), (5,), (6,)),
])
def test_twelve_columns_n3(mono):
    # twelve columns would take k! arrangements per check if each were tried
    points = {
        "classical": sample_classical_flag(3, 0).flat(),
        "degenerate": sample_degenerate_point(3, 0).flat(),
    }
    for ring in RINGS:
        result = straighten(3, mono, ring)
        coords = points[ring]
        assert evaluate(mono, coords) == sum(c * evaluate(tab, coords) for tab, c in result.items())


def test_straight_input_passes_through():
    assert straighten(2, ((1, 3),), "classical") == {((1, 3),): 1}
    # the output column carries the tableau filling of the index set
    assert straighten(2, ((2, 3),), "classical") == {((3, 2),): 1}
    assert straighten(2, (), "classical") == {(): 1}


def test_linear_rewrite():
    for ring in RINGS:
        assert straighten(2, ((1, 4),), ring) == {((3, 2),): -1}


def test_quadratic_rewrite():
    expected = {((3, 2), (3, 2)): -1, ((4, 3), (1, 2)): 1}
    for ring in RINGS:
        assert straighten(2, ((1, 3), (2, 4)), ring) == expected


def test_trace_reports_steps():
    steps = []
    straighten(2, ((1, 3), (2, 4)), "classical", trace=steps.append)
    assert any(step.startswith("P-step") for step in steps)
    assert any(step.startswith("S-step") for step in steps)


def test_errors():
    with pytest.raises(ValueError):
        straighten(2, ((1, 3),), "quantum")
    with pytest.raises(ValueError):
        straighten(2, ((3, 2),), "classical")  # columns are sorted index sets
    with pytest.raises(ValueError):
        straighten(2, ((1, 5),), "classical")
    with pytest.raises(ValueError):
        straighten(2, ((1, 2, 3),), "classical")


def test_degree_two_exhaustive_n2():
    points = {
        "classical": [sample_classical_flag(2, seed).flat() for seed in range(3)],
        "degenerate": [sample_degenerate_point(2, seed).flat() for seed in range(3)],
    }
    monomials = list(itertools.combinations_with_replacement(variables_n2(), 2))
    assert len(monomials) == 55
    for ring in RINGS:
        for mono in monomials:
            result = straighten(2, mono, ring)
            for tab in result:
                assert is_symplectic_pbw_semistandard(2, tab), (ring, mono, tab)
            for coords in points[ring]:
                lhs = evaluate(mono, coords)
                rhs = sum(c * evaluate(tab, coords) for tab, c in result.items())
                assert lhs == rhs, (ring, mono)


def test_spot_checks_n3():
    cases = [
        ((1, 4, 5), (2, 3)),
        ((2, 4, 6),),
        ((1, 6), (2, 5)),
        ((1, 2, 4), (3, 5)),
        ((1, 4), (2, 5), (3, 6)),
    ]
    points = {
        "classical": [sample_classical_flag(3, seed).flat() for seed in (0, 1)],
        "degenerate": [sample_degenerate_point(3, seed).flat() for seed in (0, 1)],
    }
    for ring in RINGS:
        for mono in cases:
            result = straighten(3, mono, ring)
            for tab in result:
                assert is_symplectic_pbw_semistandard(3, tab), (ring, mono, tab)
            for coords in points[ring]:
                lhs = evaluate(mono, coords)
                rhs = sum(c * evaluate(tab, coords) for tab, c in result.items())
                assert lhs == rhs, (ring, mono)
