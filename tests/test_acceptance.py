"""End-to-end acceptance checks.

Each test prints one ``criterion N: PASS`` line (visible with ``pytest -s``);
a failed assertion leaves the line unprinted.  Time limits are enforced with
``time.monotonic`` around the work they cover.
"""

import itertools
import time

from sympbw.correspondence import (
    monomial_to_tableau,
    monomial_weight,
    tableau_to_monomial,
)
from sympbw.fflv import lattice_points
from sympbw.liealg import Root, weyl_dimension
from sympbw.pluecker import minor_rows, pbw_degree_index, pbw_fill, poly_frozen
from sympbw.relations import (
    Relation,
    generate_ideal,
    relation_text,
    specialize_s,
    symplectic_relation,
    term_pbw_degree,
)
from sympbw.straighten import straighten
from sympbw.tableaux import (
    enumerate_tableaux,
    is_symplectic_column,
    is_symplectic_pbw_semistandard,
    tableau_weight,
)
from sympbw.verify import (
    check_isotropy_projection,
    check_s_bridge,
    check_vanishing,
    sample_classical_flag,
    sample_degenerate_point,
)

from test_correspondence import A11, A11B, A12, A22, PAIRING
from test_liealg import DIMENSIONS
from test_pluecker import all_indices, normalize_index
from test_relations import CLASSICAL_N2, DEGENERATE_N2
from test_straighten import evaluate, variables_n2
from test_tableaux import FOURTEEN, NOT_SEMISTANDARD, SIXTEEN


def weights_up_to(n, total):
    for m in itertools.product(range(total + 1), repeat=n):
        if 1 <= sum(m) <= total:
            yield m


def test_criterion_01_census_n2():
    start = time.monotonic()
    assert set(enumerate_tableaux(2, (1, 1))) == SIXTEEN
    for tab in NOT_SEMISTANDARD:
        assert not is_symplectic_pbw_semistandard(2, tab)
    assert time.monotonic() - start < 1.0
    print("criterion 1: PASS")


def test_criterion_02_census_n3():
    start = time.monotonic()
    assert set(enumerate_tableaux(3, (0, 0, 1))) == FOURTEEN
    assert time.monotonic() - start < 1.0
    print("criterion 2: PASS")


def test_criterion_03_triple_count():
    start = time.monotonic()
    for n in (2, 3):
        for m in weights_up_to(n, 3):
            dim = weyl_dimension(n, m)
            assert dim == DIMENSIONS[(n, m)]
            assert len(lattice_points(n, m)) == dim
            assert len(enumerate_tableaux(n, m)) == dim
    assert time.monotonic() - start < 60.0
    print("criterion 3: PASS")


def test_criterion_04_bijection_audit():
    # worked single-monomial golden: f_{2,2bar} f_{3,3} at lambda = omega_3
    p = {Root(2, 2, True): 1, Root(3, 3, False): 1}
    assert monomial_to_tableau(3, (0, 0, 1), p) == ((1, 5, 4),)
    # worked list golden: the full 16-pair assignment at lambda = omega_1+omega_2
    for p, tab in PAIRING:
        assert monomial_to_tableau(2, (1, 1), p) == tab
        assert tableau_to_monomial(2, tab) == ((1, 1), p)
    chain = {A12: 1, A11B: 1, A22: 1}
    assert monomial_to_tableau(2, (1, 1), chain) == ((4, 3), (3,))
    # both compositions are the identity, and weights match, over the
    # criterion-3 range
    for n in (2, 3):
        for m in weights_up_to(n, 3):
            seen = set()
            for p in lattice_points(n, m):
                tab = monomial_to_tableau(n, m, p)
                assert tableau_to_monomial(n, tab) == (m, p)
                assert monomial_weight(n, m, p) == tableau_weight(n, tab)
                seen.add(tab)
            tabs = set(enumerate_tableaux(n, m))
            assert seen == tabs
            for tab in tabs:
                back_m, back_p = tableau_to_monomial(n, tab)
                assert back_m == m
                assert monomial_to_tableau(n, back_m, back_p) == tab
    print("criterion 4: PASS")


def test_criterion_05_relation_goldens():
    classical = generate_ideal(2, "classical")
    assert {r.label: relation_text(2, r) for r in classical} == CLASSICAL_N2
    degenerate = generate_ideal(2, "degenerate")
    assert {r.label: relation_text(2, r) for r in degenerate} == DEGENERATE_N2
    print("criterion 5: PASS")


def test_criterion_06_minor_expansion_golden():
    # row sequences (2bar,2,1bar,1), (3bar,3,1bar,1), (4bar,4,1bar,1) at n=4
    assert normalize_index(4, (7, 2, 8, 1)) == ((1, 2, 7, 8), 1)
    assert normalize_index(4, (6, 3, 8, 1)) == ((1, 3, 6, 8), 1)
    assert normalize_index(4, (5, 4, 8, 1)) == ((1, 4, 5, 8), 1)
    assert minor_rows(4, (1, 2, 7, 8)) == (7, 2, 8, 1)
    assert symplectic_relation(4, (1, 2, 7, 8)) == {
        (None, ((1, 2, 7, 8),)): 1,
        (None, ((1, 3, 6, 8),)): 1,
        (None, ((1, 4, 5, 8),)): 1,
    }
    print("criterion 6: PASS")


def test_criterion_07_classical_vanishing():
    start = time.monotonic()
    for n in (2, 3):
        points = [sample_classical_flag(n, seed) for seed in range(20)]
        relations = generate_ideal(n, "classical")
        report = check_vanishing(relations, points)
        assert report["ok"], report["failures"][:3]
        assert report["checked"] == len(relations) * 20
    # negative control: a perturbed relation must be caught
    bad_poly = dict(relations[0].poly)
    key = next(iter(bad_poly))
    bad_poly[key] += 1 if bad_poly[key] != -1 else 2
    bad = Relation("pluecker", "perturbed", poly_frozen(bad_poly))
    report = check_vanishing([bad], points)
    assert not report["ok"] and report["failures"]
    assert time.monotonic() - start < 120.0
    print("criterion 7: PASS")


def test_criterion_08_degenerate_vanishing():
    # the sampler asserts X^2 = 0 at every level; tests/test_verify.py checks
    # its points against the wedge-operator oracle
    start = time.monotonic()
    for n in (2, 3):
        points = [sample_degenerate_point(n, seed) for seed in range(20)]
        relations = generate_ideal(n, "degenerate")
        report = check_vanishing(relations, points)
        assert report["ok"], report["failures"][:3]
        assert report["checked"] == len(relations) * 20
        for point in points:
            for k in range(1, n + 1):
                assert check_isotropy_projection(point, k)
    assert time.monotonic() - start < 120.0
    print("criterion 8: PASS")


def test_criterion_09_straightening():
    # every rewrite step asserts strict descent of the tableau order on
    # minimal arrangements; running under pytest keeps those asserts active
    start = time.monotonic()
    points = {
        "classical": [sample_classical_flag(2, seed).flat() for seed in range(10)],
        "degenerate": [sample_degenerate_point(2, seed).flat() for seed in range(10)],
    }
    monomials = list(itertools.combinations_with_replacement(variables_n2(), 2))
    assert len(monomials) == 55
    for ring in ("classical", "degenerate"):
        for mono in monomials:
            steps = []
            result = straighten(2, mono, ring, trace=steps.append)
            for tab in result:
                assert is_symplectic_pbw_semistandard(2, tab), (ring, mono, tab)
            unchanged = (
                list(result.values()) == [1]
                and sorted(tuple(sorted(col)) for col in next(iter(result)))
                == sorted(mono)
            )
            if not unchanged:
                assert steps  # anything rewritten took at least one step
            for coords in points[ring]:
                lhs = evaluate(mono, coords)
                rhs = sum(c * evaluate(tab, coords) for tab, c in result.items())
                assert lhs == rhs, (ring, mono)
    assert time.monotonic() - start < 120.0
    print("criterion 9: PASS")


def test_criterion_10_pbw_degree_coherence():
    for n in range(1, 6):
        for J in all_indices(n):
            idx, sign = normalize_index(len(J), minor_rows(n, J))
            assert idx == J and sign != 0
            if not is_symplectic_column(n, pbw_fill(J)):
                relation = symplectic_relation(n, J)
                head = pbw_degree_index(len(idx), idx)
                assert all(term_pbw_degree(key) >= head for key in relation)
    print("criterion 10: PASS")


def test_criterion_11_s_family():
    points = [sample_classical_flag(2, seed) for seed in range(10)]
    s_relations = generate_ideal(2, "s-family")
    report = check_s_bridge(s_relations, points)
    assert report["ok"], report["failures"][:3]
    assert report["checked"] == len(s_relations) * 10
    # specializations recover the criterion-5 generator sets exactly
    at_one = {poly_frozen(specialize_s(dict(r.poly), 1)) for r in s_relations}
    assert at_one == {r.poly for r in generate_ideal(2, "classical")}
    at_zero = {poly_frozen(specialize_s(dict(r.poly), 0)) for r in s_relations}
    assert at_zero == {r.poly for r in generate_ideal(2, "degenerate")}
    print("criterion 11: PASS")
