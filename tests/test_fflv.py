import itertools

import pytest

from sympbw.correspondence import monomial_to_tableau, monomial_weight
from sympbw.fflv import (
    _inequality_index,
    contains,
    dyck_paths,
    fflv_inequalities,
    lattice_points,
    multiexp_from_json,
    multiexp_to_json,
)
from sympbw.liealg import Root, check_enumeration_size, positive_roots, weyl_dimension

from test_liealg import DIMENSIONS


def test_dyck_paths_n1():
    assert dyck_paths(1) == [(Root(1, 1, False),)]


def test_dyck_paths_n2_golden():
    a11 = Root(1, 1, False)
    a12 = Root(1, 2, False)
    a11b = Root(1, 1, True)
    a22 = Root(2, 2, False)
    assert set(dyck_paths(2)) == {
        (a11,),
        (a11, a12, a11b),
        (a11, a12, a22),
        (a22,),
    }


def test_dyck_paths_counts():
    assert [len(dyck_paths(n)) for n in (1, 2, 3, 4)] == [1, 4, 12, 36]
    for n in (2, 3, 4):
        assert len(dyck_paths(n)) == len(set(dyck_paths(n)))


def test_dyck_paths_shape():
    for n in (2, 3, 4):
        paths = set(dyck_paths(n))
        for path in paths:
            first, last = path[0], path[-1]
            assert first == Root(first.i, first.i, False)
            assert last.i == last.j
            # every diagonal prefix is itself a path
            for stop, alpha in enumerate(path[:-1]):
                if alpha.i == alpha.j:
                    assert path[: stop + 1] in paths


def test_inequalities_n2_golden():
    a11 = Root(1, 1, False)
    a12 = Root(1, 2, False)
    a11b = Root(1, 1, True)
    a22 = Root(2, 2, False)
    got = {(q.support, q.rhs) for q in fflv_inequalities(2, (1, 1))}
    assert got == {
        ((a11,), 1),
        ((a11, a12, a11b), 2),
        ((a11, a12, a22), 2),
        ((a22,), 1),
    }


def test_inequalities_reject_bad_weight():
    with pytest.raises(ValueError):
        fflv_inequalities(2, (1,))
    with pytest.raises(ValueError):
        fflv_inequalities(2, (1, -1))
    with pytest.raises(ValueError):
        fflv_inequalities(2, (0.5, 1))
    with pytest.raises(ValueError):
        lattice_points(2, (0.5, 1))


def test_lattice_point_counts_match_dimension():
    for (n, m), dim in DIMENSIONS.items():
        assert len(lattice_points(n, m)) == dim


def test_lattice_points_distinct_and_contained():
    for n, m in ((2, (1, 1)), (2, (2, 0)), (3, (1, 0, 1))):
        points = lattice_points(n, m)
        seen = {tuple(sorted(p.items(), key=lambda kv: str(kv))) for p in points}
        assert len(seen) == len(points)
        for p in points:
            assert contains(n, m, p)
            assert all(e > 0 for e in p.values())


def test_contains_boundary():
    assert contains(2, (1, 1), {})
    assert contains(2, (1, 1), {Root(1, 1, False): 1, Root(2, 2, False): 1})
    assert not contains(2, (1, 1), {Root(1, 1, False): 2})
    assert not contains(2, (1, 1), {Root(1, 1, True): 3})
    assert not contains(2, (1, 1), {Root(1, 1, False): -1})
    with pytest.raises(ValueError):
        contains(2, (1, 1), {Root(1, 3, False): 1})


def test_contains_rejects_unnormalized_barred_n():
    # alpha_{i,nbar} is the same root as alpha_{i,n}, stored unbarred
    for alpha in (Root(1, 3, True), Root(3, 3, True)):
        with pytest.raises(ValueError):
            contains(3, (1, 1, 1), {alpha: 50})


def _naive_contains(n, m, p):
    if any(e < 0 for e in p.values()):
        return False
    return all(
        sum(p.get(alpha, 0) for alpha in ineq.support) <= ineq.rhs
        for ineq in fflv_inequalities(n, m)
    )


def test_contains_matches_naive_sum():
    for n, m in ((1, (2,)), (2, (1, 1)), (2, (0, 2)), (3, (1, 0, 1)), (3, (0, 1, 1))):
        roots = positive_roots(n)
        for p in lattice_points(n, m):
            assert contains(n, m, p)
            for alpha in roots:
                bumped = dict(p)
                bumped[alpha] = bumped.get(alpha, 0) + 1
                assert contains(n, m, bumped) == _naive_contains(n, m, bumped)
                bumped[alpha] = -1
                assert not contains(n, m, bumped)


def test_cached_results_are_not_shared():
    ineqs = fflv_inequalities(2, (1, 1))
    ineqs.clear()
    assert len(fflv_inequalities(2, (1, 1))) == 4
    paths = dyck_paths(3)
    paths.pop()
    paths.append(())
    assert len(dyck_paths(3)) == 12 and () not in dyck_paths(3)


def test_multiexp_json_roundtrip():
    for p in lattice_points(2, (1, 1)):
        data = multiexp_to_json(2, p)
        assert multiexp_from_json(2, data) == p
    assert multiexp_to_json(2, {}) == []
    assert multiexp_from_json(2, []) == {}


def test_enumeration_limit_is_inclusive(monkeypatch):
    # dim V(1,1) at n = 2 is 16: listed at a limit of 16, refused at 15
    from sympbw import liealg
    from sympbw.tableaux import enumerate_tableaux

    monkeypatch.setattr(liealg, "ENUMERATION_LIMIT", 16)
    assert len(lattice_points(2, (1, 1))) == len(enumerate_tableaux(2, (1, 1))) == 16
    monkeypatch.setattr(liealg, "ENUMERATION_LIMIT", 15)
    for enumerate_all in (lattice_points, enumerate_tableaux):
        with pytest.raises(ValueError, match="dim V.lambda. = 16 exceeds the enumeration limit of 15"):
            enumerate_all(2, (1, 1))


# --- the incidence-list search, kept as the oracle of the room DP ---
#
# lattice_points before the DP: at each root, the room is the least slack of
# the inequalities through it, and choosing an exponent updates all of them.


def oracle_lattice_points(n, m):
    check_enumeration_size(n, m)
    roots = positive_roots(n)
    _, rhs, at = _inequality_index(n, tuple(m))
    ineqs_at = [at[alpha] for alpha in roots]
    room = list(rhs)
    out = []
    exps = [0] * len(roots)

    def assign(pos):
        if pos == len(roots):
            out.append({alpha: e for alpha, e in zip(roots, exps) if e})
            return
        top = min(room[k] for k in ineqs_at[pos])
        for e in range(top + 1):
            exps[pos] = e
            for k in ineqs_at[pos]:
                room[k] -= e
            assign(pos + 1)
            for k in ineqs_at[pos]:
                room[k] += e
        exps[pos] = 0

    assign(0)
    return out


ORACLE_WEIGHTS = [
    (n, m)
    for n in range(1, 5)
    for m in itertools.product(range(3), repeat=n)
    if weyl_dimension(n, m) <= 30_000
] + [(5, (1, 0, 0, 0, 1)), (5, (0, 1, 0, 1, 0)), (6, (1, 0, 0, 0, 0, 1))]


@pytest.mark.parametrize("n, m", ORACLE_WEIGHTS, ids=lambda x: str(x))
def test_room_dp_matches_oracle(n, m):
    got = lattice_points(n, m)
    want = oracle_lattice_points(n, m)
    assert got == want
    # same points in the same order, each dict in reading order
    assert [list(p.items()) for p in got] == [list(p.items()) for p in want]


@pytest.mark.parametrize("n, dim", [(8, 4862), (9, 16796)])
def test_last_fundamental_weight_counts(n, dim):
    m = (0,) * (n - 1) + (1,)
    assert weyl_dimension(n, m) == dim
    assert len(lattice_points(n, m)) == dim


def test_list_weight_matches_tuple_weight():
    n, m = 3, (1, 0, 1)
    points = lattice_points(n, m)
    assert lattice_points(n, list(m)) == points
    for p in points:
        assert monomial_to_tableau(n, list(m), p) == monomial_to_tableau(n, m, p)
        assert monomial_weight(n, list(m), p) == monomial_weight(n, m, p)
