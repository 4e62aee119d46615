import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from sympbw.liealg import Root, positive_roots, root_vector_matrix, symplectic_form
from sympbw.pluecker import pbw_degree_index, poly_add, poly_frozen
from sympbw import relations
from sympbw.relations import Relation, generate_ideal, poly_term, term_pbw_degree
from sympbw.verify import (
    FlagPoint,
    _in_span,
    _pr13_pairing,
    _random_coefficients,
    check_counts,
    check_isotropy_projection,
    check_roundtrip,
    check_s_bridge,
    check_vanishing,
    sample_classical_flag,
    sample_degenerate_point,
)

from test_liealg import DIMENSIONS, matrix_minor, rank


def load_schema(name):
    text = resources.files("sympbw.schemas").joinpath(name).read_text()
    return json.loads(text)


def poly_eval(p, coords, s=None):
    """Reference evaluation of a polynomial dict: coords maps index tuples
    to exact numbers, s is the value of the deformation parameter.

    Integer coordinates and s give an int; a Fraction among them keeps the
    value an exact Fraction.
    """
    if s is not None and not isinstance(s, int):
        s = Fraction(s)
    total = 0
    for (s_deg, vars_), coeff in p.items():
        val = coeff
        if s_deg is not None:
            if s is None:
                raise ValueError("s-graded polynomial needs an s value")
            val *= s**s_deg
        for J in vars_:
            if J not in coords:
                raise ValueError(f"no value for variable X_{J}")
            val *= coords[J]
        total += val
    return total


def test_poly_eval():
    p = poly_add(poly_term(1, [(1,), (2, 3)]), poly_term(-4, [(2,), (2, 3)]))
    coords = {(1,): Fraction(3), (2,): Fraction(1, 2), (2, 3): Fraction(5)}
    assert poly_eval(p, coords) == Fraction(5)
    with pytest.raises(ValueError):
        poly_eval(p, {(1,): Fraction(1)})
    s_graded = {(1, ((1,),)): 1}
    assert poly_eval(s_graded, {(1,): Fraction(2)}, s=Fraction(3)) == 6
    with pytest.raises(ValueError):
        poly_eval(s_graded, {(1,): Fraction(2)})


def degenerate_operator(n, k, alpha):
    """Degree-graded action of f_alpha on the level-k wedge basis (the oracle).

    Acts by the derivation rule on each w_J and keeps only the components
    whose degree #{j > k} rises by exactly one.  Returned as a map
    J -> list of (J', integer coefficient).
    """
    mat = root_vector_matrix(n, alpha)
    entries = [
        (r + 1, c + 1, mat[r][c])
        for r in range(2 * n)
        for c in range(2 * n)
        if mat[r][c]
    ]
    op = {}
    for J in itertools.combinations(range(1, 2 * n + 1), k):
        deg = pbw_degree_index(k, J)
        terms = {}
        for pos in range(k):
            for r, c, v in entries:
                if c != J[pos] or r in J:
                    continue
                image = sorted(J[:pos] + (r,) + J[pos + 1 :])
                sign = (-1) ** (image.index(r) - pos)
                J2 = tuple(image)
                if pbw_degree_index(k, J2) != deg + 1:
                    continue
                terms[J2] = terms.get(J2, 0) + sign * v
        cleaned = [(J2, v) for J2, v in sorted(terms.items()) if v]
        if cleaned:
            op[J] = cleaned
    return op


def _wedge_apply(op, vec):
    out = {}
    for J, val in vec.items():
        for J2, c in op.get(J, ()):
            out[J2] = out.get(J2, 0) + c * val
    return {J: v for J, v in out.items() if v}


def _wedge_exp_apply(op, c, vec):
    """exp(c * op) vec, summed term by term in exact fractions until a term vanishes."""
    total = dict(vec)
    term = vec
    j = 0
    while term:
        j += 1
        term = {J: Fraction(c * v, j) for J, v in _wedge_apply(op, term).items()}
        for J, v in term.items():
            total[J] = total.get(J, 0) + v
    return {J: v for J, v in total.items() if v}


def test_degenerate_operator_golden():
    op = degenerate_operator(2, 1, Root(1, 1, False))
    assert op == {(1,): [((2,), 1)]}
    # a root acting inside the level truncates to zero there
    assert degenerate_operator(2, 2, Root(1, 1, False)) == {}
    op2 = degenerate_operator(2, 2, Root(1, 2, False))
    assert op2 == {
        (1, 2): [((1, 4), 1), ((2, 3), -1)],
        (1, 4): [((3, 4), 1)],
        (2, 3): [((3, 4), -1)],
    }


def test_classical_sampler():
    point = sample_classical_flag(2, 0)
    assert point.kind == "classical" and point.seed == 0
    assert sorted(point.coords) == [1, 2]
    # big cell: the leading coordinate of every level is 1
    assert point.coords[1][(1,)] == 1
    assert point.coords[2][(1, 2)] == 1
    # all coordinates are stored, zeros included
    assert len(point.coords[1]) == 4 and len(point.coords[2]) == 6
    assert sample_classical_flag(2, 0).coords == point.coords  # deterministic
    assert sample_classical_flag(2, 1).coords != point.coords


def test_degenerate_sampler():
    point = sample_degenerate_point(3, 4)
    assert point.kind == "degenerate"
    assert point.coords[1][(1,)] == 1
    assert sample_degenerate_point(3, 4).coords == point.coords


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_degenerate_sampler_matches_the_wedge_operator_oracle(n):
    # The point at level k is prod_alpha exp(c_alpha * op_alpha) applied to
    # w_{1..k}, with the sampler's own coefficients; every term is summed in
    # exact fractions, and the sum must be the sampler's integer minor.
    ops = {k: [(alpha, degenerate_operator(n, k, alpha)) for alpha in positive_roots(n)]
           for k in range(1, n + 1)}
    for seed in range(5):
        coeffs = _random_coefficients(n, seed)
        point = sample_degenerate_point(n, seed)
        for k in range(1, n + 1):
            vec = {tuple(range(1, k + 1)): 1}
            for alpha, op in ops[k]:
                vec = _wedge_exp_apply(op, coeffs[alpha], vec)
            expected = {J: vec.get(J, 0) for J in itertools.combinations(range(1, 2 * n + 1), k)}
            assert point.coords[k] == expected, (n, seed, k)
            assert all(type(v) is int for v in point.coords[k].values())


@pytest.mark.parametrize("sample", [sample_classical_flag, sample_degenerate_point])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_expansion_minors_match_bareiss(sample, n):
    # every coordinate the cofactor expansion reads equals the Bareiss minor
    # of the sampler's own spanning columns
    for seed in range(5):
        point = sample(n, seed)
        for k in range(1, n + 1):
            columns = point.bases[k]
            mat = [[columns[c][r] for c in range(k)] for r in range(2 * n)]
            expected = {J: matrix_minor(mat, J, range(1, k + 1))
                        for J in itertools.combinations(range(1, 2 * n + 1), k)}
            assert point.coords[k] == expected, (n, seed, k)
            assert list(point.coords[k]) == list(expected)  # lexicographic, as FlagPoint.flat reads


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wedge_operator_oracle_commutes(n):
    # the abelianized action: the level-k operators of any two roots commute
    for k in range(1, n + 1):
        ops = [degenerate_operator(n, k, alpha) for alpha in positive_roots(n)]
        for op1, op2 in itertools.combinations(ops, 2):
            for J in itertools.combinations(range(1, 2 * n + 1), k):
                vec = {J: 1}
                lhs = _wedge_apply(op1, _wedge_apply(op2, vec))
                assert lhs == _wedge_apply(op2, _wedge_apply(op1, vec)), (n, k, J)


def test_flat_merges_levels():
    point = sample_classical_flag(2, 2)
    flat = point.flat()
    assert flat[(1,)] == point.coords[1][(1,)]
    assert flat[(1, 2)] == point.coords[2][(1, 2)]
    assert len(flat) == 10


def test_vanishing_reports():
    classical = [sample_classical_flag(2, seed) for seed in range(5)]
    degenerate = [sample_degenerate_point(2, seed) for seed in range(5)]
    report = check_vanishing(generate_ideal(2, "classical"), classical)
    assert report["ok"] and report["checked"] == 30 and report["failures"] == []
    report = check_vanishing(generate_ideal(2, "degenerate"), degenerate)
    assert report["ok"] and report["checked"] == 30


def test_vanishing_detects_failure():
    bad = Relation("pluecker", "bad", poly_frozen(poly_term(1, [(1,), (1, 2)])))
    report = check_vanishing([bad], [sample_classical_flag(2, 0)])
    assert not report["ok"] and len(report["failures"]) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_sampled_coordinates_are_ints(n):
    for seed in range(3):
        for point in (sample_classical_flag(n, seed), sample_degenerate_point(n, seed)):
            assert all(type(v) is int for v in point.flat().values())


def test_poly_eval_exact_types():
    p = poly_add(poly_term(3, [(1,), (2,)]), poly_term(-1, [(1, 2)]))
    assert poly_eval(p, {(1,): 2, (2,): 5, (1, 2): 7}) == 23
    assert type(poly_eval(p, {(1,): 2, (2,): 5, (1, 2): 7})) is int
    # 3 * 1/3 * 3/2 - 1/2 = 1, exactly
    exact = poly_eval(p, {(1,): Fraction(1, 3), (2,): Fraction(3, 2), (1, 2): Fraction(1, 2)})
    assert exact == 1 and isinstance(exact, Fraction)
    assert poly_eval(p, {(1,): Fraction(1, 3), (2,): 1, (1, 2): 0}) == 1


@pytest.mark.parametrize("kind", ["classical", "degenerate"])
def test_vanishing_catches_a_bumped_coefficient(kind):
    sample = sample_classical_flag if kind == "classical" else sample_degenerate_point
    points = [sample(2, seed) for seed in range(3)]
    relations = generate_ideal(2, kind)
    for i, rel in enumerate(relations):
        (key, coeff), *rest = rel.poly
        bumped = replace(rel, poly=((key, coeff + 1), *rest))
        report = check_vanishing(relations[:i] + [bumped] + relations[i + 1 :], points)
        # the bump adds exactly the bumped monomial's value at each point
        expected = [
            {"relation": rel.label, "seed": point.seed, "value": str(value)}
            for point in points
            if (value := poly_eval({key: 1}, point.flat()))
        ]
        assert expected and report["failures"] == expected and not report["ok"]


def test_vanishing_kind_mismatch():
    with pytest.raises(ValueError):
        check_vanishing(generate_ideal(2, "degenerate"), [sample_classical_flag(2, 0)])
    with pytest.raises(ValueError):
        check_vanishing(generate_ideal(2, "classical"), [sample_degenerate_point(2, 0)])


def test_isotropy_projection():
    for seed in range(5):
        assert check_isotropy_projection(sample_degenerate_point(2, seed), 1)
        assert check_isotropy_projection(sample_degenerate_point(3, seed), 2)
    # classical flags are not isotropic under the coordinate projection
    assert not check_isotropy_projection(sample_classical_flag(2, 0), 1)


def oracle_pairing(n, k, u, w):
    """Psi(pr_{1,3} u, pr_{1,3} w) summed over the 2n x 2n symplectic form."""
    psi = symplectic_form(n)
    keep = [r < k or r >= 2 * n - k for r in range(2 * n)]
    return sum(u[r] * psi[r][c] * w[c] for r in range(2 * n) for c in range(2 * n)
               if keep[r] and keep[c])


def oracle_isotropy_projection(point, k):
    """The isotropy check by the 2n x 2n form and Bareiss ranks."""
    basis = point.bases[k]
    if any(oracle_pairing(point.n, k, u, w) for u in basis for w in basis):
        return False
    if k < point.n:
        upper = list(point.bases[k + 1])
        dropped = [tuple(0 if r == k else x for r, x in enumerate(v)) for v in basis]
        return rank(upper + dropped) == rank(upper)
    return True


@pytest.mark.parametrize("sample", [sample_classical_flag, sample_degenerate_point])
def test_containment_by_substitution_matches_the_bareiss_oracle(sample):
    # 200 cases per sampler: n <= 5, seeds 0-19, every level k < n
    contained = []
    for n in range(1, 6):
        for seed in range(20):
            point = sample(n, seed)
            for k in range(1, n):
                upper = point.bases[k + 1]
                dropped = [tuple(0 if r == k else x for r, x in enumerate(v)) for v in point.bases[k]]
                for v in dropped:
                    assert _in_span(upper, v) == (rank(list(upper) + [v]) == rank(upper)), (n, seed, k)
                contained.append(all(_in_span(upper, v) for v in dropped))
            for k in range(1, n + 1):
                assert check_isotropy_projection(point, k) == oracle_isotropy_projection(point, k)
    assert len(contained) == 200
    # classical columns leave U_{k+1} once row k + 1 is killed; degenerate ones never do
    assert all(contained) if sample is sample_degenerate_point else not any(contained)


@pytest.mark.parametrize("sample", [sample_classical_flag, sample_degenerate_point])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_pairing_matches_the_symplectic_form(sample, n):
    # the columns of every level, and random controls that pair nonzero
    rng = random.Random(n)
    nonzero = 0
    for seed in range(5):
        point = sample(n, seed)
        vectors = [v for k in range(1, n + 1) for v in point.bases[k]]
        vectors += [tuple(rng.randint(-5, 5) for _ in range(2 * n)) for _ in range(3)]
        for k in range(1, n + 1):
            for u, w in itertools.product(vectors, repeat=2):
                expected = oracle_pairing(n, k, u, w)
                assert _pr13_pairing(k, u, w) == expected, (seed, k, u, w)
                nonzero += expected != 0
    assert nonzero


def test_isotropy_holds_but_containment_fails():
    # U_1 = span(e1 + e3): one vector, so pr_{1,3}(U_1) is isotropic, but
    # killing row 2 leaves e1 + e3, which is not in U_2 = span(e1, e2)
    u1 = (1, 0, 1, 0)
    e1, e2 = (1, 0, 0, 0), (0, 1, 0, 0)
    point = FlagPoint(n=2, kind="degenerate", seed=None, coords={}, bases={1: [u1], 2: [e1, e2]})
    assert _pr13_pairing(1, u1, u1) == 0
    assert not _in_span(point.bases[2], u1)
    assert not check_isotropy_projection(point, 1)
    assert check_isotropy_projection(replace(point, bases={1: [u1], 2: [u1, e2]}), 1)


@pytest.mark.parametrize("upper", [
    [(2, 0, 0, 0), (0, 1, 0, 0)],  # a diagonal entry other than 1
    [(1, 0, 0, 0), (1, 1, 0, 0)],  # a nonzero above the diagonal
    [(0, 1, 0, 0), (1, 0, 0, 0)],  # a permutation of e1, e2: same span, not triangular
])
def test_isotropy_refuses_a_level_that_is_not_unitriangular(upper):
    point = FlagPoint(n=2, kind="degenerate", seed=None, coords={}, bases={1: [(1, 0, 0, 0)], 2: upper})
    with pytest.raises(ValueError, match="column . is not unitriangular"):
        check_isotropy_projection(point, 1)


@pytest.mark.parametrize("sample", [sample_classical_flag, sample_degenerate_point])
@pytest.mark.parametrize("n", [0, -1, 1.5, True])
def test_samplers_refuse_a_rank_below_one(sample, n):
    with pytest.raises(ValueError, match="needs n >= 1"):
        sample(n, 1)


@pytest.mark.parametrize("k", [0, 4, -1, 1.5, True])
def test_isotropy_projection_refuses_a_level_the_point_lacks(k):
    with pytest.raises(ValueError, match="level k must be in 1..3"):
        check_isotropy_projection(sample_degenerate_point(3, 1), k)


def test_counts_report():
    report = check_counts(2, (1, 1))
    assert report["ok"]
    assert report["lattice_points"] == report["tableaux"] == 16
    assert report["weyl_dimension"] == DIMENSIONS[(2, (1, 1))]


def test_roundtrip_report():
    report = check_roundtrip(3, (0, 0, 1))
    assert report["ok"] and report["checked"] == 14


def test_s_bridge():
    points = [sample_classical_flag(2, seed) for seed in range(5)]
    report = check_s_bridge(generate_ideal(2, "s-family"), points)
    assert report["ok"] and report["checked"] == 30
    with pytest.raises(ValueError):
        check_s_bridge(generate_ideal(2, "classical"), points)
    with pytest.raises(ValueError):
        check_s_bridge(generate_ideal(2, "s-family"), [sample_degenerate_point(2, 0)])


def test_s_bridge_catches_bumped_coefficients():
    # Bump the leading coefficient of the first and the last relation: each
    # is reported at every point where the bumped monomial is nonzero, at its
    # power of s, points outermost and relations in input order.
    points = [sample_classical_flag(3, seed) for seed in range(3)]
    relations = generate_ideal(3, "s-family")
    assert check_s_bridge(relations, points)["ok"]
    bumped = list(relations)
    for i in (0, len(relations) - 1):
        (key, coeff), *rest = relations[i].poly
        bumped[i] = replace(relations[i], poly=((key, coeff + 1), *rest))
    expected = []
    for point in points:
        for i in (0, len(relations) - 1):
            key = relations[i].poly[0][0]
            if value := poly_eval({(None, key[1]): 1}, point.flat()):
                exponent = (key[0] or 0) - term_pbw_degree(key)
                expected.append({"relation": relations[i].label, "seed": point.seed,
                                 "nonzero": {exponent: str(value)}})
    report = check_s_bridge(bumped, points)
    assert len(expected) > 2 and report["failures"] == expected and not report["ok"]
    assert report["checked"] == len(relations) * len(points)


def _perturb_every_relation(relations, seed):
    """Each relation with one seeded coefficient moved by a seeded nonzero amount."""
    rng = random.Random(seed)
    out = []
    for rel in relations:
        terms = list(rel.poly)
        i = rng.randrange(len(terms))
        key, coeff = terms[i]
        terms[i] = (key, coeff + rng.choice([-2, -1, 1, 2]))
        out.append(replace(rel, poly=tuple(terms)))
    return out


@pytest.mark.parametrize("kind", ["classical", "degenerate"])
def test_vanishing_reports_what_the_oracle_evaluates(kind):
    sample = sample_classical_flag if kind == "classical" else sample_degenerate_point
    points = [sample(3, seed) for seed in range(3)]
    perturbed = _perturb_every_relation(generate_ideal(3, kind), seed=5)
    expected = [
        {"relation": rel.label, "seed": point.seed, "value": str(value)}
        for point in points
        for rel in perturbed
        if (value := poly_eval(dict(rel.poly), point.flat()))
    ]
    report = check_vanishing(perturbed, points)
    assert len(expected) > len(perturbed) and report["failures"] == expected
    assert report["checked"] == len(perturbed) * len(points) and not report["ok"]


def _s_buckets(poly, flat):
    """Coefficient of each power of s after y_J = s^(-deg J) x_J, term by term."""
    buckets = {}
    for (s_deg, vars_), coeff in poly:
        exponent = s_deg - term_pbw_degree((s_deg, vars_))
        value = poly_eval({(None, vars_): coeff}, flat)
        buckets[exponent] = buckets.get(exponent, 0) + value
    return {e: str(v) for e, v in buckets.items() if v}


def test_s_bridge_reports_what_the_oracle_evaluates():
    points = [sample_classical_flag(3, seed) for seed in range(3)]
    perturbed = _perturb_every_relation(generate_ideal(3, "s-family"), seed=6)
    s = Fraction(1, 3)
    expected = []
    for point in points:
        flat = point.flat()
        rescaled = {J: x * s ** -term_pbw_degree((None, (J,))) for J, x in flat.items()}
        for rel in perturbed:
            nonzero = _s_buckets(rel.poly, flat)
            if nonzero:
                # one power of s per generated relation: the value at s = 1/3 is its bucket
                (exponent, bucket), = nonzero.items()
                assert poly_eval(dict(rel.poly), rescaled, s) == int(bucket) * s**exponent
                expected.append({"relation": rel.label, "seed": point.seed, "nonzero": nonzero})
    report = check_s_bridge(perturbed, points)
    assert len(expected) > len(perturbed) and report["failures"] == expected
    assert report["checked"] == len(perturbed) * len(points) and not report["ok"]


def test_s_bridge_sums_mixed_powers_separately():
    points = [sample_classical_flag(2, seed) for seed in range(3)]
    # R^1_{(1,2),(2bar)} with every term at s^0: its terms land on s^-1 and s^-2,
    # and each power fails on its own although the relation vanishes at s = 1
    plain = Relation("s_family", "plain", poly_frozen({
        (0, ((1,), (2, 3))): 1, (0, ((2,), (1, 3))): -1, (0, ((3,), (1, 2))): 1}))
    # two generated s-relations on different powers, added: every power cancels
    first, other = generate_ideal(2, "s-family")[0:3:2]
    powers = [{key[0] - term_pbw_degree(key) for key, _ in rel.poly} for rel in (first, other)]
    assert powers == [{-1}, {-2}]
    summed = Relation("s_family", "summed", poly_frozen(dict(first.poly + other.poly)))
    assert len(summed.poly) == len(first.poly) + len(other.poly)
    report = check_s_bridge([plain, summed], points)
    expected = [{"relation": "plain", "seed": point.seed,
                 "nonzero": _s_buckets(plain.poly, point.flat())} for point in points]
    assert all(len(failure["nonzero"]) == 2 for failure in expected)
    assert report["failures"] == expected and report["checked"] == 6


def test_checks_evaluate_products_of_any_length():
    # generated terms have one or two variables, which take different paths
    # through the evaluator; a term of three variables takes the general one
    points = [sample_classical_flag(2, seed) for seed in range(3)]
    terms = {((3,),): 2, ((1,), (2, 3)): -1, ((2,), (1, 3), (2, 4)): 3}
    plain = Relation("pluecker", "r", poly_frozen({(None, v): c for v, c in terms.items()}))
    graded = Relation("s_family", "r", poly_frozen({(0, v): c for v, c in terms.items()}))
    values = [poly_eval(dict(plain.poly), point.flat()) for point in points]
    buckets = [_s_buckets(graded.poly, point.flat()) for point in points]
    assert all(values) and all(buckets)
    assert check_vanishing([plain], points)["failures"] == [
        {"relation": "r", "seed": point.seed, "value": str(value)}
        for point, value in zip(points, values)]
    assert check_s_bridge([graded], points)["failures"] == [
        {"relation": "r", "seed": point.seed, "nonzero": nonzero}
        for point, nonzero in zip(points, buckets)]


def test_checks_refuse_a_variable_the_point_lacks():
    point = sample_classical_flag(2, 0)
    too_high = ((1, 2, 3),)  # level 3 does not exist at n = 2
    with pytest.raises(ValueError, match="no value for variable"):
        check_vanishing([Relation("pluecker", "r", (((None, too_high), 1),))], [point])
    with pytest.raises(ValueError, match="no value for variable"):
        check_s_bridge([Relation("s_family", "r", (((0, too_high), 1),))], [point])


def _check_for(kind):
    return check_s_bridge if kind == "s-family" else check_vanishing


def _points_for(kind, n):
    sample = sample_degenerate_point if kind == "degenerate" else sample_classical_flag
    return [sample(n, seed) for seed in range(3)]


@pytest.mark.parametrize("kind", ["classical", "degenerate", "s-family"])
def test_ideal_passes_by_pattern_without_building_its_list(monkeypatch, kind):
    def unbuilt(self):
        raise AssertionError("the passing check built the relation list")

    monkeypatch.setattr(relations.Ideal, "_relations", unbuilt)
    ideal = generate_ideal(3, kind)
    report = _check_for(kind)(ideal, _points_for(kind, 3))
    assert report["ok"] and report["checked"] == len(ideal) * 3


SHAPES_N3 = [shape for shape in relations._shapes(3) if relations._exchange_patterns(*shape)]


@pytest.mark.parametrize("shape", SHAPES_N3)
@pytest.mark.parametrize("kind", ["classical", "degenerate", "s-family"])
def test_pattern_check_reports_what_the_list_check_reports(monkeypatch, kind, shape):
    # one coefficient of the last pattern of one shape moves: the check by
    # pattern must see it, and report exactly what the list walk reports
    real = relations._kind_patterns

    def moved(p, q, m, kind_, cuts):
        patterns = real(p, q, m, kind_, cuts)
        if (p, q, m) != shape or not patterns:
            return patterns
        *first, (L, J, t, ((key, coeff), *terms)) = patterns
        return (*first, (L, J, t, ((key, 2 * coeff), *terms)))

    monkeypatch.setattr(relations, "_kind_patterns", moved)
    points = _points_for(kind, 3)
    # every relation vanishes where every coordinate is 0: the failure shows only at later points
    zero = replace(points[0], seed=-1,
                   coords={k: dict.fromkeys(table, 0) for k, table in points[0].coords.items()})
    points.insert(0, zero)
    ideal = generate_ideal(3, kind)
    report = _check_for(kind)(ideal, points)
    assert not report["ok"]
    assert report == _check_for(kind)(list(ideal), points)


@pytest.mark.parametrize("kind", ["classical", "degenerate", "s-family"])
def test_ideal_checks_refuse_a_variable_the_points_lack(kind):
    for lacking in range(2):  # the first point, whose indices key the table, or the second
        points = _points_for(kind, 2)[:2]
        del points[lacking].coords[2][(1, 2)]
        with pytest.raises(ValueError, match=r"no value for variable X_\(1, 2\)"):
            _check_for(kind)(generate_ideal(2, kind), points)


def test_checks_refuse_mismatched_kinds():
    classical, degenerate = sample_classical_flag(2, 0), sample_degenerate_point(2, 0)
    s_family = generate_ideal(2, "s-family")
    with pytest.raises(ValueError):
        check_vanishing(s_family, [classical])
    with pytest.raises(ValueError):
        check_vanishing(s_family, [])
    with pytest.raises(ValueError):  # one point of each kind
        check_vanishing(generate_ideal(2, "classical"), [classical, degenerate])
    with pytest.raises(ValueError):
        check_s_bridge(generate_ideal(2, "degenerate"), [classical])
    with pytest.raises(ValueError):
        check_s_bridge(s_family, [classical, degenerate])


def test_checks_refuse_points_of_different_n():
    # the value table has one index set: points of two ranks are refused,
    # not evaluated at indices one of them lacks
    mixed = [sample_classical_flag(2, 0), sample_classical_flag(3, 0)]
    with pytest.raises(ValueError, match="points of different n"):
        check_s_bridge(generate_ideal(2, "s-family"), mixed)
    with pytest.raises(ValueError, match="points of different n"):
        check_vanishing(generate_ideal(2, "classical"), mixed)
    with pytest.raises(ValueError, match="points of different n"):
        check_vanishing(generate_ideal(2, "degenerate"),
                        [sample_degenerate_point(3, 0), sample_degenerate_point(2, 0)])


@pytest.mark.parametrize("kind", ["classical", "degenerate", "s-family"])
def test_no_points_is_a_failure_not_a_pass(kind):
    # at n = 1 the generating set is empty, and the suite is still the kind's
    for n in (1, 2):
        relations = generate_ideal(n, kind)
        assert (len(relations) == 0) == (n == 1)
        if kind == "s-family":
            report = check_s_bridge(relations, [])
        else:
            report = check_vanishing(relations, [])
        assert report["suite"] == ("s-family" if kind == "s-family" else f"{kind}-ideal")
        assert report["checked"] == 0 and not report["ok"]
        assert report["failures"] == [{"error": "no points were sampled"}]
        jsonschema.validate(report, load_schema("verifyreport.schema.json"))


def test_report_schema():
    schema = load_schema("verifyreport.schema.json")
    jsonschema.validate(check_counts(2, (2, 0)), schema)
    jsonschema.validate(check_roundtrip(2, (1, 1)), schema)
    points = [sample_classical_flag(2, 0)]
    jsonschema.validate(check_vanishing(generate_ideal(2, "classical"), points), schema)
    jsonschema.validate(check_s_bridge(generate_ideal(2, "s-family"), points), schema)


def test_symplectic_form_preserved():
    # the sampler's group elements preserve the form, so the top minor row
    # space is Lagrangian: X_{1..n} coordinate is 1 and the form golden holds
    psi = symplectic_form(2)
    assert psi[0] == [0, 0, 0, 1]
    assert psi[3] == [-1, 0, 0, 0]
