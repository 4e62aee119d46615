"""Exact point sampling and runtime checks.

Samples integral points on the classical symplectic flag variety (unipotent
orbit through the highest-weight flag) and on its PBW degeneration
(abelianized orbit: level k from the truncation P_{>k} F P_{<=k} of one
random lowering matrix F), then checks generated relations, projection
geometry, enumeration counts, and the monomial/tableau bijection against
them.  Both samplers read every Pluecker coordinate as a minor of integer
spanning columns, one route per point: all minors of a level at once, by
cofactor expansion.  Both relation checks sum each relation's terms over a
table of every variable's values at all points.  The Ideal of
generate_ideal is checked by pattern: per row set U its pattern variables
are looked up once and no relation is relabelled, labelled or sorted.
Only a nonzero sum has its list built and walked, so failures are
reported as for a plain list of relations.  All arithmetic is exact, in
``int``.
"""

import itertools
import random
from dataclasses import dataclass, field
from operator import add, mul

from .correspondence import monomial_to_tableau, monomial_weight, tableau_to_monomial
from .fflv import lattice_points, multiexp_to_json
from .liealg import (
    identity_matrix,
    mat_add,
    mat_mul,
    mat_scale,
    positive_roots,
    root_vector_matrix,
    symplectic_form,
    transpose,
    weyl_dimension,
)
from .pluecker import pbw_degree_index
from .relations import Ideal
from .tableaux import enumerate_tableaux, tableau_weight


@dataclass
class FlagPoint:
    """Integer coordinates of a sampled flag, one table per level.

    ``coords[k]`` maps every level-k Pluecker index to an int.  ``bases[k]``
    retains the k integer spanning vectors the coordinates were read from, so
    that subspace-level checks can run on the same sample.
    """

    n: int
    kind: str
    seed: int | None
    coords: dict = field(repr=False)
    bases: dict = field(repr=False)

    def flat(self):
        """All coordinates in one dict, keyed by index tuple."""
        out = {}
        for table in self.coords.values():
            out.update(table)
        return out


def _minors(vectors, size):
    """Every k x k minor of the size x k matrix with the k given columns, by
    row set J (sorted, 1-indexed) in lexicographic order.

    Cofactor expansion along the newest column, one column at a time: the
    j-minor on J is sum_i (-1)^(i+j) col_j[J_i] * minor(J - J_i), the
    (j-1)-minors read off the first j - 1 columns.
    """
    minors = {(): 1}
    for j, col in enumerate(vectors):
        minors = {J: sum((-1) ** (i + j) * col[r - 1] * minors[J[:i] + J[i + 1:]] for i, r in enumerate(J))
                  for J in itertools.combinations(range(1, size + 1), j + 1)}
    return minors


def _point_from_columns(n, columns, kind, seed):
    """Read all Pluecker coordinates off per-level spanning columns.

    ``columns[k]`` is a list of k integer vectors of length 2n.
    """
    coords = {}
    for k in range(1, n + 1):
        table = _minors(columns[k], 2 * n)
        assert any(table.values()), f"level {k} has no nonzero coordinate"
        coords[k] = table
    return FlagPoint(n=n, kind=kind, seed=seed, coords=coords, bases=columns)


def _matrix_columns(m, count):
    return [tuple(row[c] for row in m) for c in range(count)]


def _random_coefficients(n, seed):
    if type(n) is not int or n < 1:
        raise ValueError(f"a flag point needs n >= 1, an int, got n={n!r}")
    rng = random.Random(seed)
    return {alpha: rng.randint(-9, 9) for alpha in positive_roots(n)}


def sample_classical_flag(n, seed):
    """A random point of the symplectic flag variety, exact coordinates.

    The point is M acting on the highest-weight flag, with
    M = prod_alpha exp(c_alpha f_alpha) over all positive roots and small
    integer c_alpha; level-k coordinates are the k x k minors of the first k
    columns of M.  Every root vector squares to zero in the defining
    representation, so exp(c f) = I + c f; the Sp(2n) assert below fails if
    that ever stops holding, since (I + c f)^T Psi (I + c f) = Psi - c^2 Psi f^2.
    """
    coeffs = _random_coefficients(n, seed)
    one = identity_matrix(2 * n)
    m = one
    for alpha in positive_roots(n):
        m = mat_mul(m, mat_add(one, mat_scale(coeffs[alpha], root_vector_matrix(n, alpha))))
    psi = symplectic_form(n)
    assert mat_mul(transpose(m), mat_mul(psi, m)) == psi, "sample left Sp(2n)"
    columns = {k: _matrix_columns(m, k) for k in range(1, n + 1)}
    return _point_from_columns(n, columns, "classical", seed)


def sample_degenerate_point(n, seed):
    """A random point of the degenerate flag variety, exact coordinates.

    The point lies on the orbit of the abelianized unipotent group through
    the highest-weight flag.  With F = sum_alpha c_alpha f_alpha over all
    positive roots (the same small integer c_alpha at every level), level k
    is spanned by the first k columns of exp(X) = I + X with
    X = P_{>k} F P_{<=k}: X maps into span(e_{k+1}, ..., e_{2n}), which X
    kills, so X^2 = 0 and the series stops after its linear term.
    Coordinates are the k x k minors of those columns, as for the classical
    sampler.
    """
    coeffs = _random_coefficients(n, seed)
    size = 2 * n
    zero = [[0] * size for _ in range(size)]
    f = zero
    for alpha in positive_roots(n):
        f = mat_add(f, mat_scale(coeffs[alpha], root_vector_matrix(n, alpha)))
    columns = {}
    for k in range(1, n + 1):
        x = [[f[r][c] if r >= k and c < k else 0 for c in range(size)] for r in range(size)]
        assert mat_mul(x, x) == zero, f"level-{k} truncation does not square to zero"
        columns[k] = _matrix_columns(mat_add(identity_matrix(size), x), k)
    return _point_from_columns(n, columns, "degenerate", seed)


def _check_kinds(relations, ring, points, point_kind):
    """Raise ValueError unless every relation is in ring and every point of point_kind."""
    rings = [relations.ring] if isinstance(relations, Ideal) else (rel.ring for rel in relations)
    for relation_ring in rings:
        if relation_ring != ring:
            raise ValueError(f"kind mismatch: {relation_ring} relation, expected {ring}")
    for point in points:
        if point.kind != point_kind:
            raise ValueError(f"kind mismatch: {point.kind} point, expected {point_kind}")


def _sums(poly, table, graded, count):
    """{power of s: [sum at each point]} of one relation over the value table."""
    sums = {}
    for (s, vars_), coeff in poly:
        power = (s or 0) if graded else 0
        values = [coeff] * count
        for J in vars_:
            degree, at = table[J]
            power -= degree
            values = list(map(mul, values, at))
        sums[power] = list(map(add, sums.get(power, [0] * count), values))
    return sums


def _vanishes(ideal, table, graded, count):
    """True if every relation of the Ideal has all sums zero, checked by pattern.

    The S-relations go through _sums.  For each row set U of Ideal.blocks()
    the pattern variables are looked up once, and each pattern's terms, of
    two variables each, add into its sums: nothing is relabelled, labelled
    or sorted.  Stops at the first nonzero sum.
    """
    for rel in ideal.s_relations:
        if any(map(any, _sums(rel.poly, table, graded, count).values())):
            return False
    evaluated = len(ideal.s_relations)
    at_points = range(count)
    for image, patterns in ideal.blocks():
        at = {var: table[J] for var, J in image.items()}
        for *_, frozen in patterns:
            sums = {}
            for (s, (a, b)), coeff in frozen:
                (degree_a, at_a), (degree_b, at_b) = at[a], at[b]
                power = (s or 0) - degree_a - degree_b if graded else 0
                acc = sums.setdefault(power, [0] * count)
                for p in at_points:
                    acc[p] += coeff * at_a[p] * at_b[p]
            if any(map(any, sums.values())):
                return False
            evaluated += 1
    assert evaluated == len(ideal), f"evaluated {evaluated} of {len(ideal)} relations"
    return True


def _failures(relations, points, graded, nonzero):
    """The failures of the relations at the points, point by point.

    One table maps every Pluecker index J to its PBW degree deg J (0 unless
    graded) and its values at all points, so each variable is looked up once
    for all points.  The term c * s^a * X_J1 ... X_Jr adds to the sums at
    power a - deg J1 - ... - deg Jr of s (power 0 unless graded).  An Ideal
    is first checked by pattern (_vanishes); only if that finds a nonzero
    sum, or a missing value, is its list walked below, relation by relation,
    so failures read the same whatever the relations came as.
    nonzero(sums, p) gives the failure fields at point p, if any, from
    sums = {power: [sum at each point]}.  ValueError for points of
    different n or a variable the points lack.
    """
    if not points:
        return [{"error": "no points were sampled"}]
    if len({point.n for point in points}) > 1:
        raise ValueError(f"points of different n: {sorted({point.n for point in points})}")
    flats = [point.flat() for point in points]
    count = len(points)
    found = [[] for _ in points]  # the failures at each point
    try:
        table = {J: (pbw_degree_index(len(J), J) if graded else 0, [flat[J] for flat in flats])
                 for J in flats[0]}
        if isinstance(relations, Ideal):
            try:
                if _vanishes(relations, table, graded, count):
                    return []
            except KeyError:
                pass  # the walk below names the missing variable in list order
        for rel in relations:
            sums = _sums(rel.poly, table, graded, count)
            if any(map(any, sums.values())):
                for p, (point, at_point) in enumerate(zip(points, found)):
                    if fields := nonzero(sums, p):
                        at_point.append({"relation": rel.label, "seed": point.seed, **fields})
    except KeyError as exc:
        raise ValueError(f"no value for variable X_{exc.args[0]}") from None
    return [failure for at_point in found for failure in at_point]


def check_vanishing(relations, points):
    """Evaluate every relation at every point; report nonzero values.

    Relation and point kinds must match ("s-family" relations carry a formal
    variable and are checked by check_s_bridge instead), and the points
    must share one n.  Failures are listed point by point.  With no points
    nothing is checked, and the report fails rather than passing vacuously.
    """
    if points:
        kind = points[0].kind
    elif isinstance(relations, Ideal):  # the ring the points would have come from
        kind = relations.ring
    else:
        kind = relations[0].ring if relations else None
    if kind == "s":
        raise ValueError("s-family relations are checked by check_s_bridge")
    _check_kinds(relations, kind, points, kind)
    failures = _failures(relations, points, False,
                         lambda sums, p: sums[0][p] and {"value": str(sums[0][p])})
    return {"suite": f"{kind}-ideal" if kind else "vanishing",
            "checked": len(relations) * len(points), "failures": failures, "ok": not failures}


def check_s_bridge(relations, points):
    """The s-deformed relations vanish identically along the rescaling family.

    For a classical point x, substituting y_J = s^(-deg J) * x_J into an
    s-graded relation must give the zero Laurent polynomial in s: the
    coefficient of each power of s is summed exactly and must cancel (a
    generated s-relation has one power, minus its lowest PBW degree).  The
    points must share one n.  Failures are listed point by point.  With no
    points nothing is checked, and the report fails.
    """
    _check_kinds(relations, "s", points, "classical")

    def nonzero(sums, p):
        bad = {power: str(values[p]) for power, values in sums.items() if values[p]}
        return bad and {"nonzero": bad}

    failures = _failures(relations, points, True, nonzero)
    return {"suite": "s-family", "checked": len(relations) * len(points),
            "failures": failures, "ok": not failures}


def _pr13_pairing(k, u, w):
    """Psi(pr_{1,3} u, pr_{1,3} w) for vectors of length 2n.

    Psi is antidiagonal, +1 at (r, bar(r)) for r <= n, so the pairing is
    sum_{r<=n} (u_r w_bar(r) - u_bar(r) w_r); pr_{1,3} keeps rows 1..k and
    their bars and zeroes the rest, so only the terms r <= k remain.
    """
    return sum(u[r] * w[-1 - r] - u[-1 - r] * w[r] for r in range(k))


def _in_span(columns, v):
    """Whether v lies in the span of the columns, by forward substitution.

    Column i must be unitriangular at the top: entry i is 1 and every entry
    above it 0, as in both samplers, since every f_alpha is strictly lower
    triangular.  Subtracting residual[i] times column i clears entry i for
    good, so v is in the span iff nothing is left.  ValueError for any
    other column.
    """
    residual = list(v)
    for i, col in enumerate(columns):
        if col[i] != 1 or any(col[:i]):
            raise ValueError(f"column {i + 1} is not unitriangular at the top: {list(col)}")
        if c := residual[i]:
            residual = [a - c * b for a, b in zip(residual, col)]
    return not any(residual)


def check_isotropy_projection(point, k):
    """The level-k subspace of the point satisfies the linear-algebra realization.

    True iff pr_{1,3}(U_k) is isotropic for the symplectic form, and (for
    k < n) the projection of U_k killing coordinate k+1 lies inside U_{k+1}.
    Containment is decided by forward substitution, so the k + 1 columns
    of point.bases[k + 1] must be unitriangular in their top k + 1 rows
    (1 on the diagonal, 0 above it), as the samplers' columns are;
    ValueError for any other.  ValueError unless k is an int in 1..point.n.
    """
    n = point.n
    if type(k) is not int or not 1 <= k <= n:
        raise ValueError(f"level k must be in 1..{n}, got {k}")
    basis = point.bases[k]
    if k < n:
        upper = point.bases[k + 1]
        for v in basis:
            dropped = list(v)
            dropped[k] = 0
            if not _in_span(upper, dropped):
                return False
    return not any(_pr13_pairing(k, u, w) for u, w in itertools.combinations(basis, 2))


def check_counts(n, lam):
    """Lattice points, tableaux, and the Weyl dimension all agree."""
    lam = tuple(lam)
    polytope = len(lattice_points(n, lam))
    tableaux = len(enumerate_tableaux(n, lam))
    dimension = weyl_dimension(n, lam)
    ok = polytope == tableaux == dimension
    return {"suite": "counts", "n": n, "lambda": list(lam),
            "lattice_points": polytope, "tableaux": tableaux,
            "weyl_dimension": dimension, "checked": 3, "failures": [] if ok else
            [{"lattice_points": polytope, "tableaux": tableaux, "weyl_dimension": dimension}],
            "ok": ok}


def check_roundtrip(n, lam):
    """The monomial/tableau correspondence is a weight-preserving bijection."""
    lam = tuple(lam)
    monomials = lattice_points(n, lam)
    tableaux = enumerate_tableaux(n, lam)
    failures = []
    seen = set()
    for p in monomials:
        tab = monomial_to_tableau(n, lam, p)
        key = tuple(tuple(col) for col in tab)
        if key in seen:
            failures.append({"monomial": multiexp_to_json(n, p), "error": "tableau hit twice"})
        seen.add(key)
        back_m, back = tableau_to_monomial(n, tab)
        if back_m != lam or back != p:
            failures.append({"monomial": multiexp_to_json(n, p), "error": "round trip changed it"})
        if monomial_weight(n, lam, p) != tableau_weight(n, tab):
            failures.append({"monomial": multiexp_to_json(n, p), "error": "weight mismatch"})
    if len(seen) != len(tableaux):
        failures.append({"error": f"image size {len(seen)} != {len(tableaux)} tableaux"})
    return {"suite": "roundtrip", "n": n, "lambda": list(lam),
            "checked": len(monomials), "failures": failures, "ok": not failures}
