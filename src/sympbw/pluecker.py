"""Pluecker coordinates on symplectic flag varieties: index bookkeeping,
the row order of an index's minor, PBW degrees, and exact sparse polynomials.

A level-k Pluecker variable X_J is labelled by a sorted k-tuple J of rows from
1..2n.  The unbarred entries of J form I1 and the bases of its barred entries
I2; the minor (I2, I1) of J is computed by a determinant whose rows are J's,
in the order of minor_rows.  pbw_fill(J) is J's column.

Polynomials are dicts mapping term keys to integer coefficients.  A term key
is (s_deg, vars) with vars a tuple of index tuples sorted by (level, index)
and s_deg either None (plain polynomial) or a nonnegative power of the
deformation parameter s.
"""

from functools import lru_cache

from .liealg import bar


# --- indices ---


@lru_cache(maxsize=1 << 16)
def _sort_sign(seq):
    """(sorted tuple, (-1)^inversions) of a row tuple, or (None, 0) on a repeat."""
    k = len(seq)
    if len(set(seq)) < k:
        return None, 0
    odd = False
    for a in range(k - 1):
        for b in range(a + 1, k):
            if seq[a] > seq[b]:
                odd = not odd
    return tuple(sorted(seq)), -1 if odd else 1


def check_index(n, J, what="column indices"):
    """J as a tuple, or ValueError unless it is a Pluecker index at rank n:
    1 <= |J| <= n int entries, strictly increasing over 1..2n."""
    J = tuple(J)
    if any(type(e) is not int for e in J):
        raise ValueError(f"{what} must be ints, got {J!r}")
    if not J or len(J) > n:
        raise ValueError(f"column level {len(J)} out of range for n={n}")
    if any(J[a] >= J[a + 1] for a in range(len(J) - 1)):
        raise ValueError(f"{what} must be strictly increasing")
    if J[0] < 1 or J[-1] > 2 * n:
        raise ValueError(f"entries must lie in 1..{2 * n}")
    return J


def minor_rows(n, J):
    """The rows of the sorted index J in the order of the determinant that
    computes its minor: the barred entries whose base is not in J
    descending, then the unbarred ones whose bar is not in J descending,
    then the pairs (gammabar, gamma) of J from the largest gamma down."""
    gamma = [g for g in J if g <= n and bar(g, n) in J]
    paired = set(gamma).union(bar(g, n) for g in gamma)
    pairs = (row for g in reversed(gamma) for row in (bar(g, n), g))
    return tuple(e for e in reversed(J) if e not in paired) + tuple(pairs)


def pbw_fill(values):
    """Column of a set of row labels: entries <= k sit at their own row,
    the rest descend through the free rows from the top."""
    k = len(values)
    vals = sorted(values)
    if len(set(vals)) != k:
        raise ValueError("repeated row label")
    col = [0] * k
    for v in vals:
        if v <= k:
            col[v - 1] = v
    moved = iter(sorted((v for v in vals if v > k), reverse=True))
    for r in range(k):
        if col[r] == 0:
            col[r] = next(moved)
    return tuple(col)


# --- PBW degrees ---


def pbw_degree_index(k, J):
    """Number of entries of the level-k index J exceeding k."""
    return sum(1 for j in J if j > k)


# --- sparse polynomials in Pluecker variables ---


def _vars_key(vars_seq):
    return tuple(sorted((tuple(J) for J in vars_seq), key=lambda J: (len(J), J)))


def poly_term(coeff, vars_seq, s_deg=None):
    """Single-term polynomial coeff * s^s_deg * prod X_J."""
    if coeff == 0:
        return {}
    return {(s_deg, _vars_key(vars_seq)): coeff}


def poly_add(*polys):
    out = {}
    for p in polys:
        for key, coeff in p.items():
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


def poly_scale(c, p):
    if c == 0:
        return {}
    return {key: c * coeff for key, coeff in p.items()}


def term_sort_key(key):
    s_deg, vars_ = key
    return (vars_, s_deg is not None, s_deg or 0)


def poly_canonical(p):
    """Same relation with positive leading coefficient (level-lex term order)."""
    if not p:
        return {}
    lead = min(p, key=term_sort_key)
    return poly_scale(-1, p) if p[lead] < 0 else dict(p)


def poly_frozen(p):
    """Hashable canonical form, for dedup up to global sign."""
    return tuple(sorted(poly_canonical(p).items(), key=lambda kv: term_sort_key(kv[0])))


def poly_to_json(p):
    terms = []
    for key in sorted(p, key=term_sort_key):
        s_deg, vars_ = key
        terms.append(
            {
                "coeff": str(p[key]),
                "s_deg": s_deg,
                "vars": [{"k": len(J), "J": list(J)} for J in vars_],
            }
        )
    return terms
