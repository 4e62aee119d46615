"""Pluecker coordinates on symplectic flag varieties: index bookkeeping,
computed minors, reverse admissibility, PBW degrees, and exact sparse polynomials.

A level-k Pluecker variable X_J is labelled by a sorted k-tuple J of rows from
1..2n.  A *minor* is a pair (I2, I1) of subsets of {1..n}: I1 collects the
unbarred row labels, I2 the bases of the barred ones, k = |I1| + |I2|.

Polynomials are dicts mapping term keys to integer coefficients.  A term key
is (s_deg, vars) with vars a tuple of index tuples sorted by (level, index)
and s_deg either None (plain polynomial) or a nonnegative power of the
deformation parameter s.
"""

from functools import lru_cache
import itertools

from .liealg import bar


# --- index normalization ---


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


def normalize_index(k, seq):
    """Sort a row sequence into a Pluecker index, tracking the sign.

    Returns (sorted tuple, (-1)^inversions); a repeated value makes the
    alternating form vanish, signalled as (None, 0).
    """
    seq = tuple(seq)
    if len(seq) != k:
        raise ValueError(f"expected {k} values, got {len(seq)}")
    return _sort_sign(seq)


# --- minors ---


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
    """Row sequence of the determinant computing the minor (I2, I1).

    The rows come out as (b1bar, ..., a_last, ..., a1, gammabar_last,
    gamma_last, ..., gammabar_1, gamma_1) -- barred complements first, then
    the unbarred complement reversed, then the bar/unbar pairs of the overlap
    from the largest down.
    """
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


def column_to_minor(n, col):
    """Inverse reading: unbarred entries form I1, bases of barred entries I2."""
    if len(set(col)) != len(col):
        raise ValueError("repeated entry in column")
    I1 = tuple(sorted(e for e in col if e <= n))
    I2 = tuple(sorted(bar(e, n) for e in col if e > n))
    return validate_minor(n, (I2, I1))


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
