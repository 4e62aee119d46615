"""Bijection between FFLV lattice points and symplectic PBW semistandard tableaux.

A lattice point p encodes the PBW monomial prod f_alpha^{p_alpha} acting on a
highest weight vector; the tableau realizes that vector combinatorially.  The
two directions are ``monomial_to_tableau`` (build up from the highest weight
tableau by applying operators) and ``tableau_to_monomial`` (read the moved
entries off the columns).

A round trip over every lattice point of P(lambda) meets the same lambda,
roots, columns and column pairs thousands of times, so the facts that depend
on them alone are memoized in the private helpers below.  Every cache is a
bounded module-level lru_cache; the checks themselves all still run.
"""

from functools import lru_cache

from .fflv import contains
from .liealg import Root, bar, jpos, root_vector_weight
from .tableaux import (
    _uncovered_row,
    highest_weight_tableau,
    is_symplectic_column,
    tableau_weight,
    validate_tableau,
)

# Bound of every memo cache below; a key is lambda, a root, a column or a
# column pair, with n.
_CACHE_SIZE = 1 << 14


def operator_entry(n, alpha):
    """Alphabet letter written by f_alpha: j+1 for f_{i,j} (so nbar for j = n), jbar for f_{i,jbar}."""
    return alpha.j + 1 if not alpha.barred else bar(alpha.j, n)


def order_monomial(p):
    """Expand a multi-exponent into the factor sequence of the ordered monomial.

    Operators are totally ordered by f_{i1,j1} > f_{i2,j2} iff i1 < i2, or
    i1 = i2 and j1 < j2 in the alphabet; the product is written largest first.
    A key may be a plain (i, j, barred) tuple; the factors are Roots.
    """
    factors = []
    for alpha in sorted(map(Root._make, p), key=lambda a: (a.i, a.barred, -a.j if a.barred else a.j)):
        factors.extend([alpha] * p[alpha])
    return tuple(factors)


@lru_cache(maxsize=_CACHE_SIZE)
def _highest_weight(n, m):
    """(t_lambda, its weight) for the m-vector tuple m."""
    tab = highest_weight_tableau(m)
    return tab, tableau_weight(n, tab)


@lru_cache(maxsize=_CACHE_SIZE)
def _root_weight(n, alpha):
    return root_vector_weight(n, Root._make(alpha))


@lru_cache(maxsize=_CACHE_SIZE)
def _column_ok(n, col):
    return is_symplectic_column(n, col)


@lru_cache(maxsize=_CACHE_SIZE)
def _pair_ok(prev_col, col):
    return not _uncovered_row(prev_col, col)


@lru_cache(maxsize=_CACHE_SIZE)
def _accepted(n, col, alpha):
    """col with the letter of f_alpha written in, or None if col does not accept it.

    A column accepts f_alpha when the letter position of alpha is >= its
    length mu, row i currently holds the untouched entry i, and the rewritten
    column is still a valid symplectic column.
    """
    mu = len(col)
    if jpos(alpha, n) < mu or alpha.i > mu or col[alpha.i - 1] != alpha.i:
        return None
    new_col = col[: alpha.i - 1] + (operator_entry(n, alpha),) + col[alpha.i :]
    return new_col if _column_ok(n, new_col) else None


@lru_cache(maxsize=_CACHE_SIZE)
def _column_roots(n, col):
    """Roots read off one column: f_{r,h-1} for a moved entry h <= nbar at
    row r, f_{r,bar(h)bar} for a moved barred entry h below nbar."""
    mu = len(col)
    roots = []
    for r, h in enumerate(col, start=1):
        if h <= mu:
            continue
        roots.append(Root(r, h - 1, False) if h <= n + 1 else Root(r, 2 * n + 1 - h, True))
    return tuple(roots)


def _apply_operator(n, cols, alpha):
    """Apply one factor f_alpha: write its letter into the first column that accepts it."""
    for c, col in enumerate(cols):
        new_col = _accepted(n, col, alpha)
        if new_col is not None:
            return cols[:c] + (new_col,) + cols[c + 1 :]
    raise ValueError(f"no column accepts operator f_{{{alpha.i},{alpha.j}{'bar' if alpha.barred else ''}}}")


def monomial_to_tableau(n, m, p):
    """Tableau of the lattice point p in P(lambda): apply the ordered monomial
    to the highest weight tableau, smallest factor first."""
    if not contains(n, m, p):
        raise ValueError("multi-exponent lies outside the polytope")
    cols = _highest_weight(n, tuple(m))[0]
    for alpha in reversed(order_monomial(p)):
        cols = _apply_operator(n, cols, alpha)
    return cols


def tableau_to_monomial(n, tab):
    """Inverse direction: read (m, p) off a symplectic PBW semistandard tableau.

    Each moved entry h > mu_c at row r contributes one factor: f_{r,h-1} when
    h <= nbar, and f_{r,bar(h)bar} when h is a barred letter below nbar.
    """
    cols = validate_tableau(n, tab)
    if not (
        all(_column_ok(n, col) for col in cols)
        and all(_pair_ok(cols[c], cols[c + 1]) for c in range(len(cols) - 1))
    ):
        raise ValueError("not a symplectic PBW semistandard tableau")
    lengths = [len(c) for c in cols]
    m = tuple(lengths.count(k) for k in range(1, n + 1))
    p = {}
    for col in cols:
        for alpha in _column_roots(n, col):
            p[alpha] = p.get(alpha, 0) + 1
    return m, p


def monomial_weight(n, m, p):
    """Weight of the tableau of p: wt(t_lambda) + sum p_alpha * wt(f_alpha)."""
    wt = list(_highest_weight(n, tuple(m))[1])
    for alpha, exp in p.items():
        for k, x in enumerate(_root_weight(n, alpha)):
            wt[k] += exp * x
    return tuple(wt)
