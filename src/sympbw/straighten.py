"""Straightening of Pluecker monomials into tableau monomials.

A monomial is a multiset of Pluecker indices (one per column).  Straightening
rewrites it, inside the classical or the degenerate coordinate ring, as an
integer combination of monomials whose columns assemble into a symplectic PBW
semistandard tableau.  Two kinds of steps are used:

* S-step: a column whose index J does not fill to a symplectic column is
  replaced, through the linear symplectic relation S_J, by columns strictly
  smaller in the minor order (whose sort key _minor_key reads minor_rows).
* P-step: all columns are symplectic but two neighbours violate the
  semistandard condition; the exchange relation applied to the two column
  readings replaces the pair, moving the monomial strictly down in the
  tableau order (compared on the readings of minimal arrangements, see
  _queue_key).

Both descent claims are asserted on every step, and a step budget turns any
unnoticed cycle into a hard error instead of a hang.

The work queue pops the monomial whose minimal arrangement is largest in the
tableau order, so each monomial is rewritten at most once per call as long as
every term a step produces lies below it: P-steps assert that, and S-steps
have kept it on every input tried.  A term that did not descend would only be
rewritten again, at a cost in steps and within the step budget.
"""

from functools import lru_cache
import itertools

from .pluecker import _vars_key, check_index, minor_rows
from .relations import degenerate_component, exchange_relation, symplectic_relation
from .tableaux import _first_violation, _index_column


# Bound of the arrangement cache below; it lives for the process.
_CACHE_SIZE = 1 << 16

# Rewrite steps one call may take before it is taken for a cycle.
_MAX_STEPS = 200000


def _validate_monomial(n, monomial):
    cols = [check_index(n, J) for J in monomial]
    # canonical key: longest columns first, lexicographic within a length
    return tuple(sorted(cols, key=lambda J: (-len(J), J)))


@lru_cache(maxsize=_CACHE_SIZE)
def _min_arrangement(n, mono):
    """(column order, filled columns) minimal in the tableau order.

    The order compares columns from the right, each one bottom to top, and
    each group of same-length columns keeps its positions in every
    arrangement.  So the minimum puts the smallest reversed filling of each
    group rightmost: every group sorted by reversed filling, descending.
    """
    arr = tuple(itertools.chain.from_iterable(
        sorted(group, key=lambda J: _index_column(n, J)[0][::-1], reverse=True)
        for _, group in itertools.groupby(mono, key=len)
    ))
    return arr, tuple(_index_column(n, J)[0] for J in arr)


def _queue_key(n, mono):
    """The reading of the minimal arrangement, then the monomial.

    The reading lists the filled columns right to left, each bottom to top.
    Same-shape tableaux compare in the tableau order (the larger has the
    larger entry at the first difference of that reading) as their
    readings compare.  Within one call the shape is fixed and pbw_fill is
    injective, so keys compare as their minimal arrangements do."""
    cols = _min_arrangement(n, mono)[1]
    return tuple(e for col in reversed(cols) for e in reversed(col)), mono


def _relation_in_ring(poly, ring):
    return degenerate_component(poly) if ring == "degenerate" else poly


def _split_head(poly, head_vars):
    """Separate the head term of a relation; returns (head coeff, rest items)."""
    head_key = (None, head_vars)
    if head_key not in poly:
        raise AssertionError("straightening relation lost its head term")
    head = poly[head_key]
    assert head in (1, -1), f"head coefficient {head} not a unit"
    rest = [(key, coeff) for key, coeff in poly.items() if key != head_key]
    return head, rest


def _minor_key(n, J):
    """Sort key of the minor order on one level: the smaller entry sum of
    minor_rows first, and on a tie the larger entry at the last difference."""
    rows = minor_rows(n, J)
    return sum(rows), [-e for e in reversed(rows)]


def _s_step(n, mono, ring, trace):
    """Replace the first non-symplectic column via its symplectic relation.

    Returns ((coeff, queue key of the new monomial), ...); each new column
    comes strictly before the replaced one in the minor order.
    """
    bad = next(J for J in mono if not _index_column(n, J)[1])
    relation = _relation_in_ring(symplectic_relation(n, bad), ring)
    head, rest = _split_head(relation, (bad,))
    if trace:
        trace(f"S-step on column {bad}: {len(rest)} replacement column(s)")
    bad_key = _minor_key(n, bad)
    i = mono.index(bad)
    remainder = mono[:i] + mono[i + 1 :]
    out = []
    for (_, (new_col,)), coeff in rest:
        assert _minor_key(n, new_col) < bad_key, (new_col, bad)
        new_mono = _validate_monomial(n, remainder + (new_col,))
        out.append((-head * coeff, _queue_key(n, new_mono)))
    return out


def _p_step(n, mono, violation, ring, trace):
    """Exchange the violating adjacent pair (c, t) of the minimal arrangement.

    Returns ((coeff, queue key of the new monomial), ...); each new monomial's
    minimal arrangement is strictly below this one's in the tableau order.
    """
    arr, cols = _min_arrangement(n, mono)
    c, t = violation
    relation = _relation_in_ring(exchange_relation(cols[c], cols[c + 1], t), ring)
    head, rest = _split_head(relation, _vars_key([arr[c], arr[c + 1]]))
    if trace:
        trace(
            f"P-step on columns {arr[c]} | {arr[c + 1]} at row {t}: "
            f"{len(rest)} exchange term(s)"
        )
    remainder = arr[:c] + arr[c + 2 :]
    reading = _queue_key(n, mono)[0]
    out = []
    for (_, vars_), coeff in rest:
        new_key = _queue_key(n, _validate_monomial(n, remainder + vars_))
        assert new_key[0] < reading, (vars_, mono)
        out.append((-head * coeff, new_key))
    return out


def straighten(n, monomial, ring, trace=None):
    """Express a Pluecker monomial in the tableau basis of the given ring.

    Returns a dict mapping tableaux (tuples of filled columns) to integer
    coefficients.  ``ring`` is "classical" or "degenerate"; ``trace`` is an
    optional callable receiving one line per rewriting step.
    """
    if ring not in ("classical", "degenerate"):
        raise ValueError(f"unknown ring: {ring!r}")
    start = _validate_monomial(n, tuple(tuple(J) for J in monomial))
    work = {_queue_key(n, start): 1}
    result = {}
    steps = 0
    while work:
        key = max(work)
        coeff = work.pop(key)
        mono = key[1]
        violation = None
        if all(_index_column(n, J)[1] for J in mono):
            cols = _min_arrangement(n, mono)[1]
            violation = _first_violation(cols)
            if violation is None:
                result[cols] = result.get(cols, 0) + coeff
                continue
        steps += 1
        if steps > _MAX_STEPS:
            raise RuntimeError("straightening budget exhausted: suspected cycle")
        if violation is None:
            expansion = _s_step(n, mono, ring, trace)
        else:
            expansion = _p_step(n, mono, violation, ring, trace)
        for c, new_key in expansion:
            new = work.get(new_key, 0) + coeff * c
            if new:
                work[new_key] = new
            else:
                work.pop(new_key, None)
    return {tab: c for tab, c in result.items() if c}
