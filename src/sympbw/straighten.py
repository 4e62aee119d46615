"""Straightening of Pluecker monomials into tableau monomials.

A monomial is a multiset of Pluecker indices (one per column).  Straightening
rewrites it, inside the classical or the degenerate coordinate ring, as an
integer combination of monomials whose columns assemble into a symplectic PBW
semistandard tableau.  Two kinds of steps are used:

* S-step: a column whose index J does not fill to a symplectic column is
  replaced, through the linear symplectic relation S_J, by columns strictly
  smaller in the minor order (which compares minor_rows).
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

from .pluecker import _vars_key, check_index, minor_rows, pbw_fill
from .relations import degenerate_component, exchange_relation, symplectic_relation
from .tableaux import _semistandard_step, is_symplectic_column


def minor_order_compare(l_seq, j_seq):
    """Compare two row sequences of equal length: -1 if L comes strictly
    before J, 0 if equal, +1 otherwise.

    L is before J when its entry sum is smaller, or the sums agree and the
    last nonzero entry of L - J is positive.
    """
    l_seq, j_seq = tuple(l_seq), tuple(j_seq)
    if len(l_seq) != len(j_seq):
        raise ValueError("sequences must have equal length")
    if l_seq == j_seq:
        return 0
    nu_l, nu_j = sum(l_seq), sum(j_seq)
    if nu_l != nu_j:
        return -1 if nu_l < nu_j else 1
    diff = [a - b for a, b in zip(l_seq, j_seq)]
    last = next(d for d in reversed(diff) if d)
    return -1 if last > 0 else 1


# Bound of the two caches below; they live for the process, and each holds
# at most this many entries.
_CACHE_SIZE = 1 << 16

# Rewrite steps one call may take before it is taken for a cycle.
_MAX_STEPS = 200000


def _validate_monomial(n, monomial):
    cols = [check_index(n, J) for J in monomial]
    # canonical key: longest columns first, lexicographic within a length
    return tuple(sorted(cols, key=lambda J: (-len(J), J)))


@lru_cache(maxsize=_CACHE_SIZE)
def _column(n, J):
    """(pbw_fill(J), whether that filling is a symplectic column)."""
    fill = pbw_fill(J)
    return fill, is_symplectic_column(n, fill)


@lru_cache(maxsize=_CACHE_SIZE)
def _min_arrangement(n, mono):
    """(column order, filled columns) minimal in the tableau order.

    The order compares columns from the right, each one bottom to top, and
    each group of same-length columns keeps its positions in every
    arrangement.  So the minimum puts the smallest reversed filling of each
    group rightmost: every group sorted by reversed filling, descending.
    """
    arr = tuple(itertools.chain.from_iterable(
        sorted(group, key=lambda J: _column(n, J)[0][::-1], reverse=True)
        for _, group in itertools.groupby(mono, key=len)
    ))
    return arr, tuple(_column(n, J)[0] for J in arr)


def _queue_key(n, mono):
    """The reading of the minimal arrangement, then the monomial.

    The reading lists the filled columns right to left, each bottom to top.
    Same-shape tableaux compare in the tableau order (the larger has the
    larger entry at the first difference of that reading) as their
    readings compare.  Within one call the shape is fixed and pbw_fill is
    injective, so keys compare as their minimal arrangements do."""
    cols = _min_arrangement(n, mono)[1]
    return tuple(e for col in reversed(cols) for e in reversed(col)), mono


def _is_straight(cols):
    """Whether the minimal arrangement's filled columns are semistandard.

    Only the minimal arrangement can be semistandard: for symplectic columns
    of one length with fillings a != b, _semistandard_step(a, b) forces
    a[::-1] > b[::-1], so a semistandard arrangement has every same-length
    group in the descending order _min_arrangement sorts it into.  That rule
    is checked for every pair at n <= 5 in the tests; were it false
    somewhere, a straight monomial would be rewritten further, and a descent
    assert or the step budget would fail rather than the answer.
    """
    return all(_semistandard_step(cols[c], cols[c + 1]) for c in range(len(cols) - 1))


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


def _s_step(n, mono, ring, trace):
    """Replace the first non-symplectic column via its symplectic relation.

    Returns ((coeff, new monomial), ...); each new column's minor_rows come
    strictly before the replaced one's in the minor order.
    """
    bad = next(J for J in mono if not _column(n, J)[1])
    relation = _relation_in_ring(symplectic_relation(n, bad), ring)
    head, rest = _split_head(relation, (bad,))
    if trace:
        trace(f"S-step on column {bad}: {len(rest)} replacement column(s)")
    src_seq = minor_rows(n, bad)
    i = mono.index(bad)
    remainder = mono[:i] + mono[i + 1 :]
    out = []
    for (_, (new_col,)), coeff in rest:
        assert minor_order_compare(minor_rows(n, new_col), src_seq) == -1, (new_col, bad)
        out.append((-head * coeff, _validate_monomial(n, remainder + (new_col,))))
    return out


def _first_violation(cols):
    """(pair position, row t) of the first semistandard failure, or None."""
    for c in range(len(cols) - 1):
        left, right = cols[c], cols[c + 1]
        for i in range(len(right)):
            if not any(left[i2] >= right[i] for i2 in range(i, len(left))):
                return c, i + 1
    return None


def _p_step(n, mono, ring, trace):
    """Exchange a violating adjacent pair of the minimal arrangement.

    Returns ((coeff, new monomial), ...); each new monomial's minimal
    arrangement is strictly below this one's in the tableau order.
    """
    arr, cols = _min_arrangement(n, mono)
    c, t = _first_violation(cols)
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
        new_mono = _validate_monomial(n, remainder + vars_)
        assert _queue_key(n, new_mono)[0] < reading, (vars_, mono)
        out.append((-head * coeff, new_mono))
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
        symplectic = all(_column(n, J)[1] for J in mono)
        if symplectic:
            cols = _min_arrangement(n, mono)[1]
            if _is_straight(cols):
                result[cols] = result.get(cols, 0) + coeff
                continue
        steps += 1
        if steps > _MAX_STEPS:
            raise RuntimeError("straightening budget exhausted: suspected cycle")
        for c, new_mono in (_p_step if symplectic else _s_step)(n, mono, ring, trace):
            new_key = _queue_key(n, new_mono)
            new = work.get(new_key, 0) + coeff * c
            if new:
                work[new_key] = new
            else:
                work.pop(new_key, None)
    return {tab: c for tab, c in result.items() if c}
