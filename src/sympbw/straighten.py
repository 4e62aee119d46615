"""Straightening of Pluecker monomials into tableau monomials.

A monomial is a multiset of Pluecker indices (one per column).  Straightening
rewrites it, inside the classical or the degenerate coordinate ring, as an
integer combination of monomials whose columns assemble into a symplectic PBW
semistandard tableau.  Two kinds of steps are used:

* S-step: a column whose filling is not a symplectic column comes from a
  non-reverse-admissible minor; the linear symplectic relation replaces it by
  strictly smaller columns in the minor order.
* P-step: all columns are symplectic but two neighbours violate the
  semistandard condition; the exchange relation applied to the two column
  readings replaces the pair, moving the monomial strictly down in the
  tableau order (compared on minimal arrangements).

Both descent claims are asserted on every step, and a step budget turns any
unnoticed cycle into a hard error instead of a hang.

A step is a function of (n, monomial, ring) alone: which column or pair it
rewrites, the relation it uses, the monomials it produces and whether each
of them descends are all read off the monomial, never off the work queue or
the coefficient it carries.  Monomials come back to the queue many times in
one call (the queue pops the largest key, not the next one in the descent
order), so _s_step and _p_step are memoized and return the step's trace line
together with its terms and their descent flags.  straighten still emits the
line, then asserts each flag, then accumulates, step by step in the queue's
order, so the trace and the first failing assert are those of the uncached
rewriting.  A step that fails inside (a lost head term, a non-unit head)
raises before anything is cached or emitted, as it did before.  Every cache
is a bounded module-level lru_cache.
"""

from functools import lru_cache
import itertools

from .pluecker import _vars_key, column_to_minor, computed_minor, pbw_fill
from .relations import degenerate_component, exchange_relation, symplectic_relation
from .tableaux import _semistandard_step, is_symplectic_column


def tableau_order_compare(t1, t2):
    """Compare same-shape tableaux: -1, 0, +1.

    The larger tableau has the larger entry at the first difference when
    columns are read right-to-left, each column bottom-to-top.
    """
    shape1 = tuple(len(c) for c in t1)
    shape2 = tuple(len(c) for c in t2)
    if shape1 != shape2:
        raise ValueError(f"shape mismatch: {shape1} vs {shape2}")
    for c in range(len(t1) - 1, -1, -1):
        for i in range(len(t1[c]) - 1, -1, -1):
            if t1[c][i] != t2[c][i]:
                return 1 if t1[c][i] > t2[c][i] else -1
    return 0


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


# Bound of every memo cache below; the caches live for the process, and each
# holds at most this many entries.
_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_CACHE_SIZE)
def _validate_monomial(n, monomial):
    cols = []
    for J in monomial:
        J = tuple(J)
        if not J or len(J) > n:
            raise ValueError(f"column level {len(J)} out of range for n={n}")
        if any(J[a] >= J[a + 1] for a in range(len(J) - 1)):
            raise ValueError("column indices must be strictly increasing")
        if J[0] < 1 or J[-1] > 2 * n:
            raise ValueError(f"entries must lie in 1..{2 * n}")
        cols.append(J)
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


@lru_cache(maxsize=_CACHE_SIZE)
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


@lru_cache(maxsize=_CACHE_SIZE)
def _column_relation(n, bad, ring):
    """The symplectic relation of a non-symplectic column, in the ring.

    Returns (head coeff, ((coeff, new column, descends), ...)) where
    ``descends`` says whether the new column's minor comes strictly before
    the replaced one's in the minor order.
    """
    minor = column_to_minor(n, bad)
    relation = _relation_in_ring(symplectic_relation(n, minor), ring)
    head, rest = _split_head(relation, (bad,))
    src_seq = computed_minor(n, minor)
    terms = []
    for (_, (new_col,)), coeff in rest:
        tgt_seq = computed_minor(n, column_to_minor(n, new_col))
        terms.append((coeff, new_col, minor_order_compare(tgt_seq, src_seq) == -1))
    return head, tuple(terms)


@lru_cache(maxsize=_CACHE_SIZE)
def _s_step(n, mono, ring):
    """Replace the first non-symplectic column via its symplectic relation.

    Returns the trace line and ((coeff, new monomial, descends, assert
    payload), ...).
    """
    bad = next(J for J in mono if not _column(n, J)[1])
    head, terms = _column_relation(n, bad, ring)
    line = f"S-step on column {bad}: {len(terms)} replacement column(s)"
    i = mono.index(bad)
    remainder = mono[:i] + mono[i + 1 :]
    return line, tuple(
        (-head * coeff, _validate_monomial(n, remainder + (new_col,)), descends, (new_col, bad))
        for coeff, new_col, descends in terms
    )


def _first_violation(cols):
    """(pair position, row t) of the first semistandard failure, or None."""
    for c in range(len(cols) - 1):
        left, right = cols[c], cols[c + 1]
        for i in range(len(right)):
            if not any(left[i2] >= right[i] for i2 in range(i, len(left))):
                return c, i + 1
    return None


@lru_cache(maxsize=_CACHE_SIZE)
def _pair_relation(n, left, right, t, ring):
    """The exchange relation at row t of two index sets' fillings, in the ring,
    split at its head term X_left X_right."""
    relation = exchange_relation(_column(n, left)[0], _column(n, right)[0], t)
    head, rest = _split_head(_relation_in_ring(relation, ring), _vars_key([left, right]))
    return head, tuple(rest)


@lru_cache(maxsize=_CACHE_SIZE)
def _p_step(n, mono, ring):
    """Exchange a violating adjacent pair of the minimal arrangement.

    Returns the trace line and ((coeff, new monomial, descends, assert
    payload), ...), where ``descends`` says whether the new monomial's
    minimal arrangement is strictly below this one's in the tableau order.
    """
    arr, cols = _min_arrangement(n, mono)
    c, t = _first_violation(cols)
    head, rest = _pair_relation(n, arr[c], arr[c + 1], t, ring)
    line = (
        f"P-step on columns {arr[c]} | {arr[c + 1]} at row {t}: "
        f"{len(rest)} exchange term(s)"
    )
    remainder = arr[:c] + arr[c + 2 :]
    out = []
    for (_, vars_), coeff in rest:
        new_mono = _validate_monomial(n, remainder + vars_)
        _, new_cols = _min_arrangement(n, new_mono)
        descends = tableau_order_compare(new_cols, cols) == -1
        out.append((-head * coeff, new_mono, descends, (vars_, mono)))
    return line, tuple(out)


def straighten(n, monomial, ring, trace=None, max_steps=200000):
    """Express a Pluecker monomial in the tableau basis of the given ring.

    Returns a dict mapping tableaux (tuples of filled columns) to integer
    coefficients.  ``ring`` is "classical" or "degenerate"; ``trace`` is an
    optional callable receiving one line per rewriting step.
    """
    if ring not in ("classical", "degenerate"):
        raise ValueError(f"unknown ring: {ring!r}")
    start = _validate_monomial(n, tuple(tuple(J) for J in monomial))
    work = {start: 1}
    result = {}
    steps = 0
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        if coeff == 0:
            continue
        symplectic = all(_column(n, J)[1] for J in mono)
        if symplectic:
            cols = _min_arrangement(n, mono)[1]
            if _is_straight(cols):
                result[cols] = result.get(cols, 0) + coeff
                continue
        steps += 1
        if steps > max_steps:
            raise RuntimeError("straightening budget exhausted: suspected cycle")
        line, expansion = (_p_step if symplectic else _s_step)(n, mono, ring)
        if trace:
            trace(line)
        for _, _, descends, payload in expansion:
            assert descends, payload
        for c, new_mono, _, _ in expansion:
            new = work.get(new_mono, 0) + coeff * c
            if new:
                work[new_mono] = new
            else:
                work.pop(new_mono, None)
    return {tab: c for tab, c in result.items() if c}
