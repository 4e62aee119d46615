"""Symplectic PBW tableaux.

A tableau of shape lambda is stored column-major: a tuple of columns, each
column a tuple of entries from the ordered alphabet 1 < ... < n < nbar < ...
< 1bar encoded as 1..2n (bar(i) = 2n + 1 - i).  Column lengths are the
conjugate partition and must be weakly decreasing.

Highest weights are passed around as m-vectors (m_1, ..., m_n) with
lambda_i = m_i + ... + m_n.
"""

from functools import lru_cache
import itertools

from .liealg import bar, check_enumeration_size
from .pluecker import pbw_fill


def partition_from_m(m):
    """Partition (lambda_1 >= ... >= lambda_n) for the weight sum_k m_k omega_k."""
    return tuple(sum(m[i:]) for i in range(len(m)))


def column_lengths_from_m(m):
    """Lengths mu_1 >= mu_2 >= ... of the columns of the shape of m."""
    n = len(m)
    lam = partition_from_m(m)
    return tuple(sum(1 for i in range(n) if lam[i] >= c + 1) for c in range(lam[0] if lam else 0))


def highest_weight_tableau(m):
    """The tableau t_lambda with every column filled 1, 2, ..., mu_c."""
    return tuple(tuple(range(1, length + 1)) for length in column_lengths_from_m(m))


def _validate_columns(tab, top, height):
    """Columns as tuples: positive weakly decreasing lengths up to height, entries in 1..top."""
    cols = tuple(tuple(col) for col in tab)
    lengths = [len(c) for c in cols]
    if any(l == 0 for l in lengths) or any(
        lengths[c] < lengths[c + 1] for c in range(len(cols) - 1)
    ):
        raise ValueError("column lengths must be positive and weakly decreasing")
    if lengths and lengths[0] > height:
        raise ValueError(f"columns longer than n={height}")
    for col in cols:
        for e in col:
            if not (1 <= e <= top):
                raise ValueError(f"entry {e} outside alphabet 1..{top}")
    return cols


def validate_tableau(n, tab):
    return _validate_columns(tab, 2 * n, n)


def _moved_entries_ok(col):
    """Column conditions (i) and (ii) shared by the symplectic and type A rules.

    With mu the column length:
      (i)   an entry <= mu sits at its own row: T_i <= mu  =>  T_i = i;
      (ii)  moved entries decrease downwards: T_{i1} != i1, i1 < i2  =>  T_{i1} > T_{i2}.
    Under (i) a moved entry exceeds mu, so (ii) only compares moved entries.
    """
    mu, prev = len(col), None
    for i1, e in enumerate(col):
        if e != i1 + 1:
            if e <= mu or (prev is not None and e >= prev):
                return False
            prev = e
    return True


def is_symplectic_column(n, col):
    """Single-column conditions of a symplectic PBW tableau: (i) and (ii) of
    ``_moved_entries_ok``, and (iii) if T_i = i then ibar may appear only above row i.
    """
    if not _moved_entries_ok(col):
        return False
    for i, e in enumerate(col):
        if e == i + 1 and bar(i + 1, n) in col[i:]:
            return False
    return True


def _uncovered_row(prev_col, col):
    """The first row t (from 1) of col whose entry no entry of prev_col at
    row t or below dominates, or 0: the column-pair condition of a
    semistandard tableau holds between neighbours exactly when this is 0."""
    for i, e in enumerate(col):
        if max(prev_col[i:], default=0) < e:
            return i + 1
    return 0


def _first_violation(cols):
    """(pair position c, row t) of the first neighbours cols[c], cols[c + 1]
    with _uncovered_row t != 0, or None when the columns are semistandard.

    Straightening tests only a monomial's minimal arrangement: for symplectic
    columns of one length with fillings a != b, _uncovered_row(a, b) == 0
    forces a[::-1] > b[::-1], so only the arrangement with every same-length
    group in descending reversed filling (straighten._min_arrangement) can be
    semistandard.  The tests check that rule for every pair at n <= 5; were
    it false, a straight monomial would be rewritten further and a descent
    assert or the step budget would fail, not the answer.
    """
    for c in range(len(cols) - 1):
        t = _uncovered_row(cols[c], cols[c + 1])
        if t:
            return c, t
    return None


def is_symplectic_pbw_semistandard(n, tab):
    """Symplectic PBW columns plus the semistandard condition between neighbours."""
    cols = validate_tableau(n, tab)
    return all(is_symplectic_column(n, col) for col in cols) and _first_violation(cols) is None


@lru_cache(maxsize=1 << 16)
def _index_column(n, J):
    """(pbw_fill(J), whether that filling is a symplectic column) for a sorted
    index J at rank n: the one place an index is filled and the filling tested."""
    fill = pbw_fill(J)
    return fill, is_symplectic_column(n, fill)


@lru_cache(maxsize=1 << 10)
def _symplectic_columns(n, length):
    """All symplectic columns of the given length, in lexicographic order.

    Conditions (i) and (ii) leave one arrangement of each set of entries,
    its ``pbw_fill``, so only the k-subsets of the alphabet are tried.
    """
    cols = (_index_column(n, J) for J in itertools.combinations(range(1, 2 * n + 1), length))
    return tuple(sorted(fill for fill, symplectic in cols if symplectic))


def enumerate_tableaux(n, m):
    """All symplectic PBW semistandard tableaux of shape m, column-major lexicographic.

    Refused with ValueError above liealg.ENUMERATION_LIMIT tableaux.
    """
    check_enumeration_size(n, m)
    lengths = column_lengths_from_m(m)
    out = []

    def grow(cols):
        c = len(cols)
        if c == len(lengths):
            out.append(tuple(cols))
            return
        for col in _symplectic_columns(n, lengths[c]):
            if c == 0 or not _uncovered_row(cols[-1], col):
                grow(cols + [col])

    grow([])
    return sorted(out)


def tableau_weight(n, tab):
    """Weight of a tableau: sum over entries of eps_e (unbarred) or -eps_{bar(e)} (barred)."""
    wt = [0] * n
    for col in tab:
        for e in col:
            if e <= n:
                wt[e - 1] += 1
            else:
                wt[2 * n - e] -= 1
    return tuple(wt)


def _shape(cols):
    """The partition lambda of validated columns: row i has as many boxes as
    there are columns longer than i."""
    return [sum(1 for col in cols if len(col) > i) for i in range(len(cols[0]))] if cols else []


def tableau_to_json(n, tab):
    cols = validate_tableau(n, tab)
    return {"shape": _shape(cols), "columns": [list(c) for c in cols]}


def tableau_from_json(n, data):
    """Parse ``{"shape": [...], "columns": [[...], ...]}``; any other shape raises ValueError."""
    expected = 'a tableau is {"shape": [int, ...], "columns": [[int, ...], ...]}'
    try:
        cols = tuple(tuple(col) for col in data["columns"])
        given = list(data["shape"])
    except (TypeError, KeyError):
        raise ValueError(expected) from None
    if any(type(x) is not int for x in itertools.chain(given, *cols)):
        raise ValueError(expected)
    tab = validate_tableau(n, cols)
    if given != _shape(tab):
        raise ValueError("shape does not match columns")
    return tab


def entry_str(n, e, ascii_only=False):
    """Render an alphabet letter: barred entries as i-overline, or i' in ascii mode."""
    if e <= n:
        return str(e)
    base = str(2 * n + 1 - e)
    if ascii_only:
        return base + "'"
    return "".join(ch + "̅" for ch in base)


def tableau_pretty(n, tab, ascii_only=False):
    """Row-by-row text rendering of a tableau."""
    cols = validate_tableau(n, tab)
    if not cols:
        return "(empty tableau)"

    def disp_width(e):
        # combining overlines take no terminal column; the ascii prime does
        return len(str(e)) if e <= n else len(str(2 * n + 1 - e)) + (1 if ascii_only else 0)

    width = max(disp_width(e) for col in cols for e in col)
    lines = []
    for i in range(len(cols[0])):
        cells = [
            entry_str(n, col[i], ascii_only) + " " * (width - disp_width(col[i]))
            for col in cols
            if len(col) > i
        ]
        lines.append(" ".join(cells).rstrip())
    return "\n".join(lines)
