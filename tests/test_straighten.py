import itertools
import random

import pytest

import sympbw.straighten
from sympbw.pluecker import _vars_key, minor_rows, pbw_fill
from sympbw.relations import exchange_relation
from sympbw.straighten import (
    _min_arrangement,
    _minor_key,
    _queue_key,
    _relation_in_ring,
    _split_head,
    _validate_monomial,
    straighten,
)
from sympbw.tableaux import (
    _first_violation,
    _index_column,
    _symplectic_columns,
    _uncovered_row,
    enumerate_tableaux,
    is_symplectic_pbw_semistandard,
)
from sympbw.verify import sample_classical_flag, sample_degenerate_point

from test_pluecker import column_to_minor, computed_minor
from test_relations import minor_symplectic_relation

RINGS = ("classical", "degenerate")


def variables_n2():
    out = []
    for k in (1, 2):
        out.extend(itertools.combinations(range(1, 5), k))
    return out


def evaluate(monomial, coords):
    value = 1
    for col in monomial:
        value *= coords[tuple(sorted(col))]
    return value


def arrangements(mono):
    """Distinct column orders compatible with the tableau shape."""
    groups = [list(g) for _, g in itertools.groupby(mono, key=len)]
    pools = [sorted(set(itertools.permutations(g))) for g in groups]
    for choice in itertools.product(*pools):
        yield tuple(itertools.chain.from_iterable(choice))


def tableau_order_compare(t1, t2):
    """Compare same-shape tableaux: -1, 0, +1.

    The larger tableau has the larger entry at the first difference when
    columns are read right-to-left, each column bottom-to-top.  The oracle
    of the reading that straighten's queue key and P-step assert compare.
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


def test_tableau_order_compare():
    assert tableau_order_compare(((1, 2),), ((1, 3),)) == -1
    assert tableau_order_compare(((1, 3),), ((1, 2),)) == 1
    assert tableau_order_compare(((1, 2), (3,)), ((1, 2), (3,))) == 0
    # rightmost column decides first
    assert tableau_order_compare(((3, 2), (1,)), ((1, 2), (4,))) == -1
    with pytest.raises(ValueError):
        tableau_order_compare(((1, 2),), ((1,), (2,)))


@pytest.mark.parametrize("n, m", [(1, (3,)), (2, (1, 1)), (2, (2, 1)), (3, (1, 1, 0)), (3, (0, 1, 1))])
def test_queue_key_reading_matches_the_tableau_order(n, m):
    # a semistandard tableau is its monomial's minimal arrangement, so the
    # queue key reads the tableau itself
    readings = {}
    for tab in enumerate_tableaux(n, m):
        mono = _validate_monomial(n, [tuple(sorted(col)) for col in tab])
        assert _min_arrangement(n, mono)[1] == tab
        readings[tab] = _queue_key(n, mono)[0]
    for t1, t2 in itertools.product(readings, repeat=2):
        r1, r2 = readings[t1], readings[t2]
        assert (r1 > r2) - (r1 < r2) == tableau_order_compare(t1, t2), (t1, t2)


def minor_order_compare(l_seq, j_seq):
    """Compare two row sequences of equal length: -1 if L comes strictly
    before J, 0 if equal, +1 otherwise.

    L is before J when its entry sum is smaller, or the sums agree and the
    last nonzero entry of L - J is positive.  The oracle of the minor order
    that straighten's S-step compares by _minor_key.
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


def test_minor_order_compare():
    assert minor_order_compare((1, 2), (1, 3)) == -1  # lower PBW degree first
    assert minor_order_compare((1, 3), (1, 2)) == 1
    assert minor_order_compare((2, 3), (1, 4)) == 1  # degree tie: last difference
    assert minor_order_compare((1, 2), (1, 2)) == 0


@pytest.mark.parametrize("n", range(1, 5))
def test_minor_key_orders_as_the_comparator(n):
    for k in range(1, n + 1):
        indices = list(itertools.combinations(range(1, 2 * n + 1), k))
        for L, J in itertools.product(indices, repeat=2):
            want = minor_order_compare(minor_rows(n, L), minor_rows(n, J)) == -1
            assert (_minor_key(n, L) < _minor_key(n, J)) == want, (L, J)


def brute_min_arrangement(mono):
    """The first arrangement minimal in the tableau order, by trying them all."""
    best = None
    for arr in arrangements(mono):
        cols = tuple(pbw_fill(J) for J in arr)
        if best is None or tableau_order_compare(cols, best[1]) == -1:
            best = (arr, cols)
    return best


@pytest.mark.parametrize("n, max_degree, count", [(2, 3, 285), (3, 3, 13243), (4, 2, 13365)])
def test_min_arrangement_matches_brute_force(n, max_degree, count):
    variables = [
        J for k in range(1, n + 1) for J in itertools.combinations(range(1, 2 * n + 1), k)
    ]
    seen = 0
    for degree in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(variables, degree):
            mono = _validate_monomial(n, combo)
            assert _min_arrangement(n, mono) == brute_min_arrangement(mono), mono
            seen += 1
    assert seen == count


@pytest.mark.parametrize("n", range(1, 6))
def test_same_length_semistandard_pairs_descend(n):
    # the rule that lets straightening test only the minimal arrangement
    for k in range(1, n + 1):
        for a, b in itertools.permutations(_symplectic_columns(n, k), 2):
            if not _uncovered_row(a, b):
                assert a[::-1] > b[::-1], (a, b)


@pytest.mark.parametrize("mono", [
    tuple((r,) for r in (1, 2, 3, 4, 5, 6) * 2),
    ((1, 4), (2, 5), (3, 6), (1, 6), (2, 4), (3, 5), (1,), (2,), (3,), (4,), (5,), (6,)),
])
def test_twelve_columns_n3(mono):
    # twelve columns would take k! arrangements per check if each were tried
    points = {
        "classical": sample_classical_flag(3, 0).flat(),
        "degenerate": sample_degenerate_point(3, 0).flat(),
    }
    for ring in RINGS:
        result = straighten(3, mono, ring)
        coords = points[ring]
        assert evaluate(mono, coords) == sum(c * evaluate(tab, coords) for tab, c in result.items())


def test_straight_input_passes_through():
    assert straighten(2, ((1, 3),), "classical") == {((1, 3),): 1}
    # the output column carries the tableau filling of the index set
    assert straighten(2, ((2, 3),), "classical") == {((3, 2),): 1}
    assert straighten(2, (), "classical") == {(): 1}


def test_linear_rewrite():
    for ring in RINGS:
        assert straighten(2, ((1, 4),), ring) == {((3, 2),): -1}


def test_quadratic_rewrite():
    expected = {((3, 2), (3, 2)): -1, ((4, 3), (1, 2)): 1}
    for ring in RINGS:
        assert straighten(2, ((1, 3), (2, 4)), ring) == expected


def test_trace_reports_steps():
    steps = []
    straighten(2, ((1, 3), (2, 4)), "classical", trace=steps.append)
    assert any(step.startswith("P-step") for step in steps)
    assert any(step.startswith("S-step") for step in steps)


def test_errors():
    with pytest.raises(ValueError):
        straighten(2, ((1, 3),), "quantum")
    with pytest.raises(ValueError):
        straighten(2, ((3, 2),), "classical")  # columns are sorted index sets
    with pytest.raises(ValueError):
        straighten(2, ((1, 5),), "classical")
    with pytest.raises(ValueError):
        straighten(2, ((1, 2, 3),), "classical")
    for mono in ([[1.5]], [[True, 2]], [[1, 2.0], [3]]):  # entries are ints, not just numbers
        with pytest.raises(ValueError, match="must be ints"):
            straighten(3, mono, "classical")


def test_degree_two_exhaustive_n2():
    points = {
        "classical": [sample_classical_flag(2, seed).flat() for seed in range(3)],
        "degenerate": [sample_degenerate_point(2, seed).flat() for seed in range(3)],
    }
    monomials = list(itertools.combinations_with_replacement(variables_n2(), 2))
    assert len(monomials) == 55
    for ring in RINGS:
        for mono in monomials:
            result = straighten(2, mono, ring)
            for tab in result:
                assert is_symplectic_pbw_semistandard(2, tab), (ring, mono, tab)
            for coords in points[ring]:
                lhs = evaluate(mono, coords)
                rhs = sum(c * evaluate(tab, coords) for tab, c in result.items())
                assert lhs == rhs, (ring, mono)


def test_spot_checks_n3():
    cases = [
        ((1, 4, 5), (2, 3)),
        ((2, 4, 6),),
        ((1, 6), (2, 5)),
        ((1, 2, 4), (3, 5)),
        ((1, 4), (2, 5), (3, 6)),
    ]
    points = {
        "classical": [sample_classical_flag(3, seed).flat() for seed in (0, 1)],
        "degenerate": [sample_degenerate_point(3, seed).flat() for seed in (0, 1)],
    }
    for ring in RINGS:
        for mono in cases:
            result = straighten(3, mono, ring)
            for tab in result:
                assert is_symplectic_pbw_semistandard(3, tab), (ring, mono, tab)
            for coords in points[ring]:
                lhs = evaluate(mono, coords)
                rhs = sum(c * evaluate(tab, coords) for tab, c in result.items())
                assert lhs == rhs, (ring, mono)


# --- the old queue order, kept as the oracle of straighten ---
#
# oracle_straighten is straighten as it was before its queue popped in the
# descent order: it pops the largest monomial in plain tuple order, so a
# monomial can come back after it has been rewritten, and it rebuilds every
# relation, arrangement and validation on every pop (the arrangement through
# __wrapped__, past its cache).  Its S-step reads each column as a minor
# (I2, I1) and builds the relation on the minor route of test_pluecker and
# test_relations.  The descent asserts are spelled as explicit raises, since
# pytest would rewrite an assert here and change the exception's args.

_oracle_min_arrangement = _min_arrangement.__wrapped__


def _oracle_s_step(n, mono, ring):
    bad = next(J for J in mono if not _index_column(n, J)[1])
    minor = column_to_minor(n, bad)
    relation = _relation_in_ring(minor_symplectic_relation(n, minor), ring)
    head, rest = _split_head(relation, (bad,))
    src_seq = computed_minor(n, minor)
    remainder = list(mono)
    remainder.remove(bad)
    out = []
    for (_, vars_), coeff in rest:
        (new_col,) = vars_
        tgt_seq = computed_minor(n, column_to_minor(n, new_col))
        if minor_order_compare(tgt_seq, src_seq) != -1:
            raise AssertionError((new_col, bad))
        out.append((-head * coeff, _validate_monomial(n, remainder + [new_col])))
    return out


def _oracle_p_step(n, mono, arrangement, ring):
    arr, cols = arrangement
    c, t = _first_violation(cols)
    relation = _relation_in_ring(exchange_relation(cols[c], cols[c + 1], t), ring)
    head, rest = _split_head(relation, _vars_key([arr[c], arr[c + 1]]))
    remainder = arr[:c] + arr[c + 2 :]
    out = []
    for (_, vars_), coeff in rest:
        new_mono = _validate_monomial(n, remainder + vars_)
        _, new_cols = _oracle_min_arrangement(n, new_mono)
        if tableau_order_compare(new_cols, cols) != -1:
            raise AssertionError((vars_, mono))
        out.append((-head * coeff, new_mono))
    return out


def oracle_straighten(n, monomial, ring, max_steps=200000):
    if ring not in ("classical", "degenerate"):
        raise ValueError(f"unknown ring: {ring!r}")
    start = _validate_monomial(n, monomial)
    work = {start: 1}
    result = {}
    steps = 0
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        if coeff == 0:
            continue
        arrangement = None
        if all(_index_column(n, J)[1] for J in mono):
            arrangement = _oracle_min_arrangement(n, mono)
            cols = arrangement[1]
            if _first_violation(cols) is None:
                result[cols] = result.get(cols, 0) + coeff
                continue
        steps += 1
        if steps > max_steps:
            raise RuntimeError("straightening budget exhausted: suspected cycle")
        if arrangement is None:
            expansion = _oracle_s_step(n, mono, ring)
        else:
            expansion = _oracle_p_step(n, mono, arrangement, ring)
        for c, new_mono in expansion:
            new = work.get(new_mono, 0) + coeff * c
            if new:
                work[new_mono] = new
            else:
                work.pop(new_mono, None)
    return {tab: c for tab, c in result.items() if c}


def module_caches():
    return [
        obj for obj in vars(sympbw.straighten).values()
        if callable(getattr(obj, "cache_clear", None))
    ]


def outcome(fn, n, mono, ring):
    """(result, (exception type, args) or None) of one call."""
    try:
        return fn(n, mono, ring), None
    except Exception as exc:
        return None, (type(exc), exc.args)


def oracle_corpus():
    """17 seeded monomials per (n, degree, ring), n = 3, 4, degrees 2-4."""
    rng = random.Random(0)
    corpus = []
    for n in (3, 4):
        for degree in (2, 3, 4):
            for ring in RINGS:
                for _ in range(17):
                    mono = tuple(sorted(
                        tuple(sorted(rng.sample(range(1, 2 * n + 1), rng.randint(1, n))))
                        for _ in range(degree)
                    ))
                    corpus.append((n, mono, ring))
    return corpus


@pytest.fixture(scope="module")
def oracle_outcomes():
    corpus = oracle_corpus()
    return corpus, [outcome(oracle_straighten, *case) for case in corpus]


@pytest.mark.parametrize("warm", [False, True], ids=["caches-emptied", "caches-warm"])
def test_memoized_path_matches_oracle(oracle_outcomes, warm):
    corpus, expected = oracle_outcomes
    assert len(corpus) == 204
    # the known descent failures (ROADMAP item 1) of the old queue order
    failures = [exc for _, exc in expected if exc is not None]
    assert len(failures) == 13 and {exc[0] for exc in failures} == {AssertionError}
    sample = {"classical": sample_classical_flag, "degenerate": sample_degenerate_point}
    points = {
        (n, ring): [sample[ring](n, seed).flat() for seed in (0, 1)]
        for n in (3, 4) for ring in RINGS
    }
    for cache in module_caches():
        cache.cache_clear()
    for case, (want, want_exc) in zip(corpus, expected):
        if not warm:
            for cache in module_caches():
                cache.cache_clear()
        got, exc = outcome(straighten, *case)
        if want_exc is None:
            assert (got, exc) == (want, None), case
        elif exc is not None:
            assert exc[0] is AssertionError, case
        else:  # the descent order rewrote it where the old order failed an assert
            n, mono, ring = case
            for coords in points[(n, ring)]:
                assert evaluate(mono, coords) == sum(
                    c * evaluate(tab, coords) for tab, c in got.items()
                ), case


def test_no_monomial_is_rewritten_twice(monkeypatch):
    rewritten = []
    for name in ("_s_step", "_p_step"):
        step = getattr(sympbw.straighten, name)

        def record(n, mono, *args, step=step):
            rewritten.append(mono)
            return step(n, mono, *args)

        monkeypatch.setattr(sympbw.straighten, name, record)
    total = 0
    for n, mono, ring in oracle_corpus():
        rewritten.clear()
        lines = []
        try:
            straighten(n, mono, ring, trace=lines.append)
        except AssertionError:  # the S-step descent defect, ROADMAP item 1
            pass
        assert len(rewritten) == len(set(rewritten)) == len(lines), (n, mono, ring)
        total += len(rewritten)
    assert total > 204


def test_list_input_matches_tuple_input():
    assert straighten(2, [[1, 3], [2, 4]], "classical") == straighten(2, ((1, 3), (2, 4)), "classical")
