from functools import lru_cache
import itertools
import random
import re

import pytest

from sympbw.pluecker import (
    pbw_fill,
    poly_add,
    poly_frozen,
    poly_term,
)
from sympbw.relations import (
    Relation,
    _index_str,
    _kind_patterns,
    degenerate_component,
    exchange_relation,
    generate_ideal,
    pluecker_relation,
    relation_text,
    s_deformed_relation,
    specialize_s,
    symplectic_relation,
    term_pbw_degree,
)
from sympbw.tableaux import entry_str, is_symplectic_column

from test_pluecker import (
    all_indices,
    column_to_minor,
    computed_minor,
    is_reverse_admissible,
    minor_parts,
    normalize_index,
    validate_minor,
)

# The full generating set for n = 2, frozen as rendered text.
CLASSICAL_N2 = {
    "R^1_{(1,2),(2̅)}": "X_{1}X_{2,2̅} - X_{2}X_{1,2̅} + X_{2̅}X_{1,2}",
    "R^1_{(1,2),(1̅)}": "X_{1}X_{2,1̅} - X_{2}X_{1,1̅} + X_{1̅}X_{1,2}",
    "R^1_{(1,2̅),(1̅)}": "X_{1}X_{2̅,1̅} - X_{2̅}X_{1,1̅} + X_{1̅}X_{1,2̅}",
    "R^1_{(2,2̅),(1̅)}": "X_{2}X_{2̅,1̅} - X_{2̅}X_{2,1̅} + X_{1̅}X_{2,2̅}",
    "R^1_{(1,2),(2̅,1̅)}": "X_{1,2}X_{2̅,1̅} - X_{1,2̅}X_{2,1̅} + X_{1,1̅}X_{2,2̅}",
    "S_{(1̅,1)}": "X_{1,1̅} + X_{2,2̅}",
}

DEGENERATE_N2 = {
    "R^1_{(1,2),(2̅)} (degenerate part)": "X^a_{1}X^a_{2,2̅} + X^a_{2̅}X^a_{1,2}",
    "R^1_{(1,2),(1̅)} (degenerate part)": "X^a_{1}X^a_{2,1̅} + X^a_{1̅}X^a_{1,2}",
    "R^1_{(1,2̅),(1̅)} (degenerate part)": "X^a_{1}X^a_{2̅,1̅} - X^a_{2̅}X^a_{1,1̅} + X^a_{1̅}X^a_{1,2̅}",
    "R^1_{(2,2̅),(1̅)} (degenerate part)": "X^a_{2̅}X^a_{2,1̅} - X^a_{1̅}X^a_{2,2̅}",
    "R^1_{(1,2),(2̅,1̅)} (degenerate part)": "X^a_{1,2}X^a_{2̅,1̅} - X^a_{1,2̅}X^a_{2,1̅} + X^a_{1,1̅}X^a_{2,2̅}",
    "S_{(1̅,1)} (degenerate part)": "X^a_{1,1̅} + X^a_{2,2̅}",
}

S_FAMILY_N2 = {
    "R^1_{(1,2),(2̅)} (s-family)": "X_{1}X_{2,2̅} - s^1*X_{2}X_{1,2̅} + X_{2̅}X_{1,2}",
    "R^1_{(1,2),(1̅)} (s-family)": "X_{1}X_{2,1̅} - s^1*X_{2}X_{1,1̅} + X_{1̅}X_{1,2}",
    "R^1_{(1,2̅),(1̅)} (s-family)": "X_{1}X_{2̅,1̅} - X_{2̅}X_{1,1̅} + X_{1̅}X_{1,2̅}",
    "R^1_{(2,2̅),(1̅)} (s-family)": "s^1*X_{2}X_{2̅,1̅} - X_{2̅}X_{2,1̅} + X_{1̅}X_{2,2̅}",
    "R^1_{(1,2),(2̅,1̅)} (s-family)": "X_{1,2}X_{2̅,1̅} - X_{1,2̅}X_{2,1̅} + X_{1,1̅}X_{2,2̅}",
    "S_{(1̅,1)} (s-family)": "X_{1,1̅} + X_{2,2̅}",
}


def test_pluecker_relation_n2():
    p = pluecker_relation(2, (1, 2), (3,), 1)
    assert p == {
        (None, ((3,), (1, 2))): 1,
        (None, ((1,), (2, 3))): 1,
        (None, ((2,), (1, 3))): -1,
    }
    # the two-column relation behind the degree-2 straightening step
    q = pluecker_relation(2, (1, 2), (3, 4), 1)
    assert q == {
        (None, ((1, 2), (3, 4))): 1,
        (None, ((1, 3), (2, 4))): -1,
        (None, ((1, 4), (2, 3))): 1,
    }
    # swapping all of J into L with t = |J| = |L| cancels identically
    assert pluecker_relation(2, (1, 2), (3, 4), 2) == {}


def test_pluecker_relation_errors():
    with pytest.raises(ValueError):
        pluecker_relation(2, (2, 1), (3,), 1)  # not increasing
    with pytest.raises(ValueError):
        pluecker_relation(2, (1,), (2, 3), 1)  # |J| > |L|
    with pytest.raises(ValueError):
        pluecker_relation(2, (1, 2), (3,), 2)  # t > |J|
    with pytest.raises(ValueError):
        pluecker_relation(2, (1, 5), (3,), 1)  # entry out of range


def test_symplectic_relation_n2():
    p = symplectic_relation(2, (1, 4))
    assert p == {(None, ((1, 4),)): -1, (None, ((2, 3),)): -1}
    with pytest.raises(ValueError):
        symplectic_relation(2, (2, 4))  # fills to a symplectic column


def test_symplectic_relation_n4_diagonal():
    # the trailing-minor expansion with a two-element new part
    p = symplectic_relation(4, (1, 2, 7, 8))
    assert p == {
        (None, ((1, 2, 7, 8),)): 1,
        (None, ((1, 3, 6, 8),)): 1,
        (None, ((1, 4, 5, 8),)): 1,
    }


# --- the minor route, kept as the oracle of symplectic_relation ---


def _minor_variable(n, m):
    """(index, sign) of the Pluecker variable carrying the minor's determinant."""
    seq = computed_minor(n, m)
    return normalize_index(len(seq), seq)


def minor_symplectic_relation(n, m):
    """Linear relation S_{(I2,I1)} expanding a non-reverse-admissible minor."""
    I2, I1 = validate_minor(n, m)
    if is_reverse_admissible(n, (I2, I1)):
        raise ValueError("minor is reverse-admissible: no relation attached")
    i2t, i1t, gamma = minor_parts(n, (I2, I1))
    t = len(gamma)
    pool = sorted(set(range(1, n + 1)) - set(I1) - set(I2))

    h0 = None
    witnesses = []
    for h in range(1, t + 1):
        tail = gamma[h:]
        witnesses = [
            T
            for T in itertools.combinations(pool, t - h)
            if all(a < g for a, g in zip(T, tail))
        ]
        if witnesses:
            h0 = h
            break
    assert h0 is not None  # h = t always admits the empty witness

    t_max = tuple(max(w[r] for w in witnesses) for r in range(t - h0))
    if t_max not in witnesses:
        raise ValueError("incomparable maximal witnesses: contract violation")

    b = h0
    for bb in range(h0 + 1, t + 1):
        if all(t_max[r] < gamma[h0 - 1 + r] for r in range(bb - h0)):
            b = bb
        else:
            break
    f_part = gamma[: h0 - 1] + gamma[b:]

    idx, sign = _minor_variable(n, (I2, I1))
    out = poly_term(sign, [idx])
    size = b - h0 + 1
    coeff = -((-1) ** size)
    for g_new in itertools.combinations(pool, size):
        new_i2 = i2t + f_part + g_new
        new_i1 = i1t + f_part + g_new
        idx2, sign2 = _minor_variable(n, (new_i2, new_i1))
        out = poly_add(out, poly_term(coeff * sign2, [idx2]))
    return out


def test_symplectic_relation_matches_the_minor_route():
    for n in range(1, 7):
        bad = [J for J in all_indices(n) if not is_symplectic_column(n, pbw_fill(J))]
        for J in bad:
            assert symplectic_relation(n, J) == minor_symplectic_relation(
                n, column_to_minor(n, J)), J
    assert len(bad) == 794


def test_symplectic_relation_refuses_what_has_no_relation():
    for J, message in [((1, 2, 3), "column level 3 out of range for n=2"),
                       ((4, 1), "column indices must be strictly increasing"),
                       ((1, 5), "entries must lie in 1..4"),
                       ((2, 4), "the filling of (2, 4) is a symplectic column")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            symplectic_relation(2, J)


def test_term_pbw_degree():
    assert term_pbw_degree((None, ((1, 2), (3, 4)))) == 2
    assert term_pbw_degree((None, ((1, 4),))) == 1
    assert term_pbw_degree((None, ())) == 0


def test_degenerate_component():
    p = pluecker_relation(2, (1, 2), (3,), 1)
    assert degenerate_component(p) == {
        (None, ((1,), (2, 3))): 1,
        (None, ((3,), (1, 2))): 1,
    }
    with pytest.raises(ValueError):
        degenerate_component({})


def test_s_deformation_and_specialization():
    p = pluecker_relation(2, (1, 2), (3,), 1)
    s = s_deformed_relation(p)
    assert s == {
        (0, ((1,), (2, 3))): 1,
        (1, ((2,), (1, 3))): -1,
        (0, ((3,), (1, 2))): 1,
    }
    assert specialize_s(s, 1) == p
    assert specialize_s(s, 0) == degenerate_component(p)
    with pytest.raises(ValueError):
        s_deformed_relation(s)  # already graded
    with pytest.raises(ValueError):
        s_deformed_relation({})
    with pytest.raises(ValueError):
        specialize_s(p, 1)  # not graded


def test_relation_ring():
    assert Relation("pluecker", "r", ()).ring == "classical"
    assert Relation("symplectic", "r", ()).ring == "classical"
    assert Relation("pluecker_degenerate", "r", ()).ring == "degenerate"
    assert Relation("symplectic_degenerate", "r", ()).ring == "degenerate"
    assert Relation("s_family", "r", ()).ring == "s"


def test_generate_ideal_n2_classical():
    rels = generate_ideal(2, "classical")
    assert {r.label: relation_text(2, r) for r in rels} == CLASSICAL_N2


def test_generate_ideal_n2_degenerate():
    rels = generate_ideal(2, "degenerate")
    assert {r.label: relation_text(2, r) for r in rels} == DEGENERATE_N2
    assert all(r.ring == "degenerate" for r in rels)


def test_generate_ideal_n2_s_family():
    rels = generate_ideal(2, "s-family")
    assert {r.label: relation_text(2, r) for r in rels} == S_FAMILY_N2
    assert all(r.ring == "s" for r in rels)


def test_generate_ideal_sizes_n3():
    assert len(generate_ideal(3, "classical")) == 245
    assert len(generate_ideal(3, "degenerate")) == 230
    assert len(generate_ideal(3, "s-family")) == 245


def test_generate_ideal_bad_kind():
    with pytest.raises(ValueError):
        generate_ideal(2, "quantum")


def test_generate_ideal_refuses_an_n_that_is_not_an_int_at_least_one():
    for n, kind in ((0, "classical"), (-2, "degenerate"), (2.0, "classical"), (True, "s-family")):
        with pytest.raises(ValueError, match="needs an int n >= 1"):
            generate_ideal(n, kind)
    for kind in ("classical", "degenerate", "s-family"):
        ideal = generate_ideal(1, kind)
        assert len(ideal) == 0 and list(ideal) == []


def test_relation_text_forms():
    assert relation_text(2, {}) == "0"
    assert relation_text(2, poly_term(2, [(1,)])) == "2*X_{1}"
    assert relation_text(2, poly_term(-1, [(3,)])) == "-X_{2̅}"
    assert relation_text(2, poly_term(-1, [(3,)]), ascii_only=True) == "-X_{2'}"
    two_terms = {(None, ((1,),)): 1, (None, ((2,),)): -3}
    assert relation_text(2, two_terms) == "X_{1} - 3*X_{2}"


def test_exchange_relation_errors():
    with pytest.raises(ValueError):
        exchange_relation((1, 2), (2, 2), 1)  # vanishing variable
    with pytest.raises(ValueError):
        exchange_relation((1, 2), (3,), 2)  # t > |J|
    with pytest.raises(ValueError):
        exchange_relation((1, 2), (3,), 0)


def test_exchange_relation_shuffled_input():
    # Shuffling L, and J[:t] and J[t:] each within itself, scales every term
    # by one sign: the sign that sorts the two sequences, reported on the head.
    rng = random.Random(11)
    rows = range(1, 9)
    cases = 0
    while cases < 200:
        L = tuple(sorted(rng.sample(rows, rng.randint(1, 4))))
        J = tuple(sorted(rng.sample(rows, rng.randint(1, len(L)))))
        t = rng.randint(1, len(J))
        plain = exchange_relation(L, J, t)
        if not plain:
            continue
        cases += 1
        assert plain == pluecker_relation(4, L, J, t)
        l_seq = rng.sample(L, len(L))
        j_seq = rng.sample(J[:t], t) + rng.sample(J[t:], len(J) - t)
        shuffled = exchange_relation(l_seq, j_seq, t)
        head_key = (None, tuple(sorted((L, J), key=lambda idx: (len(idx), idx))))
        sign = normalize_index(len(L), l_seq)[1] * normalize_index(len(J), j_seq)[1]
        assert plain[head_key] == 1 and shuffled[head_key] == sign
        assert shuffled == {key: sign * coeff for key, coeff in plain.items()}


def _naive_exchange(L, J, t):
    out = poly_term(1, [L, J])
    for positions in itertools.combinations(range(len(L)), t):
        new_l = list(L)
        for slot, pos in enumerate(positions):
            new_l[pos] = J[slot]
        new_j = tuple(L[pos] for pos in positions) + J[t:]
        idx_l, sign_l = normalize_index(len(L), new_l)
        idx_j, sign_j = normalize_index(len(J), new_j)
        if sign_l and sign_j:
            out = poly_add(out, poly_term(-sign_l * sign_j, [idx_l, idx_j]))
    return out


def _naive_ideal(n, kind):
    """The generating set the slow way: every relation built and labelled,
    every (L, J, t) included, then deduplicated."""

    def index(J):
        return ",".join(entry_str(n, v) for v in J)

    raw = []
    subsets = [c for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
    for m in itertools.product(subsets, repeat=2):
        if 1 <= len(m[0]) + len(m[1]) <= n and not is_reverse_admissible(n, m):
            raw.append(("symplectic", f"S_{{({index(computed_minor(n, m))})}}",
                        minor_symplectic_relation(n, m)))
    rows = range(1, 2 * n + 1)
    for p in range(1, n + 1):
        for q in range(1, p + 1):
            for L in itertools.combinations(rows, p):
                for J in itertools.combinations(rows, q):
                    for t in range(1, q + 1):
                        raw.append(("pluecker", f"R^{t}_{{({index(L)}),({index(J)})}}",
                                    _naive_exchange(L, J, t)))
    seen, out = set(), []
    for base_kind, label, poly in raw:
        if not poly:
            continue
        if kind == "degenerate":
            poly, base_kind, label = (degenerate_component(poly), base_kind + "_degenerate",
                                      label + " (degenerate part)")
        elif kind == "s-family":
            poly, base_kind, label = s_deformed_relation(poly), "s_family", label + " (s-family)"
        frozen = poly_frozen(poly)
        if frozen not in seen:
            seen.add(frozen)
            out.append(Relation(base_kind, label, frozen))
    out.sort(key=lambda r: (min(len(J) for (_, vars_), _c in r.poly for J in vars_), r.poly))
    return out


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["classical", "degenerate", "s-family"])
def test_generate_ideal_matches_naive_oracle(n, kind):
    assert generate_ideal(n, kind) == _naive_ideal(n, kind)


def _relabel(poly, phi):
    """Apply the row map phi to every row of every term."""
    return {(s_deg, tuple(tuple(phi[r] for r in var) for var in vars_)): c
            for (s_deg, vars_), c in poly.items()}


def test_exchange_relation_is_invariant_under_increasing_relabelling():
    # The lemma behind _exchange_patterns: R^t_{phi L, phi J} is R^t_{L,J}
    # with phi applied to every row, term order and canonical sign included.
    rng = random.Random(8)
    triples = 0
    for p in range(1, 5):
        for q in range(1, 5):
            for m in range(max(p, q), min(p + q, 8) + 1):
                rows = range(1, m + 1)
                for L in itertools.combinations(rows, p):
                    for J in itertools.combinations(rows, q):
                        if set(L) | set(J) != set(rows):
                            continue
                        for t in range(1, min(p, q) + 1):
                            triples += 1
                            poly = exchange_relation(L, J, t)
                            for _ in range(2):
                                phi = (None,) + tuple(sorted(rng.sample(range(1, 11), m)))
                                image = exchange_relation(
                                    [phi[r] for r in L], [phi[r] for r in J], t)
                                assert image == _relabel(poly, phi), (L, J, t, phi)
                                assert poly_frozen(image) == tuple(
                                    _relabel(dict(poly_frozen(poly)), phi).items())
    assert triples == 2582


@lru_cache(maxsize=None)
def _per_triple_exchange(n):
    """(L, J, t, relation) over every sorted triple: the loop generate_ideal
    ran before patterns, zero relations included."""
    rows = range(1, 2 * n + 1)
    out = []
    for p_len in range(1, n + 1):
        for q_len in range(1, p_len + 1):
            for L in itertools.combinations(rows, p_len):
                members = set(L)
                for J in itertools.combinations(rows, q_len):
                    for t in range(1, q_len + 1):
                        if not members.issuperset(J[:t]):
                            out.append((L, J, t, exchange_relation(L, J, t)))
    return tuple(out)


def _per_triple_ideal(n, kind):
    """generate_ideal as it was before patterns: every (L, J, t) built,
    transformed and deduplicated in (p, q, L, J, t) order."""
    seen = set()
    out = []

    def keep(base_kind, poly, label):
        if not poly:
            return
        suffix = ""
        if kind == "degenerate":
            poly = degenerate_component(poly)
            base_kind += "_degenerate"
            suffix = " (degenerate part)"
        elif kind == "s-family":
            poly = s_deformed_relation(poly)
            base_kind = "s_family"
            suffix = " (s-family)"
        frozen = poly_frozen(poly)
        if frozen not in seen:
            seen.add(frozen)
            out.append(Relation(base_kind, label() + suffix, frozen))

    subsets = [c for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
    for m in itertools.product(subsets, repeat=2):
        if 1 <= len(m[0]) + len(m[1]) <= n and not is_reverse_admissible(n, m):
            keep("symplectic", minor_symplectic_relation(n, m),
                 lambda: f"S_{{({_index_str(n, computed_minor(n, m))})}}")
    for L, J, t, poly in _per_triple_exchange(n):
        keep("pluecker", poly, lambda: f"R^{t}_{{({_index_str(n, L)}),({_index_str(n, J)})}}")
    out.sort(key=lambda r: (min(len(J) for (_, vars_), _c in r.poly for J in vars_), r.poly))
    return out


@pytest.mark.parametrize("kind", ["classical", "degenerate", "s-family"])
def test_ideal_length_is_counted_without_the_list(kind):
    # len() of a fresh Ideal counts patterns per row set; the list it builds
    # later, and the oracles, must have exactly that many relations
    for n in range(1, 5):
        oracle = _naive_ideal(n, kind) if n <= 3 else _per_triple_ideal(n, kind)
        ideal = generate_ideal(n, kind)
        assert len(ideal) == len(list(ideal)) == len(oracle), n


def test_ideal_blocks_relabel_to_the_exchange_relations():
    ideal = generate_ideal(3, "degenerate")
    relabelled = {tuple(((s, tuple(image[var] for var in vars_)), c) for (s, vars_), c in poly)
                  for image, patterns in ideal.blocks() for *_, poly in patterns}
    assert relabelled == {r.poly for r in ideal if r.kind == "pluecker_degenerate"}
    assert ideal.ring == "degenerate" and ideal == list(ideal)


@pytest.mark.parametrize("kind", ["classical", "degenerate", "s-family"])
def test_generate_ideal_matches_per_triple_loop_n4(kind):
    assert generate_ideal(4, kind) == _per_triple_ideal(4, kind)


TRANSFORMS = {"classical": dict, "degenerate": degenerate_component,
              "s-family": s_deformed_relation}


def _covering_triples(U, p, q):
    """(L, J, t, relation) with |L| = p, |J| = q, L u J = U and J[:t] not
    inside L, in (L, J, t) order."""
    for L in itertools.combinations(U, p):
        rest = tuple(r for r in U if r not in L)
        if len(rest) > q:
            continue
        for J in sorted(tuple(sorted(rest + S)) for S in itertools.combinations(L, q - len(rest))):
            for t in range(1, q + 1):
                if not set(L).issuperset(J[:t]):
                    yield L, J, t, exchange_relation(L, J, t)


def _first_transformed(triples, kind):
    """Each nonzero relation transformed and frozen, first occurrences only."""
    seen, out = set(), []
    for L, J, t, poly in triples:
        if poly and (frozen := poly_frozen(TRANSFORMS[kind](poly))) not in seen:
            seen.add(frozen)
            out.append((L, J, t, frozen))
    return out


def _relabelled_kind_patterns(U, p, q, kind):
    cuts = (sum(r <= p for r in U), sum(r <= q for r in U))
    phi = (None,) + tuple(U)
    return [(tuple(phi[r] for r in L), tuple(phi[r] for r in J), t,
             tuple(_relabel(dict(frozen), phi).items()))
            for L, J, t, frozen in _kind_patterns(p, q, len(U), kind, cuts)]


def test_kind_patterns_depend_only_on_the_cuts():
    # The cut lemma: over a row set U, only (|U & 1..p|, |U & 1..q|) decides
    # which pattern rows land above their level.  So for every cut pair, the
    # transformed patterns relabelled onto U are the first occurrences among
    # the transformed relabelled exchange relations of every triple over U.
    # Relations equal up to sign transform to relations equal up to sign, so
    # only the first triple of each classical class can be a first occurrence.
    rng = random.Random(12)
    cut_pairs = 0
    for p in range(1, 8):
        for q in range(1, p + 1):
            for m in range(p + 1, min(p + q, 8) + 1):
                triples = [(L, J, t, dict(frozen)) for L, J, t, frozen in _first_transformed(
                    _covering_triples(range(1, m + 1), p, q), "classical")]
                by_cuts = {}
                for U in itertools.combinations(range(1, m + p + 1), m):
                    by_cuts.setdefault((sum(r <= p for r in U), sum(r <= q for r in U)),
                                       []).append(U)
                cut_pairs += len(by_cuts)
                variables = {var for *_, poly in triples for _, vars_ in poly for var in vars_}
                for cuts, sets in sorted(by_cuts.items()):
                    U = rng.choice(sets)
                    image = {var: tuple(U[r - 1] for r in var) for var in variables}
                    relabelled = [(image[L], image[J], t,
                                   {(None, (image[a], image[b])): c for (_, (a, b)), c in poly.items()})
                                  for L, J, t, poly in triples]
                    for kind in ("degenerate", "s-family"):
                        assert (_relabelled_kind_patterns(U, p, q, kind)
                                == _first_transformed(relabelled, kind)), (U, p, q, kind)
    assert cut_pairs == 484


@pytest.mark.parametrize("kind", ["classical", "degenerate", "s-family"])
def test_kind_patterns_match_per_triple_loop_n5(kind):
    rng = random.Random(13)
    for p in range(1, 6):
        for q in range(1, p + 1):
            for m in range(p + 1, min(p + q, 10) + 1):
                for U in (tuple(sorted(rng.sample(range(1, 11), m))) for _ in range(2)):
                    assert (_relabelled_kind_patterns(U, p, q, kind)
                            == _first_transformed(_covering_triples(U, p, q), kind)), (U, p, q)
