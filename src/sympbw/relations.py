"""Defining relations of the symplectic flag variety and its PBW degeneration.

Quadratic Pluecker exchange relations R^t_{L,J}, linear symplectic relations
S_J attached to each index J whose filling is not a symplectic column, their
degenerate components (minimal total PBW-degree parts), and the one-parameter
s-family interpolating between the two.

An exchange relation depends only on the relative order of the rows of
L u J, not on n or on the symplectic structure.  So generate_ideal builds
each one once on the rows 1..m (an order pattern, see _exchange_patterns)
and relabels it onto every m-subset U of 1..2n by the increasing map; the
relabelling keeps signs, term order and which triple comes first.

The cut lemma does the same for the other kinds.  A pattern row r lands
above level k exactly when r > c_k = |U & 1..k|, and every variable has
level |L| or |J|.  So the cuts (c_|L|, c_|J|) alone fix each term's PBW
degree, hence the degenerate component and the s-grading: they are built
once per pattern and cut pair (see _kind_patterns) and relabelled.

generate_ideal returns an Ideal, which relabels only when its list is
asked for: its length and its blocks (U, patterns) come from the patterns.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
import itertools
from operator import attrgetter

from .liealg import bar
from .pluecker import (
    _sort_sign,
    check_index,
    minor_rows,
    pbw_degree_index,
    poly_add,
    poly_frozen,
    poly_term,
    term_sort_key,
)
from .tableaux import _index_column, entry_str


@dataclass(frozen=True, slots=True)
class Relation:
    kind: str  # pluecker | symplectic | pluecker_degenerate | symplectic_degenerate | s_family
    label: str
    poly: tuple  # frozen polynomial (see pluecker.poly_frozen)

    @property
    def ring(self):
        if self.kind.endswith("_degenerate"):
            return "degenerate"
        if self.kind == "s_family":
            return "s"
        return "classical"


def exchange_relation(l_seq, j_seq, t):
    """Exchange relation on two row sequences, sorted or not.

    The first t entries of j_seq trade places with every size-t selection of
    slots in l_seq, and each product is subtracted from X_l X_j.  Every
    variable is sign-normalized, so the head term X_l X_j carries the sign
    that sorts both sequences; products with a repeated row vanish.
    """
    l_seq, j_seq = tuple(l_seq), tuple(j_seq)
    p, q = len(l_seq), len(j_seq)
    if not 1 <= t <= min(p, q):
        raise ValueError(f"invalid exchange: |L|={p}, |J|={q}, t={t}")
    a, sign_a = _sort_sign(l_seq)
    b, sign_b = _sort_sign(j_seq)
    if not (sign_a and sign_b):
        raise ValueError("exchange relation on a vanishing variable")
    # the two variables in (level, index) order, as in pluecker._vars_key
    out = {(None, (a, b) if p < q or (p == q and a < b) else (b, a)): sign_a * sign_b}
    moved, kept = j_seq[:t], j_seq[t:]
    for positions in itertools.combinations(range(p), t):
        new_l = list(l_seq)
        for slot, pos in enumerate(positions):
            new_l[pos] = moved[slot]
        a, sign_a = _sort_sign(tuple(new_l))
        b, sign_b = _sort_sign(tuple([l_seq[pos] for pos in positions]) + kept)
        if not (sign_a and sign_b):
            continue
        key = (None, (a, b) if p < q or (p == q and a < b) else (b, a))
        coeff = out.get(key, 0) - sign_a * sign_b
        if coeff:
            out[key] = coeff
        else:
            del out[key]
    return out


def pluecker_relation(n, L, J, t):
    """Exchange relation R^t_{L,J} on sorted indices (see exchange_relation).

    L and J must be strictly increasing over 1..2n with n >= |L| >= |J| >= t >= 1.
    """
    L, J = tuple(L), tuple(J)
    p, q = len(L), len(J)
    if not (n >= p >= q >= 1 and 1 <= t <= q):
        raise ValueError(f"invalid shape: |L|={p}, |J|={q}, t={t}, n={n}")
    for seq in (L, J):
        check_index(n, seq, "L and J")
    return exchange_relation(L, J, t)


def symplectic_relation(n, J):
    """Linear relation S_J of a sorted index J whose filling is not a
    symplectic column.

    J's unbarred entries form I1 and the bases of its barred ones I2.  With
    Gamma = I1 & I2 = {g_1 < ... < g_t}: pick h0 in 1..t minimal so that
    some T in the complement of I1 u I2 has |T| = t - h0 and T < (g_{h0+1},
    ..., g_t); let T* be the componentwise-maximal such T, b in {h0..t}
    maximal with (T*_1, ..., T*_{b-h0}) < (g_{h0}, ..., g_{b-1}) and
    Gtilde = (g_{h0}, ..., g_b).  Then

        S_J = X_J - (-1)^{|G'|} sum_{G'} X_{J'}

    over G' of size b - h0 + 1 disjoint from I1 u I2, where J' trades the
    pairs (g, gbar) of Gtilde in J for those of G'.  Each variable carries
    the sign that sorts its minor_rows.
    """
    J = check_index(n, J)
    if _index_column(n, J)[1]:
        raise ValueError(f"the filling of {J} is a symplectic column: no relation attached")
    gamma = tuple(g for g in J if g <= n and bar(g, n) in J)
    pool = [v for v in range(1, n + 1) if v not in J and bar(v, n) not in J]
    t = len(gamma)

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
    g_tilde = gamma[h0 - 1 : b]
    traded = set(g_tilde).union(bar(g, n) for g in g_tilde)
    kept = [e for e in J if e not in traded]

    out = poly_term(_sort_sign(minor_rows(n, J))[1], [J])
    size = b - h0 + 1
    coeff = -((-1) ** size)
    for g_new in itertools.combinations(pool, size):
        new = tuple(sorted(kept + [row for g in g_new for row in (g, bar(g, n))]))
        out = poly_add(out, poly_term(coeff * _sort_sign(minor_rows(n, new))[1], [new]))
    return out


@lru_cache(maxsize=1 << 16)
def _index_degree(J):
    return pbw_degree_index(len(J), J)


def term_pbw_degree(key):
    """Total PBW-degree of a term key: sum of entry counts above each level."""
    return sum(map(_index_degree, key[1]))


def degenerate_component(p):
    """Sub-sum of the terms of minimal total PBW-degree."""
    if not p:
        raise ValueError("empty polynomial has no degenerate component")
    degrees = {key: term_pbw_degree(key) for key in p}
    low = min(degrees.values())
    return {key: coeff for key, coeff in p.items() if degrees[key] == low}


def s_deformed_relation(p):
    """Tag each term with s^(its PBW-degree above the minimum).

    Specializing s=1 recovers the plain relation, s=0 its degenerate component.
    """
    if not p:
        raise ValueError("empty polynomial cannot be deformed")
    if any(key[0] is not None for key in p):
        raise ValueError("polynomial already s-graded")
    degrees = {key: term_pbw_degree(key) for key in p}
    low = min(degrees.values())
    return {(degrees[key] - low, key[1]): coeff for key, coeff in p.items()}


def specialize_s(p, value):
    """Substitute a number for s, returning a plain polynomial."""
    out = {}
    for (s_deg, vars_), coeff in p.items():
        if s_deg is None:
            raise ValueError("polynomial is not s-graded")
        c = coeff * value**s_deg
        if c:
            key = (None, vars_)
            new = out.get(key, 0) + c
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


def _index_str(n, J, ascii_only=False):
    return ",".join(entry_str(n, v, ascii_only) for v in J)


def relation_text(n, relation, ascii_only=False):
    """Render a relation the way the variables are written by hand."""
    poly = dict(relation.poly) if isinstance(relation, Relation) else relation
    sup = ""
    if isinstance(relation, Relation) and relation.ring == "degenerate":
        sup = "^a"
    pieces = []
    for key in sorted(poly, key=term_sort_key):
        s_deg, vars_ = key
        coeff = poly[key]
        body = "".join(f"X{sup}_{{{_index_str(n, J, ascii_only)}}}" for J in vars_)
        if s_deg:
            body = f"s^{s_deg}*{body}"
        mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
        if not pieces:
            sign = "-" if coeff < 0 else ""
        else:
            sign = " - " if coeff < 0 else " + "
        pieces.append(f"{sign}{mag}{body}")
    return "".join(pieces) if pieces else "0"


@lru_cache(maxsize=1 << 10)
def _exchange_patterns(p, q, m):
    """First exchange relations, up to sign, whose rows cover exactly 1..m.

    A tuple of (L, J, t, frozen relation) in (L, J, t) order, |L| = p,
    |J| = q, L u J = {1..m}, skipping J[:t] inside L, where the one
    surviving swap cancels the head term.

    exchange_relation(L, J, t) depends only on the relative order of the
    rows of L u J.  So for a row set U of size m and the increasing map
    phi: 1..m -> U, R^t_{phi L, phi J} is R^t_{L,J} with phi applied to
    every row.  phi keeps sorting signs, the (level, index) order of the
    two variables, and lexicographic order, hence poly_frozen's sign and
    term order and the (L, J, t) iteration order.  Relations equal up to
    sign have one term set, hence one shape (p, q) and one row set U; so
    the first triple of each class over U is the first pattern triple of
    its class, relabelled by phi.
    """
    rows = tuple(range(1, m + 1))
    seen = set()
    out = []
    for L in itertools.combinations(rows, p):
        members = set(L)
        rest = tuple(r for r in rows if r not in members)  # rows only J can cover
        joins = (tuple(sorted(rest + S)) for S in itertools.combinations(L, q - len(rest)))
        for J in sorted(joins):
            for t in range(1, q + 1):
                if members.issuperset(J[:t]):
                    continue
                poly = exchange_relation(L, J, t)
                if not poly:
                    continue
                frozen = poly_frozen(poly)
                if frozen not in seen:
                    seen.add(frozen)
                    out.append((L, J, t, frozen))
    return tuple(out)


@lru_cache(maxsize=1 << 12)
def _kind_patterns(p, q, m, kind, cuts):
    """The patterns of _exchange_patterns(p, q, m) in the given kind, for
    the row sets U with cuts = (|U & 1..p|, |U & 1..q|).

    Every variable of an exchange relation has level p or q, and the
    increasing map phi: 1..m -> U sends a pattern row r above level k
    (phi(r) > k) exactly when r > c_k.  So the cuts alone fix each term's
    PBW degree, hence the degenerate component or s-grading, its canonical
    sign and which pattern gives it first: the result, relabelled by phi,
    is the transformed relations over U, first occurrences only, in
    (L, J, t) order.  "classical" returns the patterns unchanged.
    """
    patterns = _exchange_patterns(p, q, m)
    if kind == "classical":
        return patterns
    level_cut = {p: cuts[0], q: cuts[1]}
    seen = set()
    out = []
    for L, J, t, frozen in patterns:
        # a variable's rows are sorted: those above the cut are the tail past bisect
        degrees = [sum(len(var) - bisect_right(var, level_cut[len(var)]) for var in vars_)
                   for (_, vars_), _c in frozen]
        low = min(degrees)
        if kind == "degenerate":
            poly = {key: c for (key, c), d in zip(frozen, degrees) if d == low}
        else:
            poly = {(d - low, vars_): c for ((_, vars_), c), d in zip(frozen, degrees)}
        poly = poly_frozen(poly)
        if poly not in seen:
            seen.add(poly)
            out.append((L, J, t, poly))
    return tuple(out)


class _TermImage(dict):
    """Pattern term -> the same term on the rows of U, built on first use.

    A term recurs in about three relations over U on average.  Sharing one
    tuple per term divides the objects an Ideal's list allocates, and so the
    garbage collector's work, by about that factor.
    """

    def __init__(self, image):
        super().__init__()
        self.image = image  # pattern variable -> its index over U

    def __missing__(self, term):
        (s, (a, b)), c = term
        self[term] = relabelled = ((s, (self.image[a], self.image[b])), c)
        return relabelled


# kind -> (transform of a plain relation, Relation.kind of S and of R relations, label suffix)
_KINDS = {
    "classical": (dict, "symplectic", "pluecker", ""),
    "degenerate": (degenerate_component, "symplectic_degenerate", "pluecker_degenerate",
                   " (degenerate part)"),
    "s-family": (s_deformed_relation, "s_family", "s_family", " (s-family)"),
}


def _shapes(n):
    """(|L|, |J|, |L u J|) of every exchange pattern at rank n, |L| >= |J|."""
    for p_len in range(1, n + 1):
        for q_len in range(1, p_len + 1):
            # |L u J| = |L| would put J[:t] inside L for every t
            for size in range(p_len + 1, min(p_len + q_len, 2 * n) + 1):
                yield p_len, q_len, size


class Ideal:
    """The generating set of generate_ideal: its S-relations, and its
    exchange relations as order patterns until the list is asked for.

    len() counts the _kind_patterns entry of every row set U, and blocks()
    gives each U's patterns with the map from pattern variables to indices
    over U, so a check can evaluate every relation without relabelling,
    labelling or sorting one.  Item access, iteration and == build the
    canonical sorted list of Relation once and keep it.
    """

    def __init__(self, n, kind, s_relations):
        self.n = n
        self.kind = kind
        self.ring = "s" if kind == "s-family" else kind  # Relation.ring of every member
        self.s_relations = s_relations
        self._size = None
        self._list = None

    def blocks(self):
        """(image, patterns) for every shape (p, q, m) and m-subset U of 1..2n.

        image maps every variable of _exchange_patterns(p, q, m) to its index
        over U, one tuple object per index; patterns is the _kind_patterns
        entry for U's cuts.  Relabelled by image, the patterns are this
        ideal's exchange relations over U (see generate_ideal).
        """
        rows = range(1, 2 * self.n + 1)
        indices = {}  # one tuple object per Pluecker index, shared by every block
        for p_len, q_len, size in _shapes(self.n):
            variables = {var for *_, frozen in _exchange_patterns(p_len, q_len, size)
                         for (_, vars_), _c in frozen for var in vars_}
            for U in itertools.combinations(rows, size):
                phi = (None,) + U
                image = {}
                for var in variables:
                    index = tuple([phi[r] for r in var])
                    image[var] = indices.setdefault(index, index)
                cuts = (bisect_right(U, p_len), bisect_right(U, q_len))
                yield image, _kind_patterns(p_len, q_len, size, self.kind, cuts)

    def __len__(self):
        if self._size is None:
            rows = range(1, 2 * self.n + 1)
            self._size = len(self.s_relations) + sum(
                len(_kind_patterns(p_len, q_len, size, self.kind,
                                   (bisect_right(U, p_len), bisect_right(U, q_len))))
                for p_len, q_len, size in _shapes(self.n)
                for U in itertools.combinations(rows, size))
        return self._size

    def _relations(self):
        """The canonical sorted list of Relation, built on the first call."""
        if self._list is not None:
            return self._list
        _, _, r_kind, suffix = _KINDS[self.kind]
        names = {r: entry_str(self.n, r) for r in range(1, 2 * self.n + 1)}
        out = list(self.s_relations)
        for image, patterns in self.blocks():
            terms = _TermImage(image)
            for L, J, t, frozen in patterns:
                label = (f"R^{t}_{{({','.join(map(names.__getitem__, image[L]))}),"
                         f"({','.join(map(names.__getitem__, image[J]))})}}{suffix}")
                out.append(Relation(r_kind, label, tuple(map(terms.__getitem__, frozen))))
        # by least level, then polynomial: every term of a relation has the same
        # levels, and its first variable is its lowest, so poly[0][0][1][0] has the least.
        # That key starts with the first term's (level, power of s, first variable):
        # sort the groups by that start and compare whole polynomials only within one.
        groups = {}
        for r in out:
            s, vars_ = r.poly[0][0]
            groups.setdefault((len(vars_[0]), s or 0, vars_[0]), []).append(r)
        by_poly = attrgetter("poly")
        self._list = [r for start in sorted(groups) for r in sorted(groups[start], key=by_poly)]
        return self._list

    def __getitem__(self, index):
        return self._relations()[index]

    def __iter__(self):
        return iter(self._relations())

    def __eq__(self, other):
        return self._relations() == other


def generate_ideal(n, kind):
    """Canonical deduplicated generating set, kind in {classical, degenerate, s-family}.

    All exchange relations over sorted index pairs plus one symplectic
    relation per index J whose filling is not a symplectic column; degenerate
    components or s-deformations of the same list for the other kinds.  Relations equal up
    to a global sign count once; representatives have positive leading
    coefficient, labelled by the first (L, J, t) that gives them.

    The exchange relations are those of _kind_patterns, relabelled onto
    every row set U.  A degenerate part or s-deformation first given by some
    triple is also given, up to sign, by the first triple of that triple's
    classical class, so only the classical patterns are transformed, once per
    pattern and cut pair (see _kind_patterns).  Every term of a relation over
    U uses each row of U, so relations over different (p, q, U) never
    coincide, and none is linear like a symplectic relation: only the
    symplectic relations need a dedup across the whole set.

    The answer is an Ideal: the S-relations are built here, and the
    exchange relations stay patterns.  Its length is counted from the
    patterns without relabelling; the sorted list of Relation is built on
    first item access, iteration or ==, and kept.  verify checks an Ideal
    by pattern (see Ideal.blocks) and reads the list only on a failure.
    ValueError unless n is an int >= 1; at n = 1 the set is empty.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"an ideal needs an int n >= 1, got n={n!r}")
    if kind not in _KINDS:
        raise ValueError(f"unknown kind: {kind!r}")
    transform, s_kind, _, suffix = _KINDS[kind]
    seen = set()
    s_relations = []
    for k in range(1, n + 1):
        for J in itertools.combinations(range(1, 2 * n + 1), k):
            if _index_column(n, J)[1]:
                continue
            poly = poly_frozen(transform(symplectic_relation(n, J)))
            if poly not in seen:
                seen.add(poly)
                label = f"S_{{({_index_str(n, minor_rows(n, J))})}}{suffix}"
                s_relations.append(Relation(s_kind, label, poly))
    return Ideal(n, kind, s_relations)
