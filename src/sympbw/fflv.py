"""Symplectic Dyck paths, the FFLV polytope, and its lattice points.

A multi-exponent is a dict mapping Root -> nonnegative int (zero entries may
be omitted); it collects the exponents of a PBW monomial prod f_alpha^{p_alpha}.
The polytope P(lambda) is cut out by one inequality per symplectic Dyck path:
the exponents along the path sum to at most m_i + ... + m_j (path from row i
to an unbarred diagonal end alpha_{j,j}) or m_i + ... + m_n (barred diagonal
end alpha_{j,jbar}).

lattice_points assigns the exponents in the root reading order and needs,
at each root alpha, its room: the least slack over the paths through alpha.
A path only moves right or down, which is forward in the reading order, so
on every path through alpha the roots before alpha are assigned and the
roots after it still carry 0.  With S(i) = m_1 + ... + m_{i-1}, the right-hand
side of the path from row i to the end delta is E(delta) - S(i), where E is
m_1 + ... + m_j for alpha_{j,j} and m_1 + ... + m_n for alpha_{j,jbar}.  A path
through alpha is any walk from a start alpha_{i,i} to alpha followed by any
walk from alpha to a diagonal end, so the room splits exactly into

    room(alpha) = min E(delta) over the ends delta reachable from alpha
                  - max (S(i) + exponent sum) over the walks into alpha.

The first term depends on lambda alone.  The second is a longest-path value
W over the grid: W(alpha) = p_alpha + max of W over the (at most two)
predecessors of alpha and, at alpha_{i,i}, the start value S(i).  So each
search node costs one max and one subtraction, whatever the number of Dyck
paths, and the room equals the incidence-list minimum it replaces, point
for point and in the same order.  contains keeps the inequality index: the
inequalities are the definition of P(lambda), and a membership test by the
same DP measured about 1.5x slower at n = 4.
"""

from dataclasses import dataclass
from functools import lru_cache

from .liealg import Root, check_enumeration_size, check_weight, positive_roots, root_from_dict, root_key

# Bound of the inequality-index memo cache below (entries; keys are (n, m)).
_CACHE_SIZE = 64


@dataclass(frozen=True)
class FFLVInequality:
    support: tuple  # tuple of Root along one Dyck path
    rhs: int

    def to_dict(self):
        return {"support": [a.to_dict() for a in self.support], "rhs": self.rhs}


def _steps(alpha, n):
    """Grid neighbours reachable from alpha by one right / down move."""
    i, j = alpha.i, alpha.j
    out = []
    if not alpha.barred:
        if j < n:
            out.append(Root(i, j + 1, False))
        elif i <= n - 1:
            out.append(Root(i, n - 1, True))
    elif j - 1 >= i:
        out.append(Root(i, j - 1, True))
    if i + 1 <= j:
        out.append(Root(i + 1, j, alpha.barred))
    return out


def _dyck_paths(n):
    paths = []

    def extend(path):
        last = path[-1]
        if last.i == last.j:
            paths.append(tuple(path))
        for nxt in _steps(last, n):
            extend(path + [nxt])

    for i in range(1, n + 1):
        extend([Root(i, i, False)])
    return tuple(sorted(paths, key=lambda p: tuple(root_key(a, n) for a in p)))


def dyck_paths(n):
    """All symplectic Dyck paths, lexicographically ordered.

    A path starts at a simple root alpha_{i,i}, moves right/down through the
    root triangle, and ends at a diagonal root (alpha_{j,j} or alpha_{j,jbar});
    every diagonal prefix is itself a path.
    """
    return list(_dyck_paths(n))


@lru_cache(maxsize=_CACHE_SIZE)
def _inequality_index(n, m):
    """(inequalities, right-hand sides, stored positive root -> indices of inequalities on it)."""
    check_weight(n, m)
    ineqs = []
    at = {alpha: [] for alpha in positive_roots(n)}
    for k, path in enumerate(_dyck_paths(n)):
        i, end = path[0].i, path[-1]
        rhs = sum(m[i - 1 : end.j]) if not end.barred else sum(m[i - 1 :])
        ineqs.append(FFLVInequality(path, rhs))
        for alpha in path:
            at[alpha].append(k)
    return tuple(ineqs), tuple(q.rhs for q in ineqs), {alpha: tuple(ks) for alpha, ks in at.items()}


def fflv_inequalities(n, m):
    """Defining inequalities of P(lambda) for the m-weight vector, one per Dyck path."""
    return list(_inequality_index(n, tuple(m))[0])


def contains(n, m, p):
    """True iff the multi-exponent p lies in P(lambda), by the inequalities themselves."""
    _, rhs, at = _inequality_index(n, tuple(m))
    room = list(rhs)
    for alpha, exp in p.items():
        if exp < 0:
            return False
        ks = at.get(alpha)
        if ks is None:
            raise ValueError(f"root {alpha} out of range for n={n}, or a barred alpha_{{i,n}}")
        for k in ks:
            room[k] -= exp
    return all(r >= 0 for r in room)


def _room_plan(n, m):
    """Per root, in reading order: (source slot, source slot, least end value).

    Slots 0..n^2-1 hold the path maxima W of the roots, slots n^2 + i - 1
    the start value S(i) = m_1 + ... + m_{i-1} of row i.  The sources of a
    root are its predecessors under ``_steps`` and, at alpha_{i,i}, the start
    of row i (a slot may repeat).  The least end value is the minimum of
    E(delta) over the diagonal roots delta reachable from the root.
    """
    roots = tuple(positive_roots(n))
    pos = {alpha: k for k, alpha in enumerate(roots)}
    cum = [sum(m[:k]) for k in range(n + 1)]
    sources = [[] for _ in roots]
    for k, alpha in enumerate(roots):
        if alpha.i == alpha.j and not alpha.barred:
            sources[k].append(len(roots) + alpha.i - 1)
        for beta in _steps(alpha, n):
            sources[pos[beta]].append(k)
    least = [0] * len(roots)
    for k in range(len(roots) - 1, -1, -1):
        alpha = roots[k]
        ends = [least[pos[beta]] for beta in _steps(alpha, n)]
        if alpha.i == alpha.j:
            ends.append(cum[n] if alpha.barred else cum[alpha.j])
        least[k] = min(ends)
    starts = tuple(cum[:n])
    plan = tuple((src[0], src[-1], low) for src, low in zip(sources, least))
    return roots, plan, starts


def lattice_points(n, m):
    """All integral points of P(lambda), lexicographic in the root reading order.

    Refused with ValueError above liealg.ENUMERATION_LIMIT points.  The room
    of each root comes from the path-maximum DP described in the module
    docstring, one max and one subtraction per search node.
    """
    check_enumeration_size(n, m)
    roots, plan, starts = _room_plan(n, tuple(m))
    size = len(roots)
    best = [0] * size + list(starts)
    exps = [0] * size
    out = []

    def assign(pos):
        if pos == size:
            out.append({alpha: e for alpha, e in zip(roots, exps) if e})
            return
        a, b, low = plan[pos]
        base = max(best[a], best[b])
        for e in range(low - base + 1):
            exps[pos] = e
            best[pos] = base + e
            assign(pos + 1)
        exps[pos] = 0

    assign(0)
    return out


def multiexp_to_json(n, p):
    items = sorted(((root_key(a, n), a, e) for a, e in p.items() if e), key=lambda t: t[0])
    return [{"root": a.to_dict(), "exp": e} for _, a, e in items]


def multiexp_from_json(n, data):
    """Parse a list of ``{"root": root, "exp": int}``; any other shape raises ValueError."""
    shape = 'a multi-exponent is a list of {"root": {"i": int, "j": int, "barred": bool}, "exp": int}'
    if not isinstance(data, list):
        raise ValueError(f"{shape}, got {type(data).__name__}")
    p = {}
    for item in data:
        if not isinstance(item, dict) or "root" not in item or type(item.get("exp")) is not int:
            raise ValueError(f"{shape}, got the item {item!r}")
        alpha, exp = root_from_dict(n, item["root"]), item["exp"]
        if exp < 0:
            raise ValueError("exponents must be nonnegative")
        if exp:
            p[alpha] = p.get(alpha, 0) + exp
    return p
