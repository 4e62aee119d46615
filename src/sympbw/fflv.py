"""Symplectic Dyck paths, the FFLV polytope, and its lattice points.

A multi-exponent is a dict mapping Root -> nonnegative int (zero entries may
be omitted); it collects the exponents of a PBW monomial prod f_alpha^{p_alpha}.
The polytope P(lambda) is cut out by one inequality per symplectic Dyck path:
the exponents along the path sum to at most m_i + ... + m_j (path from row i
to an unbarred diagonal end alpha_{j,j}) or m_i + ... + m_n (barred diagonal
end alpha_{j,jbar}).
"""

from dataclasses import dataclass
from functools import lru_cache

from .liealg import Root, check_enumeration_size, jpos, positive_roots, root_from_dict, root_key


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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _inequality_index(n, m):
    """(inequalities, right-hand sides, stored positive root -> indices of inequalities on it)."""
    if len(m) != n or any(x < 0 for x in m):
        raise ValueError(f"m must be a length-{n} vector of nonnegative integers")
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
    """True iff the multi-exponent p lies in P(lambda)."""
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


def lattice_points(n, m):
    """All integral points of P(lambda), lexicographic in the root reading order.

    Refused with ValueError above liealg.ENUMERATION_LIMIT points.
    """
    check_enumeration_size(n, m)
    roots = positive_roots(n)
    _, rhs, at = _inequality_index(n, tuple(m))
    ineqs_at = [at[alpha] for alpha in roots]
    room = list(rhs)
    out = []
    exps = [0] * len(roots)

    def assign(pos):
        if pos == len(roots):
            out.append({alpha: e for alpha, e in zip(roots, exps) if e})
            return
        top = min(room[k] for k in ineqs_at[pos])
        for e in range(top + 1):
            exps[pos] = e
            for k in ineqs_at[pos]:
                room[k] -= e
            assign(pos + 1)
            for k in ineqs_at[pos]:
                room[k] += e
        exps[pos] = 0

    assign(0)
    return out


def multiexp_to_json(n, p):
    items = sorted(((root_key(a, n), a, e) for a, e in p.items() if e), key=lambda t: t[0])
    return [{"root": a.to_dict(), "exp": e} for _, a, e in items]


def multiexp_from_json(n, data):
    p = {}
    for item in data:
        alpha = root_from_dict(n, item["root"])
        exp = int(item["exp"])
        if exp < 0:
            raise ValueError("exponents must be nonnegative")
        if exp:
            p[alpha] = p.get(alpha, 0) + exp
    return p
