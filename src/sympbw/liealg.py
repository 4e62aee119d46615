"""Root system and root vectors for the symplectic Lie algebra sp(2n).

Conventions
-----------
Indices 1..2n label the ordered alphabet 1 < 2 < ... < n < nbar < ... < 1bar,
with ``bar(i) = 2n + 1 - i``.  Positive roots of type C_n come in two shapes,

    alpha_{i,j}    = eps_i - eps_{j+1}   (1 <= i <= j < n),
    alpha_{i,jbar} = eps_i + eps_j       (1 <= i <= j <= n),

and alpha_{i,n} = alpha_{i,nbar} = eps_i + eps_n is a single root (stored
unbarred).  Matrices are plain lists of lists of ints; rows and columns are
0-indexed in storage, 1-indexed in formulas.  Every root vector f_alpha is
strictly lower triangular, so ``verify`` never eliminates: the samplers
read minors by cofactor expansion, and the isotropy check tests span
membership by forward substitution, both in exact ``int``.
"""

from typing import NamedTuple


def bar(r, n):
    """Barred partner of a letter: bar(i) = 2n + 1 - i (an involution)."""
    return 2 * n + 1 - r


class Root(NamedTuple):
    """Positive root alpha_{i,j} (barred=False) or alpha_{i,jbar} (barred=True).

    Always 1 <= i <= j <= n, and the identified root alpha_{i,n} =
    alpha_{i,nbar} is stored with barred=False.  A tuple, so hashing and
    equality run in C; a Root compares equal to the plain tuple (i, j, barred).
    """

    i: int
    j: int
    barred: bool = False

    def to_dict(self):
        return {"i": self.i, "j": self.j, "barred": self.barred}


def make_root(n, i, j, barred=False):
    """Validated constructor; normalizes alpha_{i,nbar} to its unbarred form."""
    if not (1 <= i <= j <= n):
        raise ValueError(f"root indices out of range: i={i}, j={j}, n={n}")
    if barred and j == n:
        barred = False
    return Root(i, j, barred)


def root_from_dict(n, data):
    """Parse ``{"i": int, "j": int, "barred": bool}``; any other shape raises ValueError."""
    if not isinstance(data, dict) or [type(data.get(k)) for k in ("i", "j", "barred")] != [int, int, bool]:
        raise ValueError(f'a root is {{"i": int, "j": int, "barred": bool}}, got {data!r}')
    return make_root(n, data["i"], data["j"], data["barred"])


def jpos(alpha, n):
    """Column position of alpha in the alphabet: j for alpha_{i,j}, bar(j) for alpha_{i,jbar}."""
    return alpha.j if not alpha.barred else 2 * n - alpha.j


def root_key(alpha, n):
    """Sort key realizing the row-major reading order of the root triangle."""
    return (alpha.i, jpos(alpha, n))


def positive_roots(n):
    """All n^2 positive roots, row by row: alpha_{i,i}, ..., alpha_{i,n}, alpha_{i,(n-1)bar}, ..., alpha_{i,ibar}."""
    roots = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            roots.append(Root(i, j, False))
        for j in range(n - 1, i - 1, -1):
            roots.append(Root(i, j, True))
    return roots


def root_vector_weight(n, alpha):
    """Weight of the root vector f_alpha under the adjoint action, i.e. -alpha.

    Returned as an integer vector of eps-coordinates (length n).
    """
    wt = [0] * n
    if not alpha.barred and alpha.j < n:
        wt[alpha.j] += 1       # eps_{j+1}
        wt[alpha.i - 1] -= 1   # -eps_i
    else:
        wt[alpha.i - 1] -= 1
        wt[alpha.j - 1] -= 1
    return tuple(wt)


def root_vector_matrix(n, alpha):
    """Matrix of f_alpha in the defining representation (2n x 2n, integer entries).

    With E(a, b) the unit matrix (1-indexed):

        f_{i,ibar}             -> E(bar(i), i)          (includes f_{n,n})
        f_{i,j}, j < n         -> E(j+1, i) - E(bar(i), bar(j+1))
        f_{i,jbar}, i < j      -> E(bar(j), i) + E(bar(i), j)   (includes f_{i,n})
    """
    size = 2 * n
    mat = [[0] * size for _ in range(size)]

    def put(a, b, val):
        mat[a - 1][b - 1] += val

    i, j = alpha.i, alpha.j
    if i == j and (alpha.barred or j == n):
        put(bar(i, n), i, 1)
    elif not alpha.barred and j < n:
        put(j + 1, i, 1)
        put(bar(i, n), bar(j + 1, n), -1)
    else:
        put(bar(j, n), i, 1)
        put(bar(i, n), j, 1)
    return mat


def symplectic_form(n):
    """Antidiagonal symplectic form: Psi[r][bar(r)] = +1 for r <= n, -1 for r > n."""
    size = 2 * n
    psi = [[0] * size for _ in range(size)]
    for r in range(1, size + 1):
        psi[r - 1][bar(r, n) - 1] = 1 if r <= n else -1
    return psi


def check_weight(n, m):
    """Raise ValueError unless m is a length-n vector of nonnegative ints."""
    if len(m) != n or any(type(x) is not int or x < 0 for x in m):
        raise ValueError(f"m must be a length-{n} vector of nonnegative integers")


def weyl_dimension(n, m):
    """Dimension of the irreducible sp(2n)-module with highest weight sum_k m_k omega_k.

    Weyl dimension formula for type C_n with lambda_i = m_i + ... + m_n:
    with l_i = lambda_i + n + 1 - i and r_i = n + 1 - i,

        dim = prod_{i<j} (l_i - l_j)(l_i + l_j) / ((r_i - r_j)(r_i + r_j))
              * prod_i l_i / r_i.
    """
    check_weight(n, m)
    lam = [sum(m[i:]) for i in range(n)]
    l = [lam[i] + n - i for i in range(n)]
    r = [n - i for i in range(n)]
    num = den = 1
    for i in range(n):
        num *= l[i]
        den *= r[i]
        for j in range(i + 1, n):
            num *= (l[i] - l[j]) * (l[i] + l[j])
            den *= (r[i] - r[j]) * (r[i] + r[j])
    dim, rem = divmod(num, den)
    assert rem == 0
    return dim


# Largest dim V(lambda) that lattice_points and enumerate_tableaux list.  At
# this size the counts suite takes under 5 s and the roundtrip suite about
# 15 s at n = 3, 4, 5 (Python 3.11.7, one core of a 2-CPU machine); every
# answer is held in memory.
ENUMERATION_LIMIT = 100_000


def check_enumeration_size(n, m):
    """Raise ValueError when V(lambda) is too large to enumerate."""
    dim = weyl_dimension(n, m)
    if dim > ENUMERATION_LIMIT:
        raise ValueError(
            f"dim V(lambda) = {dim} exceeds the enumeration limit of {ENUMERATION_LIMIT}"
        )


# --- exact matrix helpers (int entries) ---


def identity_matrix(size):
    return [[1 if a == b else 0 for b in range(size)] for a in range(size)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for p in range(rows):
        ap = a[p]
        for q in range(inner):
            coeff = ap[q]
            if coeff == 0:
                continue
            bq = b[q]
            op = out[p]
            for r in range(cols):
                op[r] += coeff * bq[r]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]
