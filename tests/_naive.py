"""Independent naive oracles for the test suite.

Everything here is deliberately written against plain ``fractions.Fraction``
and ``int`` lists, with no imports from the package's kernels, so that the
library's matrix arithmetic is cross-checked by a second implementation.
"""

import itertools
from fractions import Fraction
from typing import List, Optional, Sequence, Union

Num = Union[Fraction, int]
Rows = List[List[Num]]


def from_matrix(m) -> Rows:
    """Convert a package Matrix to naive rows (Fraction over Q, int mod p)."""
    if m.field.characteristic == 0:
        return [[Fraction(str(x)) for x in row] for row in m.to_rows()]
    return [[int(str(x)) for x in row] for row in m.to_rows()]


def eye(n: int) -> Rows:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def eye_mod(n: int) -> Rows:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(x: Rows, y: Rows, p: Optional[int] = None) -> Rows:
    rows, inner, cols = len(x), len(y), len(y[0])
    out = []
    for i in range(rows):
        acc = []
        for j in range(cols):
            s: Num = 0
            for k in range(inner):
                s = s + x[i][k] * y[k][j]
            acc.append(s % p if p is not None else s)
        out.append(acc)
    return out


def matpow(x: Rows, e: int, p: Optional[int] = None) -> Rows:
    n = len(x)
    result = eye_mod(n) if p is not None else eye(n)
    for _ in range(e):
        result = matmul(result, x, p)
    return result


def add(x: Rows, y: Rows, p: Optional[int] = None) -> Rows:
    return [
        [(a + b) % p if p is not None else a + b for a, b in zip(r1, r2)]
        for r1, r2 in zip(x, y)
    ]


def sub(x: Rows, y: Rows, p: Optional[int] = None) -> Rows:
    return [
        [(a - b) % p if p is not None else a - b for a, b in zip(r1, r2)]
        for r1, r2 in zip(x, y)
    ]


def scale(s: Num, x: Rows, p: Optional[int] = None) -> Rows:
    return [[(s * v) % p if p is not None else s * v for v in row] for row in x]


def eq(x: Rows, y: Rows) -> bool:
    return x == y


def _inv_mod(v: int, p: int) -> int:
    return pow(v, p - 2, p)


def rank(x: Rows, p: Optional[int] = None) -> int:
    """Row-reduction rank; fresh implementation, column-major pivoting."""
    m = [list(row) for row in x]
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] % p if p is not None else m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = _inv_mod(m[r][c] % p, p) if p is not None else Fraction(1) / m[r][c]
        m[r] = [(v * inv) % p if p is not None else v * inv for v in m[r]]
        for i in range(rows):
            if i != r:
                f = m[i][c] % p if p is not None else m[i][c]
                if f:
                    m[i] = [
                        (u - f * v) % p if p is not None else u - f * v
                        for u, v in zip(m[i], m[r])
                    ]
        r += 1
        if r == rows:
            break
    return r


def rref(x: Rows, order: str, p: Optional[int] = None):
    """Gauss-Jordan on plain values, with the package's pivot rule
    (``"top-down"``) or a second one the package does not have
    (``"bottom-up"``).

    Columns left to right; in each, the pivot is the first nonzero entry
    among the rows not yet used as pivots, scanning top to bottom for
    ``order == "top-down"`` and bottom to top for ``"bottom-up"``.  The
    pivot row is swapped up, scaled to a leading 1 and subtracted from
    every other row; the same operations on an identity give the
    transform.  Returns ``(reduced, transform, pivot_cols)``.
    """
    n = len(x)
    if p is None:
        m = [[Fraction(v) for v in row] for row in x]
        t = eye(n)
    else:
        m = [[v % p for v in row] for row in x]
        t = eye_mod(n)
    pivot_cols = []
    r = 0
    for c in range(len(m[0])):
        if r == n:
            break
        scan = range(r, n) if order == "top-down" else range(n - 1, r - 1, -1)
        pivot = next((i for i in scan if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        t[r], t[pivot] = t[pivot], t[r]
        inv = _inv_mod(m[r][c], p) if p is not None else 1 / m[r][c]
        m[r] = scale(inv, [m[r]], p)[0]
        t[r] = scale(inv, [t[r]], p)[0]
        for i in range(n):
            f = m[i][c]
            if i != r and f:
                m[i] = sub([m[i]], scale(f, [m[r]], p), p)[0]
                t[i] = sub([t[i]], scale(f, [t[r]], p), p)[0]
        pivot_cols.append(c)
        r += 1
    return m, t, pivot_cols


def inner_inverse(x: Rows, order: str, p: Optional[int] = None) -> Rows:
    """An inner inverse ``g`` of ``x`` (``x * g * x == x``) from :func:`rref`:
    row ``k`` of the transform at row ``pivot_cols[k]`` of a zero
    cols-by-rows matrix."""
    _, t, pivot_cols = rref(x, order, p)
    zero = 0 if p is not None else Fraction(0)
    g = [[zero] * len(x) for _ in x[0]]
    for row, c in zip(t, pivot_cols):
        g[c] = row
    return g


def _random_rows(rows: int, cols: int, rng, p: Optional[int]) -> Rows:
    if p is None:
        return [[Fraction(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(rows)]
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def drazin_from_inner_inverse(a: Rows, k: int, rng, p: Optional[int] = None) -> Rows:
    """``a**k * g2 * a**k`` for an inner inverse ``g2`` of ``m = a**(2k + 1)``
    that the package did not compute.

    ``g`` is the bottom-up :func:`inner_inverse` of ``m``, and ``g2 = g +
    (I - g*m)*y + z*(I - m*g)`` with ``y`` and ``z`` drawn from ``rng``: for
    any ``y`` and ``z``, ``m * g2 * m == m``.  At the Drazin index ``k`` the
    result is the Drazin inverse, whichever inner inverse was used
    (Campbell & Meyer, ch. 7).
    """
    n = len(a)
    ident = eye(n) if p is None else eye_mod(n)
    m = matpow(a, 2 * k + 1, p)
    g = inner_inverse(m, "bottom-up", p)
    y, z = _random_rows(n, n, rng, p), _random_rows(n, n, rng, p)
    g2 = add(
        add(g, matmul(sub(ident, matmul(g, m, p), p), y, p), p),
        matmul(z, sub(ident, matmul(m, g, p), p), p),
        p,
    )
    assert matmul(matmul(m, g2, p), m, p) == m
    ak = matpow(a, k, p)
    return matmul(matmul(ak, g2, p), ak, p)


def drazin_axioms_hold(a: Rows, d: Rows, k: int, p: Optional[int] = None) -> bool:
    """The three defining equations, checked with naive arithmetic only."""
    if matmul(a, d, p) != matmul(d, a, p):
        return False
    if matmul(matmul(d, a, p), d, p) != d:
        return False
    ak = matpow(a, k, p)
    if ak != matmul(matpow(a, k + 1, p), d, p):
        return False
    return True


def _products_agree(x: Rows, y: Rows, u: Rows, v: Rows, p: int, c: int = 1) -> bool:
    """Whether ``x*y == c*(u*v)`` mod p, compared entry by entry."""
    n = len(x)
    for i in range(n):
        for j in range(n):
            s = 0
            for k in range(n):
                s += x[i][k] * y[k][j] - c * u[i][k] * v[k][j]
            if s % p:
                return False
    return True


def search_hits(
    p: int,
    n: int,
    relation: str,
    lam: Optional[int],
    domain: Sequence[int],
    nontrivial: bool,
) -> List[tuple]:
    """Brute-force search: test every pair ``(a, b)`` with entries in ``domain``.

    ``relation`` is ``"lambda-commute"`` (with ``lam``), ``"cross-cube"``
    or ``"swapped-cube"``.  Hits come as ``(a_rows, b_rows)`` in
    lexicographic order of the row-major entries of ``a`` then ``b``.
    """
    if relation not in ("lambda-commute", "cross-cube", "swapped-cube"):
        raise ValueError(f"unknown relation {relation!r}")
    mats = []  # (matrix, its cube)
    for flat in itertools.product(sorted(set(domain)), repeat=n * n):
        m = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        mats.append((m, matpow(m, 3, p)))
    zero = [[0] * n for _ in range(n)]
    hits = []
    for a, a3 in mats:
        for b, b3 in mats:
            if relation == "lambda-commute":
                ok = _products_agree(a, b, b, a, p, lam)
            elif relation == "cross-cube":
                ok = _products_agree(a3, b, b, a, p) and _products_agree(b3, a, a, b, p)
            else:
                ok = _products_agree(a, b3, b, a, p) and _products_agree(b, a3, a, b, p)
            if ok and not (nontrivial and matmul(a, b, p) == zero):
                hits.append((a, b))
    return hits


def search_group(p: int, n: int, relation: str, domain: Sequence[int]) -> List[tuple]:
    """The symmetries the search walks ``a`` by, built from their definition.

    ``M`` is the units ``m`` with ``{m*v : v in domain} == domain``.  Each
    element is ``(c, s, s_inv)``, acting as ``(a, b) -> (c*s*a*s_inv,
    s*b*s_inv)``, for ``s = P*diag(1, u_2, ..., u_n)`` with ``P`` a
    permutation matrix and each ``u_i`` in ``M``; ``c`` is in ``M``, and
    under a cube relation also ``c*c == 1``.
    """
    values = sorted(set(domain))
    units = [m for m in range(1, p) if sorted(m * v % p for v in values) == values]
    scales = [c for c in units if relation == "lambda-commute" or c * c % p == 1]
    group = []
    for perm in itertools.permutations(range(n)):
        for tail in itertools.product(units, repeat=n - 1):
            diag = (1,) + tail
            # s sends basis vector j to diag[j] times basis vector perm[j].
            s = [[diag[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]
            s_inv = [
                [_inv_mod(diag[i], p) if perm[i] == j else 0 for j in range(n)]
                for i in range(n)
            ]
            group += [(c, s, s_inv) for c in scales]
    return group


def search_orbit_firsts(
    p: int, n: int, relation: str, domain: Sequence[int], nontrivial: bool
) -> List[tuple]:
    """The first ``a`` in row-major order of each orbit of
    :func:`search_group` on the matrices with entries in ``domain``, as
    row-major tuples; with ``nontrivial``, the orbit of ``a = 0`` is left
    out."""
    group = search_group(p, n, relation, domain)
    seen, firsts = set(), []
    for flat in itertools.product(sorted(set(domain)), repeat=n * n):
        if flat in seen or (nontrivial and not any(flat)):
            continue
        firsts.append(flat)
        a = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        for c, s, s_inv in group:
            image = scale(c, matmul(matmul(s, a, p), s_inv, p), p)
            seen.add(tuple(v for row in image for v in row))
    return firsts
