"""The search's linear solver against brute force, under generated systems.

For a fixed ``a`` the search lists every ``b`` with entries in its domain
and ``L(b) == 0`` mod p, where ``L`` is an n*n x n*n matrix given by its
rows.  ``pairs._kernel`` does that by elimination; here every ``b`` in
``domain**(n*n)`` is tried with plain loops instead.
The systems are random, zero, invertible or of rank 1, over F_2, F_3, F_5
and F_7 for n = 1..3, with the full domain or a bounded one (bounds
without 0 included, where ``b = 0`` is not a solution).  The domain is
ascending, as ``SearchSpec.domain()`` gives it.  With a lower bound
``low`` drawn from ``domain**(n*n)``, at times a solution itself, the
solver lists only the solutions ``b >= low``.  The examples are
derandomized, so every run checks the same systems.

The search's arithmetic, ``pairs._unrolled(n)``, is straight-line
code generated per ``n``; here each is checked against the naive
``matmul`` of ``_naive`` on every pair of matrices at n = 1 and n = 2
over F_3 and on a seeded sample at n = 3 over F_5 and F_7, and the
Sylvester rows against their entry formula.
"""

import itertools
import operator
import random

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import _naive
from drazinkit import CrossCube, ParseError, SearchSpec
from drazinkit.pairs import _kernel, _unrolled

SETTINGS = settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _brute_force(rows, domain, p):
    size = len(rows[0])
    solutions = []
    for b in itertools.product(sorted(domain), repeat=size):
        if all(sum(map(operator.mul, row, b)) % p == 0 for row in rows):
            solutions.append(b)
    return solutions


def _matmul(x, y, p):
    size = len(x)
    return [
        [sum(x[i][k] * y[k][j] for k in range(size)) % p for j in range(size)]
        for i in range(size)
    ]


@st.composite
def _systems(draw):
    """``(rows, domain, p, low)``: n*n rows of length n*n and a vector of
    ``domain``, at times a solution."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 3))
    size = n * n
    entry = st.integers(0, p - 1)
    kind = draw(st.sampled_from(("random", "zero", "invertible", "rank-1")))
    if kind == "random":
        rows = [[draw(entry) for _ in range(size)] for _ in range(size)]
    elif kind == "zero":
        rows = [[0] * size for _ in range(size)]
    elif kind == "invertible":
        unit = st.integers(1, p - 1)
        lower = [
            [draw(entry) if j < i else int(i == j) for j in range(size)]
            for i in range(size)
        ]
        upper = [
            [draw(unit) if j == i else draw(entry) if j > i else 0 for j in range(size)]
            for i in range(size)
        ]
        rows = _matmul(lower, upper, p)
        perm = draw(st.permutations(range(size)))
        rows = [rows[i] for i in perm]
    else:
        nonzero = st.lists(entry, min_size=size, max_size=size).filter(any)
        u, v = draw(nonzero), draw(nonzero)
        rows = [[ui * vj % p for vj in v] for ui in u]
    # The brute force tries d**(n*n) vectors: at n = 3, d <= 2.
    full = draw(st.booleans()) and (n < 3 or p == 2)
    if full:
        domain = tuple(range(p))
    else:
        picked = st.sets(entry, min_size=1, max_size=p if n < 3 else 2)
        domain = tuple(sorted(draw(picked)))
    rows = [tuple(row) for row in rows]
    solutions = _brute_force(rows, domain, p)
    if solutions and draw(st.booleans()):
        low = draw(st.sampled_from(solutions))
    else:
        low = tuple(draw(st.sampled_from(domain)) for _ in range(size))
    return rows, domain, p, low


@SETTINGS
@given(_systems())
@example(([(0,) * 4] * 4, (1, 2), 3, (1, 1, 1, 1)))
@example(([(0,) * 4] * 4, (1, 2), 3, (2, 2, 2, 2)))
@example(([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], (1, 2), 3, (1, 1, 1, 1)))
@example(([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], (0, 1), 3, (1, 1, 1, 1)))
@example(([(1, 1, 1, 1)] * 4, (1, 2), 3, (2, 2, 2, 2)))
@example(([(1, 1, 1, 1)] * 4, (0, 1, 2), 3, (0, 0, 0, 0)))
def test_kernel_equals_brute_force(system):
    rows, domain, p, low = system
    solutions = _brute_force(rows, domain, p)
    assert _kernel(rows, domain, p) == solutions
    assert _kernel(rows, domain, p, low) == [b for b in solutions if b >= low]


def _rows(flat, n):
    return [list(flat[i * n : (i + 1) * n]) for i in range(n)]


def _flat(rows):
    return tuple(v for row in rows for v in row)


def _matrix_pairs(p, n):
    """Every pair of n x n matrices over F_p at n <= 2; 1,800 seeded pairs
    at n = 3, some of them with a zero or a repeated factor."""
    if n < 3:
        flats = list(itertools.product(range(p), repeat=n * n))
        return list(itertools.product(flats, repeat=2))
    rng = random.Random(p)
    flats = [tuple(rng.randrange(p) for _ in range(n * n)) for _ in range(1500)]
    flats[::7] = [(0,) * (n * n)] * len(flats[::7])
    return list(zip(flats, flats[1:] + flats[:1])) + [(x, x) for x in flats[::5]]


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 3), (7, 3)])
def test_products_equal_naive_matmul(p, n):
    # x*y against itself (equal in every entry, so no early exit) and
    # against y*x and the product of the previous pair (unequal at any entry).
    unrolled = _unrolled(n)
    cases = _matrix_pairs(p, n)
    products = [_flat(_naive.matmul(_rows(x, n), _rows(y, n), p)) for x, y in cases]
    for k, ((x, y), xy) in enumerate(zip(cases, products)):
        assert unrolled.flat_mul(x, y, p) == xy
        assert unrolled.product_nonzero(x, y, p) is any(xy)
        assert unrolled.products_equal(x, y, x, y, p) is True
        yx = _flat(_naive.matmul(_rows(y, n), _rows(x, n), p))
        assert unrolled.products_equal(x, y, y, x, p) is (xy == yx)
        u, v = cases[k - 1]
        assert unrolled.products_equal(x, y, u, v, p) is (xy == products[k - 1])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [5, 7])
def test_sylvester_rows_equal_their_entry_formula(n, p):
    # Entry (i*n + j, r*n + c) is x[i][r]*[c == j] - mu*[i == r]*y[c][j].
    rng = random.Random(10 * p + n)
    span = range(n)
    for mu in range(p):
        for _ in range(20):
            x = tuple(rng.randrange(p) for _ in range(n * n))
            y = tuple(rng.randrange(p) for _ in range(n * n))
            expected = [
                tuple(
                    (x[i * n + r] * (c == j) - mu * (i == r) * y[c * n + j]) % p
                    for r in span
                    for c in span
                )
                for i in span
                for j in span
            ]
            assert _unrolled(n).sylvester_rows(x, y, mu, p) == expected


def test_unrolled_exists_for_the_search_dimensions_alone():
    accepted = []
    for n in range(-1, 6):
        try:
            SearchSpec(3, n, CrossCube())
        except ParseError:
            with pytest.raises(ParseError):
                _unrolled(n)
        else:
            accepted.append(n)
            assert _unrolled(n) is _unrolled(n)
    assert accepted == [1, 2, 3]
