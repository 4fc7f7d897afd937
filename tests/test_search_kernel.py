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
"""

import itertools
import operator

from hypothesis import HealthCheck, example, given, settings, strategies as st

from drazinkit.pairs import _kernel

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
