"""The exhaustive search against a brute-force oracle, and its symmetries.

The oracle (``_naive.search_hits``) tests every pair with plain int lists.
The symmetry tests check facts of the three relations on search output,
so they also reach spaces too large for the oracle:

* transposing ``a**3*b == b*a`` gives ``b.T*(a.T)**3 == a.T*b.T``, so the
  swapped-cube hits are the re-sorted transposes of the cross-cube hits;
* both cube relations are symmetric in ``a`` and ``b``;
* ``a*b == lam*(b*a)`` says ``b*a == lam**-1*(a*b)``, so swapping ``a``
  and ``b`` maps the lambda hits onto the ``lam**-1`` hits.

Under each relation ``a*b == 0`` holds exactly when ``b*a == 0`` does, so
the nontrivial filter keeps all three facts.

The search lists hits for one ``a`` per orbit of a group of symmetries
(``pairs._symmetries``); each of its elements must keep the domain and
map every brute-force hit to a hit, and the units that keep a domain
(``pairs._domain_units``) must be those found by trying every unit.
"""

import itertools
from functools import lru_cache

import pytest

import _naive
import drazinkit.pairs as pairs
from drazinkit import (
    CrossCube,
    LambdaCommute,
    PrimeField,
    SearchSpec,
    SwappedCube,
    exhaustive_search,
)

_RELATIONS = ("lambda-commute", "cross-cube", "swapped-cube")


def _relation(p, name, lam):
    if name == "lambda-commute":
        return LambdaCommute(PrimeField(p).scalar(lam))
    return CrossCube() if name == "cross-cube" else SwappedCube()


@lru_cache(maxsize=None)
def _search(p, n, name, lam=None, bound=None, nontrivial=True):
    spec = SearchSpec(p, n, _relation(p, name, lam), bound, nontrivial)
    return tuple(exhaustive_search(spec))


@lru_cache(maxsize=None)
def _brute_force(p, n, name, lam=None, bound=None, nontrivial=True):
    domain = bound if bound is not None else range(p)
    return _naive.search_hits(p, n, name, lam, domain, nontrivial)


def _flat(m):
    return tuple(m.entry(i, j).value for i in range(m.rows) for j in range(m.cols))


def _keys(hits):
    return [(_flat(a), _flat(b)) for a, b in hits]


def _differential_specs():
    for p in (2, 3):
        for n in (1, 2):
            for name in _RELATIONS:
                lams = range(1, p) if name == "lambda-commute" else (None,)
                for lam in lams:
                    for nontrivial in (False, True):
                        yield p, n, name, lam, None, nontrivial
    for name in _RELATIONS:
        lam = 2 if name == "lambda-commute" else None
        for n in (1, 2):
            for bound in ((0, 2), (1, 2)):
                yield 3, n, name, lam, bound, True
        yield 5, 2, name, lam, None, True
        yield 3, 3, name, lam, (0, 1), True
    # Lambda-commute shares one kernel per line of multiples of a; under
    # these bounds some multiples of a leave the domain.
    yield 5, 2, "lambda-commute", 2, None, False
    for bound in ((1, 2, 4), (0, 1, 4)):
        for nontrivial in (False, True):
            yield 5, 2, "lambda-commute", 2, bound, nontrivial


def _spec_id(spec):
    p, n, name, lam, bound, nontrivial = spec
    parts = [f"p{p}", f"n{n}", name]
    if name == "lambda-commute":
        parts.append(f"lam{lam}")
    if bound is not None:
        parts.append("bound" + "".join(map(str, bound)))
    return "-".join(parts + ["nontrivial" if nontrivial else "all"])


_DIFFERENTIAL_SPECS = list(_differential_specs())


@pytest.mark.parametrize(
    "p,n,name,lam,bound,nontrivial",
    _DIFFERENTIAL_SPECS,
    ids=[_spec_id(spec) for spec in _DIFFERENTIAL_SPECS],
)
def test_search_equals_brute_force(p, n, name, lam, bound, nontrivial):
    hits = _search(p, n, name, lam, bound, nontrivial)
    expected = _brute_force(p, n, name, lam, bound, nontrivial)
    assert [(_naive.from_matrix(a), _naive.from_matrix(b)) for a, b in hits] == expected


# (p, n, relation, lambda, bound, nontrivial, the group's order).  The order
# is n! * |M|**(n - 1) * |scales| for the units M that keep the domain:
# the full range at p = 5 keeps M = {1, 2, 3, 4}, so 2 * 4 * 4 = 32 under
# lambda-commute and 2 * 4 * 2 = 16 with the scales +-1 of a cube
# relation; 2*{0, 1} is not {0, 1}, so at p = 3, n = 3 only the 6
# permutations remain; -{0, 1, 4} == {0, 1, 4} at p = 5, so M = {1, 4};
# and at p = 3 every M is {1, 2} (also for the bound 1,2 without 0), so 2 *
# 2 * 2 = 8.
_GROUP_SPACES = [
    (5, 2, "lambda-commute", 2, None, True, 32),
    (5, 2, "cross-cube", None, None, True, 16),
    (3, 3, "cross-cube", None, (0, 1), True, 6),
    (3, 3, "lambda-commute", 2, (0, 1), True, 6),
    (5, 2, "lambda-commute", 2, (0, 1, 4), False, 8),
    (3, 2, "cross-cube", None, None, False, 8),
    (3, 2, "swapped-cube", None, None, False, 8),
    (3, 2, "swapped-cube", None, (1, 2), True, 8),
    (3, 2, "lambda-commute", 1, None, False, 8),
]


def _act(x, conjugation, scale, p):
    return tuple(x[src] * mul * scale % p for src, mul in conjugation)


@pytest.mark.parametrize(
    "p,n,name,lam,bound,nontrivial,order",
    _GROUP_SPACES,
    ids=[_spec_id(space[:6]) for space in _GROUP_SPACES],
)
def test_search_group_keeps_domain_and_hits(p, n, name, lam, bound, nontrivial, order):
    spec = SearchSpec(p, n, _relation(p, name, lam), bound, nontrivial)
    conjugations, scales = pairs._symmetries(spec)
    assert len(conjugations) * len(scales) == order
    domain = bound if bound is not None else range(p)
    assert len(_naive.search_group(p, n, name, domain)) == order
    matrices = list(itertools.product(sorted(domain), repeat=n * n))
    hits = {
        (tuple(v for row in a for v in row), tuple(v for row in b for v in row))
        for a, b in _brute_force(p, n, name, lam, bound, nontrivial)
    }
    assert hits
    for conjugation in conjugations:
        for scale in scales:
            assert sorted(_act(m, conjugation, scale, p) for m in matrices) == matrices
            for a, b in hits:
                image = (_act(a, conjugation, scale, p), _act(b, conjugation, 1, p))
                assert image in hits


@pytest.mark.parametrize(
    "p,n,bound,count", [(3, 2, None, 340), (5, 2, None, 1384), (3, 3, (0, 1), 1141)]
)
def test_swapped_cube_hits_are_transposed_cross_cube_hits(p, n, bound, count):
    cross = _search(p, n, "cross-cube", bound=bound)
    swapped = _search(p, n, "swapped-cube", bound=bound)
    transposed = sorted(
        ((a.transpose(), b.transpose()) for a, b in cross),
        key=lambda pair: (_flat(pair[0]), _flat(pair[1])),
    )
    assert len(swapped) == count
    assert list(swapped) == transposed


_SWAP_SPECS = [
    pytest.param(3, 2, "cross-cube", None, id="3"),
    pytest.param(5, 2, "cross-cube", None, id="5"),
    pytest.param(3, 2, "swapped-cube", None, id="3-swapped-cube"),
    pytest.param(5, 2, "swapped-cube", None, id="5-swapped-cube"),
] + [
    pytest.param(3, 3, name, bound, id=f"3-n3-{name}-bound{bound[0]}{bound[1]}")
    for name in ("cross-cube", "swapped-cube")
    for bound in ((0, 1), (1, 2))
]


@pytest.mark.parametrize("p,n,name,bound", _SWAP_SPECS)
def test_cross_cube_hits_closed_under_swap(p, n, name, bound):
    # The search checks each unordered pair once and emits (a, b) and
    # (b, a) from it, so a diagonal hit such as (I, I) must come out once.
    keys = _keys(_search(p, n, name, bound=bound))
    assert sorted((kb, ka) for ka, kb in keys) == keys
    assert len(set(keys)) == len(keys)
    assert any(ka == kb for ka, kb in keys)
    eye = tuple(int(i == j) for i in range(n) for j in range(n))
    assert keys.count((eye, eye)) == int(bound is None or {0, 1} <= set(bound))


@pytest.mark.parametrize("p,lam", [(3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (5, 4)])
def test_swap_maps_lambda_hits_onto_inverse_lambda_hits(p, lam):
    inverse = pow(lam, p - 2, p)
    keys = _keys(_search(p, 2, "lambda-commute", lam))
    inverse_keys = _keys(_search(p, 2, "lambda-commute", inverse))
    assert sorted((kb, ka) for ka, kb in keys) == inverse_keys


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_domain_units_equal_brute_force(p):
    # Every nonempty domain mod p: the units m with m*D == D, tried one by one.
    for size in range(1, p + 1):
        for domain in itertools.combinations(range(p), size):
            units = [m for m in range(1, p) if {m * v % p for v in domain} == set(domain)]
            assert pairs._domain_units(domain, p) == (units if any(domain) else [1])
