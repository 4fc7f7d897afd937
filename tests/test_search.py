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
"""

from functools import lru_cache

import pytest

import _naive
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
    domain = bound if bound is not None else range(p)
    expected = _naive.search_hits(p, n, name, lam, domain, nontrivial)
    assert [(_naive.from_matrix(a), _naive.from_matrix(b)) for a, b in hits] == expected


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
