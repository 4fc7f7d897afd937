"""Matrix storage against the naive oracle, under generated matrices.

A :class:`Matrix` keeps integer rows over one positive denominator
(``_num``, ``_den``) in a canonical form.  Each operation is checked
against ``tests/_naive.py``, which works on plain ``Fraction`` and ``int``
lists, over Q, F_5 and F_7.  Every result must also be canonical: ``_den``
positive and coprime to the entries, 1 for a zero matrix and over F_p, so
that equal matrices built by different routes are equal and hash equal.

Rational entries are ``n/d`` with ``|n| <= 10**6`` and ``d <= 50``, with
zeros and small integers frequent so that sums cancel and ranks drop.
Shapes go up to 5x5.  The examples are derandomized, so every run checks
the same matrices.  Wire text, canonical or not (``"6/4"``, ``"-0"``),
must decode to the matrix and the raw values that ``Fraction(text)`` gives.
"""

import ast
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from drazinkit import FieldScalar, Matrix, PivotOrder, PrimeField, QQ

from _naive import (
    add,
    eye,
    eye_mod,
    from_matrix,
    inner_inverse,
    matmul,
    matpow,
    rank,
    rref,
    scale,
    sub,
)

SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FIELDS = (QQ, PrimeField(5), PrimeField(7))


def _entries(field):
    if field.characteristic:
        return st.one_of(st.just(0), st.integers(0, field.characteristic - 1))
    return st.one_of(
        st.just(Fraction(0)),
        st.integers(-2, 2).map(Fraction),
        st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 50)),
    )


@st.composite
def _matrices(draw, field, rows=None, cols=None):
    rows = draw(st.integers(1, 5)) if rows is None else rows
    cols = draw(st.integers(1, 5)) if cols is None else cols
    entries = _entries(field)
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@st.composite
def _case(draw, square=False, pair=False, inner=False):
    """``(field, p, x, y)``: naive rows ``x`` and, with ``pair``, ``y`` of
    the same shape, or with ``inner`` of a shape that ``x * y`` accepts."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    x = draw(_matrices(field, n, n if square else None))
    y = None
    if pair:
        y = draw(_matrices(field, len(x), len(x[0])))
    elif inner:
        y = draw(_matrices(field, len(x[0])))
    return field, field.characteristic or None, x, y


def _build(field, rows):
    return Matrix.from_rows(field, rows)


def _check(m, want, p):
    """``m`` is canonical and equals the naive rows ``want``."""
    num, den = m._num, m._den
    assert type(num) is tuple and all(type(row) is tuple for row in num)
    assert all(type(v) is int for row in num for v in row)
    assert type(den) is int and den > 0
    assert gcd(den, *[v for row in num for v in row]) == 1
    if p is not None:
        assert den == 1 and all(0 <= v < p for row in num for v in row)
    if m.is_zero():
        assert den == 1
    assert from_matrix(m) == want


def _normalized(rows, p):
    # The oracle's values in the form from_matrix gives.
    return [[v % p if p else Fraction(v) for v in row] for row in rows]


@SETTINGS
@given(_case(pair=True))
def test_entrywise_operations(case):
    field, p, x, y = case
    a, b = _build(field, x), _build(field, y)
    _check(a + b, add(x, y, p), p)
    _check(a - b, sub(x, y, p), p)
    _check(-a, _normalized(scale(-1, x, p), p), p)
    _check(a - a, _normalized(scale(0, x, p), p), p)
    # a scalar n/d, and an int
    s = Fraction(-3, 7) if p is None else 3
    scalar = QQ.scalar(s) if p is None else field.scalar(3)
    _check(scalar * a, _normalized(scale(s, x, p), p), p)
    _check(a * 6, _normalized(scale(6, x, p), p), p)


@SETTINGS
@given(_case(inner=True))
def test_product(case):
    field, p, x, y = case
    _check(_build(field, x) * _build(field, y), matmul(x, y, p), p)


@SETTINGS
@given(_case(square=True), st.integers(0, 4))
def test_power(case, e):
    field, p, x, _ = case
    _check(_build(field, x) ** e, _normalized(matpow(x, e, p), p), p)


@SETTINGS
@given(_case(), st.data())
def test_transpose_and_direct_sum(case, data):
    field, p, x, _ = case
    y = data.draw(_matrices(field))
    a, b = _build(field, x), _build(field, y)
    _check(a.transpose(), _normalized([list(c) for c in zip(*x)], p), p)
    zero = 0 if p else Fraction(0)
    w = len(x[0]) + len(y[0])
    want = [row + [zero] * len(y[0]) for row in x] + [[zero] * len(x[0]) + row for row in y]
    assert all(len(row) == w for row in want)
    _check(a.direct_sum(b), _normalized(want, p), p)


@SETTINGS
@given(_case())
def test_elimination(case):
    field, p, x, _ = case
    a = _build(field, x)
    assert a.rank() == rank(x, p)
    reduced, transform, pivots = rref(x, "top-down", p)
    res = a.rref()
    _check(res.reduced, reduced, p)
    _check(res.transform, transform, p)
    assert res.pivot_cols == tuple(pivots) and res.rank == len(pivots)
    # the inner inverse: row k of the transform at row pivots[k]
    g = inner_inverse(x, "top-down", p)
    _check(a.inner_inverse(), g, p)
    assert matmul(matmul(x, g, p), x, p) == _normalized(x, p)
    if len(pivots) == len(x) == len(x[0]):
        inv = a.inverse()
        _check(inv, transform, p)
        n = len(x)
        assert matmul(x, transform, p) == (eye_mod(n) if p else eye(n))


@SETTINGS
@given(_case())
def test_codec(case):
    field, p, x, _ = case
    a = _build(field, x)
    obj = a.to_json_obj()
    assert obj["entries"] == [[str(v if p else Fraction(v)) for v in row] for row in x]
    back = Matrix.from_json_obj(obj)
    _check(back, _normalized(x, p), p)
    assert back == a and hash(back) == hash(a)


def _texts(field):
    """Wire text of one entry; over Q also text that is not canonical:
    ``"6/4"``, ``"-0"``, ``"0/9"``, ``n/d`` with a common factor."""
    if field.characteristic:
        return st.integers(0, field.characteristic - 1).map(str)
    return st.one_of(
        st.sampled_from(["0", "-0", "0/9", "-0/3", "6/4", "-6/4", "1", "-1"]),
        st.integers(-(10**6), 10**6).map(str),
        st.builds("{}/{}".format, st.integers(-(10**6), 10**6), st.integers(1, 50)),
    )


@st.composite
def _wire(draw):
    """``(field, p, texts)``: wire rows of up to 5x5, so rows mix denominators."""
    field = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    texts = _texts(field)
    rows = [[draw(texts) for _ in range(cols)] for _ in range(rows)]
    return field, field.characteristic or None, rows


@SETTINGS
@given(_wire())
def test_decode_matches_fraction(case):
    """Wire text decodes straight to ints, to the matrix and the raw values
    that ``Fraction(text)`` gives, in the canonical form."""
    field, p, texts = case
    values = [[Fraction(t) if p is None else int(t) for t in row] for row in texts]
    obj = {
        "field": field.to_json_obj(), "rows": len(texts), "cols": len(texts[0]), "entries": texts
    }
    m = Matrix.from_json_obj(obj)
    _check(m, _normalized(values, p), p)
    built = Matrix.from_rows(field, values)
    assert m == built and hash(m) == hash(built)
    for row, vals in zip(texts, values):
        for t, v in zip(row, vals):
            raw = field.scalar(t).value
            assert raw == v and type(raw) is type(v)


@SETTINGS
@given(_case(pair=True))
def test_equal_values_by_different_routes(case):
    field, p, x, y = case
    a, b = _build(field, x), _build(field, y)
    routes = [
        (a + b) - b,
        a.transpose().transpose(),
        a * Matrix.identity(field, a.cols),
        Matrix.identity(field, a.rows) * a,
        Matrix.diagonal(field, [1] * a.rows) * a,
        Matrix.from_rows(field, a.to_rows()),
        Matrix.from_json_obj(a.to_json_obj()),
        -(-a),
    ]
    if p is None:
        routes.append(QQ.scalar(Fraction(1, 7)) * (a * 7))
        scales = range(2, a.rows + 2)
        inverses = Matrix.diagonal(QQ, [QQ.scalar(Fraction(1, k)) for k in scales])
        routes.append(inverses * (Matrix.diagonal(QQ, list(scales)) * a))
    for m in routes:
        _check(m, _normalized(x, p), p)
        assert m == a and hash(m) == hash(a)
    assert len({a, *routes}) == 1
    # and a different value is unequal, also where only the denominator differs
    if not a.is_zero():
        assert a != 2 * a and 2 * a != a


def test_the_stored_form_is_the_only_constructor():
    # No module defines or calls a second way to build a matrix, and none
    # calls ``Matrix(...)`` or ``FieldScalar(...)``.  Each class has one
    # factory, called only in its own module, and the matrix factory also in
    # the three ``pairs`` builders whose int rows are canonical by construction.
    src = Path(__file__).resolve().parent.parent / "src" / "drazinkit"
    gone = {"_make", "from_values"}
    home = {"_stored": "matrices.py", "_scalar": "fields.py"}
    builders = {"random_invertible", "_upper_shift", "exhaustive_search"}
    callers = set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(), path.name).body:
            top = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            for node in ast.walk(stmt):
                where = (path.name, getattr(node, "lineno", None))
                if isinstance(node, ast.FunctionDef):
                    assert node.name not in gone, where
                elif isinstance(node, ast.Name):
                    assert node.id not in gone, where
                elif isinstance(node, ast.Attribute):
                    assert node.attr not in gone, where
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    assert name not in ("Matrix", "FieldScalar"), where
                    if name in home and path.name != home[name]:
                        callers.add((path.name, top, name))
    assert callers == {("pairs.py", name, "_stored") for name in builders}


def test_the_constructors_take_no_stored_form():
    # Unchecked, ``Matrix(QQ, ((2,),), 2)`` printed 1 but did not equal the
    # identity, and ``FieldScalar(PrimeField(5), 7)`` printed 7, which
    # ``parse`` refuses, and did not equal ``PrimeField(5).scalar(2)``.
    with pytest.raises(TypeError, match="Matrix.from_rows"):
        Matrix(QQ, ((2,),), 2)
    with pytest.raises(TypeError, match="Field.scalar"):
        FieldScalar(PrimeField(5), 7)


def test_one_pivot_rule():
    # Elimination has one pivot rule: no function takes an ``order``, and
    # the enum that names the rule has one member.
    src = Path(__file__).resolve().parent.parent / "src" / "drazinkit"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [
                    a.arg
                    for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
                    + [args.vararg, args.kwarg]
                    if a is not None
                ]
                assert "order" not in names, (path.name, node.lineno)
    assert list(PivotOrder) == [PivotOrder.TOP_DOWN]
