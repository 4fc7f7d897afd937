"""Matrix arithmetic, elimination kernels, inner inverses, JSON wire form."""

import json
import operator
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random

import pytest

from drazinkit import (
    FieldMismatch,
    Matrix,
    ParseError,
    PivotOrder,
    PrimeField,
    QQ,
    RationalField,
    ShapeMismatch,
    SingularMatrix,
    certify,
    invert_one_minus_nilpotent,
    nilpotency_degree,
    random_invertible,
)

from _naive import (
    add,
    from_matrix,
    inner_inverse as naive_inner_inverse,
    matmul,
    matpow,
    rank as naive_rank,
    rref as naive_rref,
    scale,
    sub,
)

F5 = PrimeField(5)


def _random_matrix(field, rows, cols, rng: Random) -> Matrix:
    if field.characteristic == 0:
        pool = [-2, -1, 0, 0, 0, 1, 1, 2, 3]
        entries = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
    else:
        p = field.characteristic
        entries = [
            [rng.choice([0, 0, rng.randrange(p)]) for _ in range(cols)]
            for _ in range(rows)
        ]
    return Matrix.from_rows(field, entries)


def test_constructors_and_accessors():
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert str(m.entry(0, 1)) == "2"
    assert Matrix.zero(QQ, 2, 3).is_zero()
    assert Matrix.identity(QQ, 3) == Matrix.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert Matrix.diagonal(QQ, [1, "1/2", QQ.scalar(3)]).entry(1, 1) == QQ.scalar("1/2")
    with pytest.raises(ShapeMismatch):
        Matrix.from_rows(QQ, [])
    with pytest.raises(ShapeMismatch):
        Matrix.from_rows(QQ, [[1], [1, 2]])
    with pytest.raises(ShapeMismatch):
        Matrix.zero(QQ, 0)


@pytest.mark.parametrize(
    "field,rows",
    [
        (QQ, [[0, 7, -3], [-(10**30), 1, 2]]),
        (QQ, [[True, False], [1, True]]),
        (QQ, [["1/2", "-4"], ["0", "6/4"]]),
        (QQ, [[Fraction(3, 4), Fraction(-6, 3)], [Fraction(0), 5]]),
        (QQ, [[QQ.scalar("1/3"), -2], [True, "5/7"]]),
        (F5, [[0, 7, -3], [-(10**30), 4, 2]]),
        (F5, [[True, False], [1, True]]),
        (F5, [["4", "0"], ["3", "1"]]),
        (F5, [[F5.scalar(3), -1], [True, "2"]]),
    ],
)
def test_from_rows_stores_what_the_scalar_path_stores(field, rows):
    # A plain int skips the scalar; the stored form must not show it.
    m = Matrix.from_rows(field, rows)
    scalars = [[field.scalar(x) for x in row] for row in rows]
    via_scalars = Matrix.from_rows(field, scalars)
    assert (m._num, m._den) == (via_scalars._num, via_scalars._den)
    assert m.to_rows() == scalars
    assert all(type(x) is int for row in m._num for x in row)
    assert type(m._den) is int


def test_from_rows_refuses_a_fraction_over_a_prime_field():
    with pytest.raises(ParseError):
        Matrix.from_rows(F5, [[1, Fraction(1, 2)]])


def test_ring_ops_and_shape_checks():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.identity(QQ, 2)
    assert a + b - b == a
    assert -a + a == Matrix.zero(QQ, 2)
    assert a * b == a
    assert (2 * a).entry(1, 1) == QQ.scalar(8)
    assert (a * QQ.scalar("1/2")).entry(0, 1) == QQ.scalar(1)
    with pytest.raises(ShapeMismatch):
        a + Matrix.zero(QQ, 3)
    with pytest.raises(ShapeMismatch):
        a * Matrix.zero(QQ, 3, 2)
    with pytest.raises(FieldMismatch):
        a + Matrix.identity(F5, 2)
    with pytest.raises(FieldMismatch):
        a * F5.scalar(2)


def test_refusals_name_shapes_fields_and_exponents():
    wide = Matrix.zero(QQ, 2, 3)
    cases = [
        (lambda: wide * wide, ShapeMismatch, {"left": [2, 3], "right": [2, 3]}),
        (lambda: wide + Matrix.zero(QQ, 3), ShapeMismatch, {"left": [2, 3], "right": [3, 3]}),
        (lambda: wide - Matrix.zero(QQ, 3), ShapeMismatch, {"left": [2, 3], "right": [3, 3]}),
        (
            lambda: Matrix.zero(QQ, 2) + Matrix.zero(F5, 2),
            FieldMismatch,
            {"left": "Q", "right": {"Fp": 5}},
        ),
        (
            lambda: Matrix.zero(F5, 2) * Matrix.zero(QQ, 2),
            FieldMismatch,
            {"left": {"Fp": 5}, "right": "Q"},
        ),
        (
            lambda: Matrix.zero(QQ, 2) * F5.scalar(2),
            FieldMismatch,
            {"matrix": "Q", "scalar": {"Fp": 5}},
        ),
        (lambda: wide**2, ShapeMismatch, {"shape": [2, 3], "exponent": 2}),
        (lambda: Matrix.zero(QQ, 2) ** -1, ShapeMismatch, {"shape": [2, 2], "exponent": -1}),
        (lambda: wide.inverse(), ShapeMismatch, {"shape": [2, 3]}),
        (lambda: nilpotency_degree(wide), ShapeMismatch, {"shape": [2, 3]}),
        (lambda: invert_one_minus_nilpotent(wide, 2), ShapeMismatch, {"shape": [2, 3]}),
        (
            lambda: certify(Matrix.zero(QQ, 2), wide, 0),
            ShapeMismatch,
            {"candidate": [2, 3], "matrix": [2, 2]},
        ),
        (lambda: Matrix.from_rows(QQ, []), ShapeMismatch, {"row_lengths": []}),
        (lambda: Matrix.from_rows(QQ, [[], [1]]), ShapeMismatch, {"row_lengths": [0, 1]}),
        (lambda: Matrix.from_rows(QQ, [[1, 2], [3]]), ShapeMismatch, {"row_lengths": [2, 1]}),
        (lambda: Matrix.zero(QQ, 2, 0), ShapeMismatch, {"shape": [2, 0]}),
        (lambda: Matrix.identity(F5, -1), ShapeMismatch, {"shape": [-1, -1]}),
        (lambda: Matrix.diagonal(QQ, []), ShapeMismatch, {"shape": [0, 0]}),
    ]
    for call, error, detail in cases:
        with pytest.raises(error) as exc:
            call()
        assert exc.value.detail == detail


def test_sum_and_difference_refuse_shapes_with_one_message_each():
    cases = [
        (operator.add, (2, 3), (3, 3), "cannot add 2x3 and 3x3"),
        (operator.add, (1, 1), (2, 1), "cannot add 1x1 and 2x1"),
        (operator.sub, (2, 3), (3, 3), "cannot subtract 3x3 from 2x3"),
        (operator.sub, (3, 1), (1, 3), "cannot subtract 1x3 from 3x1"),
    ]
    for op, left, right, message in cases:
        for field in (QQ, F5):
            with pytest.raises(ShapeMismatch) as exc:
                op(Matrix.zero(field, *left), Matrix.zero(field, *right))
            assert str(exc.value) == message
            assert exc.value.detail == {"left": list(left), "right": list(right)}
    # A field mismatch is found before the shapes are compared.
    with pytest.raises(FieldMismatch):
        Matrix.zero(QQ, 2) - Matrix.zero(F5, 3)
    assert Matrix.zero(QQ, 2).__add__(2) is NotImplemented
    assert Matrix.zero(QQ, 2).__sub__(QQ.scalar(2)) is NotImplemented


def test_matmul_against_naive_oracle():
    rng = Random(424242)
    for field, p in ((QQ, None), (F5, 5)):
        for _ in range(60):
            r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            x = _random_matrix(field, r, k, rng)
            y = _random_matrix(field, k, c, rng)
            assert from_matrix(x * y) == matmul(from_matrix(x), from_matrix(y), p)


# The largest prime below 2**64, the bound on accepted moduli.
P64 = PrimeField(2**64 - 59)


def _random_rational_matrix(rows, cols, rng: Random) -> Matrix:
    # Mixed and coprime denominators, negative numerators, and zeros.
    dens = [1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 35]
    return Matrix.from_rows(
        QQ,
        [
            [rng.choice([0, Fraction(rng.randint(-40, 40), rng.choice(dens))]) for _ in range(cols)]
            for _ in range(rows)
        ],
    )


def _random_residue_matrix(field, rows, cols, rng: Random) -> Matrix:
    p = field.characteristic
    return Matrix.from_rows(
        field,
        [[rng.choice([0, p - 1, rng.randrange(p)]) for _ in range(cols)] for _ in range(rows)],
    )


def _with_zero_lines(m: Matrix, rng: Random, *, rows: bool) -> Matrix:
    entries = [[str(x) for x in row] for row in m.to_rows()]
    if rows:
        entries[rng.randrange(m.rows)] = ["0"] * m.cols
    else:
        j = rng.randrange(m.cols)
        for row in entries:
            row[j] = "0"
    return Matrix.from_rows(m.field, entries)


def _assert_canonical(m: Matrix) -> None:
    for row in m.to_rows():
        for x in row:
            if m.field.characteristic == 0:
                v = x.value
                assert type(v) is Fraction
                assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1
            else:
                assert type(x.value) is int and 0 <= x.value < m.field.characteristic


def test_matmul_scaled_kernel_against_naive_oracle():
    """Rational rows and columns scaled to integers, and residues near 2**64."""
    rng = Random(20261018)
    for field, p in ((QQ, None), (P64, P64.characteristic)):

        def rand(r, c):
            if p is None:
                return _random_rational_matrix(r, c, rng)
            return _random_residue_matrix(field, r, c, rng)

        shapes = [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)) for _ in range(60)]
        shapes += [(1, k, 1) for k in range(1, 7)] + [(k, 1, k) for k in range(1, 7)]
        for r, k, c in shapes:
            x, y = rand(r, k), rand(k, c)
            if rng.random() < 0.3:
                x = _with_zero_lines(x, rng, rows=True)
            if rng.random() < 0.3:
                y = _with_zero_lines(y, rng, rows=False)
            got = x * y
            _assert_canonical(got)
            assert from_matrix(got) == matmul(from_matrix(x), from_matrix(y), p)
    # an all-zero factor gives the zero matrix, canonical
    z = Matrix.zero(QQ, 3, 2) * _random_rational_matrix(2, 4, rng)
    _assert_canonical(z)
    assert z.is_zero()


@pytest.mark.parametrize("field", [QQ, F5, P64], ids=repr)
def test_entrywise_ops_against_naive_oracle(field):
    """``+``, ``-``, unary ``-`` and scaling: canonical, and equal to the oracle."""
    rng = Random(4242)
    p = field.characteristic or None
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        if p is None:
            x, y = _random_rational_matrix(r, c, rng), _random_rational_matrix(r, c, rng)
            s = field.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
            ns = Fraction(str(s))
        else:
            x, y = _random_residue_matrix(field, r, c, rng), _random_residue_matrix(field, r, c, rng)
            s = field.scalar(rng.randrange(p))
            ns = int(str(s))
        nx, ny = from_matrix(x), from_matrix(y)
        k = rng.choice([0, 1, -1, 2, -3, 7, 2**70 + 1, -(2**64)])
        zero = [[0] * c for _ in range(r)]
        for got, want in (
            (x + y, add(nx, ny, p)),
            (x - y, sub(nx, ny, p)),
            (-x, sub(zero, nx, p)),
            (x * k, scale(k, nx, p)),
            (k * x, scale(k, nx, p)),
            (x * s, scale(ns, nx, p)),
            (s * x, scale(ns, nx, p)),
        ):
            _assert_canonical(got)
            assert from_matrix(got) == want


@pytest.fixture
def dot_calls(monkeypatch):
    """Count the calls of the batched product kernel, over both fields."""
    calls = []
    for cls in (RationalField, PrimeField):
        kernel = cls.dot

        def counted(self, *args, kernel=kernel):
            calls.append(self)
            return kernel(self, *args)

        monkeypatch.setattr(cls, "dot", counted)
    return calls


@pytest.mark.parametrize("field", [QQ, F5])
def test_product_counts(field, dot_calls):
    """One kernel call per product; powers never multiply by the identity."""
    a = Matrix.from_rows(field, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    b = Matrix.from_rows(field, [[1, 0], [2, 1], [0, 3]])
    for expr, expected in (
        (lambda: a * b, 1),
        (lambda: a**0, 0),
        (lambda: a**1, 0),
        (lambda: a**2, 1),
        (lambda: a**4, 2),
        (lambda: a**5, 3),
        (lambda: 2 * a, 0),
    ):
        dot_calls.clear()
        expr()
        assert len(dot_calls) == expected
    p = field.characteristic or None
    for e in range(7):
        assert from_matrix(a**e) == matpow(from_matrix(a), e, p)


def test_pow():
    a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    assert a**0 == Matrix.identity(QQ, 2)
    assert a**1 == a
    assert (a**2).is_zero()
    d = Matrix.diagonal(QQ, [2, 3])
    assert d**5 == Matrix.diagonal(QQ, [32, 243])
    with pytest.raises(ShapeMismatch):
        a**-1
    with pytest.raises(ShapeMismatch):
        Matrix.zero(QQ, 2, 3) ** 2


def test_transpose_direct_sum():
    a = Matrix.from_rows(QQ, [[1, 2, 3], [4, 5, 6]])
    assert a.transpose().transpose() == a
    s = a.direct_sum(Matrix.identity(QQ, 2))
    assert (s.rows, s.cols) == (4, 5)
    assert s.entry(0, 1) == QQ.scalar(2)
    assert s.entry(2, 3) == QQ.scalar(1)
    assert s.entry(2, 0) == QQ.scalar(0)


# ``order`` runs each of these once per pivot rule, and there is one.
@pytest.mark.parametrize("order", list(PivotOrder))
@pytest.mark.parametrize("field,p", [(QQ, None), (F5, 5)])
def test_rref_invariants(order, field, p):
    """transform * source == reduced; rank matches an independent oracle."""
    rng = Random(99 + (p or 0))
    for _ in range(40):
        m = _random_matrix(field, rng.randint(1, 5), rng.randint(1, 5), rng)
        res = m.rref()
        assert res.transform * m == res.reduced
        assert res.rank == naive_rank(from_matrix(m), p)
        assert res.rank == len(res.pivot_cols)
        # transform must be invertible: full rank
        assert res.transform.rank() == m.rows
        # structural RREF shape
        for k, c in enumerate(res.pivot_cols):
            assert res.reduced.entry(k, c) == 1
            for r in range(res.reduced.rows):
                if r != k:
                    assert not res.reduced.entry(r, c)
        assert list(res.pivot_cols) == sorted(res.pivot_cols)


def test_rank_matches_naive_oracle():
    # rank() eliminates without the transform or back-substitution.
    rng = Random(7007)
    for field, p in ((QQ, None), (F5, 5)):
        for _ in range(60):
            m = _random_matrix(field, rng.randint(1, 6), rng.randint(1, 6), rng)
            assert m.rank() == naive_rank(from_matrix(m), p) == m.rref().rank
    assert Matrix.zero(QQ, 3, 4).rank() == 0


def _with_repeated_row(m: Matrix, rng: Random) -> Matrix:
    entries = [[str(x) for x in row] for row in m.to_rows()]
    entries[rng.randrange(m.rows)] = list(entries[rng.randrange(m.rows)])
    return Matrix.from_rows(m.field, entries)


F3 = PrimeField(3)


@pytest.mark.parametrize("order", list(PivotOrder))
@pytest.mark.parametrize(
    "field,make",
    [
        (QQ, lambda r, c, rng: _random_matrix(QQ, r, c, rng)),
        (QQ, _random_rational_matrix),
        (F3, lambda r, c, rng: _random_residue_matrix(F3, r, c, rng)),
        (F5, lambda r, c, rng: _random_residue_matrix(F5, r, c, rng)),
        (P64, lambda r, c, rng: _random_residue_matrix(P64, r, c, rng)),
    ],
    ids=["Q-int", "Q-frac", "F3", "F5", "F2^64-59"],
)
def test_rref_rank_inner_inverse_equal_reference(order, field, make):
    """Entry for entry against plain Gauss-Jordan with the same pivot rule.

    This includes the transform rows of the zero rows of ``reduced``, which
    the invariants of ``test_rref_invariants`` leave free up to scale.
    """
    p = field.characteristic or None
    rng = Random(4040 + (p or 0) % 1000 + len(order.value))
    for k in range(60):
        m = make(rng.randint(1, 7), rng.randint(1, 7), rng)
        if k % 2 and m.rows > 1:
            m = _with_repeated_row(m, rng)
        reduced, transform, pivot_cols = naive_rref(from_matrix(m), order.value, p)
        res = m.rref()
        assert from_matrix(res.reduced) == reduced
        assert from_matrix(res.transform) == transform
        assert res.pivot_cols == tuple(pivot_cols)
        _assert_canonical(res.reduced)
        _assert_canonical(res.transform)
        assert m.rank() == len(pivot_cols)
        assert from_matrix(m.inner_inverse()) == naive_inner_inverse(
            from_matrix(m), order.value, p
        )


def test_rref_reduced_is_order_independent():
    # The reduced form is unique: the oracle's bottom-up scan, which the
    # package does not have, reaches the package's reduced form and rank.
    rng = Random(5150)
    for _ in range(30):
        m = _random_matrix(QQ, rng.randint(2, 5), rng.randint(2, 5), rng)
        res = m.rref()
        reduced, _, pivot_cols = naive_rref(from_matrix(m), "bottom-up")
        assert from_matrix(res.reduced) == reduced
        assert res.rank == len(pivot_cols)


def test_rref_determinism():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    r1, r2 = m.rref(), m.rref()
    assert r1.reduced == r2.reduced and r1.transform == r2.transform


def test_inverse():
    rng = Random(31337)
    for field in (QQ, F5):
        for seed in range(20):
            s = random_invertible(field, rng.randint(1, 6), seed)
            assert s * s.inverse() == Matrix.identity(field, s.rows)
            assert s.inverse() * s == Matrix.identity(field, s.rows)
    sing = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrix) as exc:
        sing.inverse()
    assert exc.value.detail == {"rank": 1}
    with pytest.raises(ShapeMismatch):
        Matrix.zero(QQ, 2, 3).inverse()


@pytest.mark.parametrize("order", list(PivotOrder))
def test_inner_inverse_contract_all_ranks(order):
    # a * g * a == a must hold whatever the rank, square or not.
    rng = Random(2718)
    for field, _ in ((QQ, None), (F5, 5)):
        for _ in range(50):
            m = _random_matrix(field, rng.randint(1, 5), rng.randint(1, 5), rng)
            g = m.inner_inverse()
            assert (g.rows, g.cols) == (m.cols, m.rows)
            assert m * g * m == m
    z = Matrix.zero(QQ, 3, 2)
    assert z.inner_inverse().is_zero()


def test_inner_inverse_orders_can_differ():
    # A rank-deficient example where the oracle's bottom-up scan gives
    # another G than the package (same a*G*a contract): found by
    # inspection of the elimination path.
    m = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
    g = from_matrix(m.inner_inverse())
    g_bot = naive_inner_inverse(from_matrix(m), "bottom-up")
    x = from_matrix(m)
    assert matmul(matmul(x, g), x) == x
    assert matmul(matmul(x, g_bot), x) == x
    assert g != g_bot


def test_nilpotency_degree():
    shift = Matrix.from_rows(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert nilpotency_degree(shift) == 3
    assert nilpotency_degree(Matrix.zero(QQ, 4)) == 1
    assert nilpotency_degree(Matrix.identity(QQ, 3)) is None
    assert nilpotency_degree(shift, cap=2) is None
    with pytest.raises(ShapeMismatch):
        nilpotency_degree(Matrix.zero(QQ, 2, 3))


def test_json_round_trip():
    rng = Random(808)
    for field in (QQ, F5):
        for _ in range(20):
            m = _random_matrix(field, rng.randint(1, 4), rng.randint(1, 4), rng)
            obj = m.to_json_obj()
            # must survive an actual serialization cycle
            again = Matrix.from_json_obj(json.loads(json.dumps(obj)))
            assert again == m


def test_json_malformed_locates_position():
    good = Matrix.from_rows(QQ, [[1, 2], [3, 4]]).to_json_obj()

    bad = json.loads(json.dumps(good))
    bad["entries"][1][0] = "3/0"
    with pytest.raises(ParseError) as exc:
        Matrix.from_json_obj(bad, "input")
    assert "input.entries[1][0]" in str(exc.value)

    bad = json.loads(json.dumps(good))
    bad["entries"][0] = ["1"]
    with pytest.raises(ParseError) as exc:
        Matrix.from_json_obj(bad, "input")
    assert "entries[0]" in str(exc.value)

    bad = json.loads(json.dumps(good))
    del bad["rows"]
    with pytest.raises(ParseError):
        Matrix.from_json_obj(bad)

    bad = json.loads(json.dumps(good))
    bad["rows"] = 0
    with pytest.raises(ParseError):
        Matrix.from_json_obj(bad)

    bad = json.loads(json.dumps(good))
    bad["entries"][0][0] = 5  # not a string
    with pytest.raises(ParseError):
        Matrix.from_json_obj(bad)

    with pytest.raises(ParseError):
        Matrix.from_json_obj("nope")


def test_json_residue_range_enforced():
    obj = Matrix.diagonal(F5, [1, 2]).to_json_obj()
    obj["entries"][0][0] = "7"
    with pytest.raises(ParseError) as exc:
        Matrix.from_json_obj(obj, "m")
    assert "m.entries[0][0]" in str(exc.value)


def test_equality_hash():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [["1", "2"], ["3", "4"]])
    assert a == b and hash(a) == hash(b)
    assert a != Matrix.from_rows(F5, [[1, 2], [3, 4]])


def test_hash_is_kept_and_follows_value():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    h = hash(a)
    assert hash(a) == h
    # An equal matrix reached another way, hashed before or after, agrees.
    half = Matrix.from_rows(QQ, [[1, 2], [Fraction(3, 2), 2]])
    b = Matrix.diagonal(QQ, [1, 2]) * half
    assert b == a and hash(b) == h
    assert len({a, b, Matrix.from_rows(F5, [[1, 2], [3, 4]])}) == 2


_UNPICKLE_AND_HASH = """
import pickle, sys
from drazinkit import Matrix, PrimeField, QQ
for m in pickle.loads(sys.stdin.buffer.read()):
    fresh = Matrix.from_rows(m.field, m._data)
    assert m == fresh and hash(m) == hash(fresh), m
"""


def test_pickle_leaves_the_cached_hash_behind():
    # Field hashes involve str hashes, which differ between interpreters
    # with different hash seeds: a hash cached in one must not travel.
    ms = [Matrix.from_rows(QQ, [[1, 2], [3, 4]]), Matrix.from_rows(F5, [[1, 2], [3, 4]])]
    for m in ms:
        hash(m)
        assert pickle.loads(pickle.dumps(m)) == m
    src = Path(__file__).resolve().parent.parent / "src"
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", _UNPICKLE_AND_HASH],
            input=pickle.dumps(ms),
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()


_F5 = PrimeField(5)
_S = _F5.scalar(3)
_M = Matrix.from_rows(_F5, [[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "expr, want",
    [
        # An operand of a type the operator does not take gives NotImplemented,
        # so Python raises TypeError, or == falls back to identity.
        (lambda: 3 - _S, _F5.scalar(0)),
        (lambda: _S**1.5, TypeError),
        (lambda: _S == 1.5, False),
        (lambda: repr(_S), "FieldScalar(PrimeField(5), '3')"),
        (lambda: repr(QQ.scalar("-6/4")), "FieldScalar(QQ, '-3/2')"),
        (lambda: _M + 1.5, TypeError),
        (lambda: _M - 1.5, TypeError),
        (lambda: _M * 1.5, TypeError),
        (lambda: 1.5 * _M, TypeError),
        (lambda: _M**1.5, TypeError),
        (lambda: _M == 1.5, False),
        (lambda: repr(_M), "Matrix(PrimeField(5), 2x2: 1 2; 3 4)"),
        (lambda: repr(Matrix.from_rows(QQ, [[Fraction(1, 2), 0]])), "Matrix(QQ, 1x2: 1/2 0)"),
    ],
)
def test_operator_fallbacks(expr, want):
    if isinstance(want, type):
        with pytest.raises(want):
            expr()
    else:
        got = expr()
        assert (type(got), got) == (type(want), want)
