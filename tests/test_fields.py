"""Scalar domains: axioms, canonical encoding, strict parsing."""

import ast
import inspect
import json
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from random import Random

import pytest

from drazinkit import (
    DivisionByZero,
    FieldMismatch,
    FieldScalar,
    Matrix,
    ParseError,
    PrimeField,
    QQ,
    is_prime,
)
from drazinkit.fields import Field, RationalField, field_from_json_obj

from _naive import matmul


def _sieve(limit: int):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, limit):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = False
    return [i for i, f in enumerate(flags) if f]


def test_is_prime_matches_sieve():
    primes = set(_sieve(2000))
    for n in range(2000):
        assert is_prime(n) == (n in primes), n


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_prime_field_constructor_validation():
    PrimeField(2)
    PrimeField(5)
    PrimeField(2**61 - 1)
    with pytest.raises(ParseError):
        PrimeField(1)
    with pytest.raises(ParseError):
        PrimeField(4)
    with pytest.raises(ParseError):
        PrimeField(2**64 + 13)
    with pytest.raises(ParseError):
        PrimeField("5")  # type: ignore[arg-type]


def _sample(field, rng: Random) -> FieldScalar:
    if field.characteristic == 0:
        return field.scalar(Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
    return field.scalar(rng.randrange(field.characteristic))


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(97)])
def test_field_axioms(field):
    # 1000 random triples per field: ring axioms plus multiplicative inverse.
    rng = Random(12345)
    zero, one = field.scalar(0), field.scalar(1)
    for _ in range(1000):
        x, y, z = (_sample(field, rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + zero == x
        assert x * one == x
        assert x + (-x) == zero
        if x != zero:
            assert x * x.inverse() == one
            assert x / x == one


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_encode_parse_round_trip(field):
    rng = Random(777)
    for _ in range(500):
        x = _sample(field, rng)
        assert field.scalar(str(x)) == x


def test_rational_canonical_form():
    assert str(QQ.scalar("2/4")) == "1/2"
    assert str(QQ.scalar("-2/4")) == "-1/2"
    assert str(QQ.scalar("4/2")) == "2"
    assert str(QQ.scalar("0/9")) == "0"
    assert str(QQ.scalar("-0")) == "0"
    assert QQ.scalar(Fraction(6, 4)) == QQ.scalar("6/4") == QQ.scalar("3/2")


@pytest.mark.parametrize(
    "text",
    ["", " 2", "2 ", "+3", "1/0", "01", "1/-2", "2/01", "a", "1.5", "--2", "1/2/3"],
)
def test_rational_parse_rejects(text):
    with pytest.raises(ParseError):
        QQ.scalar(text)


@pytest.mark.parametrize("text", ["", "-1", "5", "7", "05", " 1", "1.0"])
def test_residue_parse_rejects(text):
    with pytest.raises(ParseError):
        PrimeField(5).scalar(text)


def test_residue_parse_accepts_range():
    f = PrimeField(5)
    for v in range(5):
        assert f.scalar(str(v)).value == v


def test_int_coercion_wraps_mod_p():
    f = PrimeField(5)
    assert f.scalar(-1) == f.scalar(4)
    assert f.scalar(12) == f.scalar(2)
    assert str(f.scalar(-1)) == "4"


def test_scalar_ops_with_ints():
    x = QQ.scalar("1/2")
    assert x + 1 == QQ.scalar("3/2")
    assert 1 + x == QQ.scalar("3/2")
    assert 2 * x == QQ.scalar(1)
    assert x - 1 == QQ.scalar("-1/2")
    assert 1 / x == QQ.scalar(2)
    assert x**2 == QQ.scalar(Fraction(1, 4))
    assert x**-1 == QQ.scalar(2)


def test_cross_field_mixing_raises():
    with pytest.raises(FieldMismatch):
        QQ.scalar(1) + PrimeField(5).scalar(1)
    with pytest.raises(FieldMismatch):
        QQ.scalar(PrimeField(5).scalar(1))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.scalar(1) / QQ.scalar(0)
    with pytest.raises(DivisionByZero):
        PrimeField(5).scalar(0).inverse()


def test_prime_field_negative_pow():
    f = PrimeField(7)
    x = f.scalar(3)
    assert x**-1 == x.inverse()
    assert x**-2 == (x * x).inverse()


def test_prime_field_pow_is_modular():
    # x**e is pow(x, e, p); expanding x**e first would never finish.
    f = PrimeField(2**64 - 59)
    x = f.scalar(123456789)
    for e in (10**18, -(10**18)):
        assert (x**e).value == pow(123456789, e, f.characteristic)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_negative_power_of_zero_raises(field):
    with pytest.raises(DivisionByZero):
        field.scalar(0) ** -1


def test_field_json_forms():
    assert QQ.to_json_obj() == "Q"
    assert PrimeField(5).to_json_obj() == {"Fp": 5}
    assert field_from_json_obj("Q") == QQ
    assert field_from_json_obj({"Fp": 5}) == PrimeField(5)
    for bad in [None, "Fp", {"Fp": 4}, {"Fp": "5"}, {"Fp": 5, "x": 1}, 7, {"Fp": True}]:
        with pytest.raises(ParseError):
            field_from_json_obj(bad)


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert QQ != PrimeField(5)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
    assert len({QQ, PrimeField(5), PrimeField(5), QQ}) == 2


def test_one_spelling_per_scalar_operation():
    # Field.scalar(value) is the one scalar constructor, a scalar's truth is
    # bool(), and a matrix is the identity when it equals Matrix.identity.
    gone = ("parse", "parse_raw", "zero_scalar", "one_scalar", "is_identity")
    for cls in (Field, RationalField, PrimeField, FieldScalar, Matrix):
        for name in gone:
            assert not hasattr(cls, name), (cls.__name__, name)
    assert not hasattr(FieldScalar, "is_zero")
    for cls in (Field, RationalField):
        assert list(inspect.signature(cls.scalar).parameters) == ["self", "value"]
    src = Path(__file__).resolve().parent.parent / "src" / "drazinkit"
    calls = 0
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "scalar"
            ):
                calls += 1
                assert len(node.args) + len(node.keywords) == 1, (path.name, node.lineno)
    assert calls > 0


FIELD_HOOKS = {
    "reduce", "inv", "value", "normalize", "dot", "combine", "unscale", "decode", "to_json_obj",
}


def test_field_is_the_interface_its_two_fields_implement():
    # Field holds no stubs: both fields define the same hooks, which the
    # base class does not, and its docstring states each one's contract.
    for cls in (RationalField, PrimeField):
        own = {
            name for name, v in vars(cls).items()
            if not name.startswith("_") and callable(v) and name not in vars(Field)
        }
        assert own == FIELD_HOOKS, cls.__name__
    for name in FIELD_HOOKS:
        assert not hasattr(Field, name), name
        assert f"* ``{name}(" in Field.__doc__, name
    # No src/ function only raises, except the constructors that point to
    # their factories and the parser hook that turns usage errors into
    # ParseError.
    src = Path(__file__).resolve().parent.parent / "src" / "drazinkit"
    raising = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        for cls in [tree, *[n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]]:
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                body = node.body[1:] if ast.get_docstring(node) else node.body
                if len(body) == 1 and isinstance(body[0], ast.Raise):
                    raising.add(f"{path.stem}.{getattr(cls, 'name', '')}.{node.name}")
    assert raising == {
        "cli._ArgumentParser.error", "fields.FieldScalar.__init__", "matrices.Matrix.__init__",
    }


def test_scalar_str_is_wire_format():
    # str() output must be valid JSON content after json round-trip
    x = QQ.scalar(Fraction(-7, 3))
    assert json.loads(json.dumps(str(x))) == "-7/3"


def test_product_kernel_is_naive_matmul_in_canonical_form():
    """``dot`` on integer rows over a denominator gives the naive product,
    stored as integer rows over the least positive denominator (1 over F_p)."""
    rng = Random(11)
    F = Fraction

    def rand(p, r, c):
        if p:
            return [[rng.choice([0, rng.randrange(p)]) for _ in range(c)] for _ in range(r)]
        return [
            [rng.choice([F(0), F(rng.randint(-3, 3), rng.randint(1, 4))]) for _ in range(c)]
            for _ in range(r)
        ]

    def stored(x):
        # integer rows over one denominator, as a Matrix keeps them
        den = lcm(*[F(v).denominator for row in x for v in row])
        return tuple(tuple(int(v * den) for v in row) for row in x), den

    reduced = 0
    for field in (QQ, PrimeField(5)):
        p = field.characteristic or None
        # 1/2 * 2 - 1 * 1 cancels to zero; an all-zero row gives zeros.
        cases = [([[F(1, 2), F(-1)], [F(0), F(0)]], [[F(2), F(3)], [F(1), F(0)]])]
        cases = cases if not p else []
        for _ in range(40):
            r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            cases.append((rand(p, r, k), rand(p, k, c)))
        for x, y in cases:
            (xr, xd), (yr, yd) = stored(x), stored(y)
            rows, den = field.dot(xr, tuple(zip(*yr)), xd * yd)
            assert type(rows) is tuple and all(type(row) is tuple for row in rows)
            assert all(type(v) is int for row in rows for v in row)
            got = [[v if p else F(v, den) for v in row] for row in rows]
            assert got == matmul(x, y, p)
            if p:
                assert den == 1 and all(0 <= v < p for row in rows for v in row)
            else:
                assert den > 0 and gcd(den, *[v for row in rows for v in row]) == 1
                reduced += den < xd * yd
    assert reduced > 0
