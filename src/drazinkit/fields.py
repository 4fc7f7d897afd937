"""Exact scalar arithmetic over the rationals and over prime fields.

Two scalar domains are supported:

* ``QQ`` - arbitrary-precision rationals, always kept in canonical reduced
  form with a positive denominator.
* ``PrimeField(p)`` - integers mod a prime ``p``, represented by the
  canonical residue in ``[0, p)``.

A :class:`Field` instance is the value-like descriptor attached to every
scalar and matrix (structural equality, JSON encoding) and knows only what
the field alone decides, through the hooks the :class:`Field` docstring
lists.  Raw values are ``fractions.Fraction`` for the rationals and plain
``int`` residues for prime fields, so scalar sums, differences and
products are written with Python's operators on raw values, followed by
one ``reduce`` per result.
User-facing code sees only :class:`FieldScalar`, built by :meth:`Field.scalar`.

Matrices do not hold raw values: a ``Matrix`` keeps integer rows over one
positive denominator, canonical (see :mod:`drazinkit.matrices`), and over
``F_p`` the denominator is always 1.  So both fields run one integer
kernel, and a field adds only where they differ: ``normalize``, ``dot``
(one call per product), ``combine`` and ``unscale`` (elimination) and
``value`` (one stored entry).  Rows of raw values need no hook to become
integer rows: a ``Fraction`` and an ``int`` both have a numerator and a
denominator (see ``Matrix.from_rows``).

Text encoding, used verbatim by all JSON I/O: rationals as ``"n"`` or
``"n/d"`` with ``d > 0`` and ``gcd(n, d) = 1``; prime-field residues as the
decimal digits of the canonical representative.  ``decode`` reads one
entry's text straight to a ``(num, den)`` int pair, which
``Matrix.from_json_obj`` puts over one denominator and ``normalize``
makes canonical, so text need not be canonical to be read (``"6/4"``,
``"-0"``); :meth:`Field.scalar` reads text by the same decode.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from typing import Any

from .errors import DivisionByZero, FieldMismatch, OutputTooLarge, ParseError

__all__ = [
    "Field",
    "RationalField",
    "PrimeField",
    "FieldScalar",
    "QQ",
    "is_prime",
    "field_from_json_obj",
]

# Deterministic Miller-Rabin witness set: correct for all n < 3.3 * 10**24,
# comfortably past the 2**64 moduli this library accepts.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_MODULUS = 2**64

_RATIONAL_RE = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?\Z")
_RESIDUE_RE = re.compile(r"(?:0|[1-9][0-9]*)\Z")


def _past_digit_limit(error, what: str, **detail):
    # Wire text that matched its pattern, and a canonical value, fail to
    # convert only past CPython's int/str digit limit (4,300 by default).
    limit = sys.get_int_max_str_digits()
    return error(
        f"{what} with more than {limit} digits (the interpreter's int/str conversion limit)",
        {"limit": limit, **detail},
    )


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24 (Miller-Rabin, fixed witnesses)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A scalar domain.  Instances are immutable and compare structurally.

    Raw values are canonical: a ``Fraction`` over the rationals, a residue
    in ``[0, p)`` over ``F_p``.  A stored matrix is int rows over one
    positive ``den``, which is 1 over ``F_p``.  The base class shares
    :meth:`encode` and :meth:`scalar`; :class:`RationalField` and
    :class:`PrimeField` each implement these hooks:

    * ``reduce(x)``: the canonical raw value of ``x``, an ``int`` (or over
      the rationals a ``Fraction``) built with ``+ - *`` from raw values
      and ints: ``Fraction(x)`` over the rationals, ``x % p`` over ``F_p``.
    * ``inv(x)``: the raw inverse of ``x``; :class:`DivisionByZero` at 0.
    * ``value(n, den)``: the raw value of the stored entry ``n / den``.
    * ``normalize(rows, den)``: the canonical form of the matrix ``rows /
      den``, a tuple of int row tuples over a positive int: over the
      rationals divided by their gcd, over ``F_p`` reduced mod ``p``.
    * ``dot(rows, cols, den)``: the batched product kernel.  ``rows`` are
      the int rows of the left factor, ``cols`` the int columns of the
      right one and ``den`` the product of their denominators; returns the
      canonical ``(rows, den)`` of the product.
    * ``combine(lead, row, g, pivot)``: ``lead * row - g * pivot`` on ints,
      at a smaller nonzero scale: over the rationals divided by the gcd of
      its entries, over ``F_p`` reduced mod ``p``.
    * ``unscale(rows, scales)``: ``(int rows, den)``, ``den > 0``, whose row
      ``i`` over ``den`` is ``rows[i] / scales[i]``, for nonzero int scales:
      ``den`` is their lcm over the rationals and 1 over ``F_p``.
    * ``decode(text)``: the ``(num, den)`` ints of the wire text ``text``,
      ``den > 0``, not necessarily in lowest terms; ``den`` is 1 over ``F_p``.
    * ``to_json_obj()``: ``"Q"`` or ``{"Fp": p}``, which
      :func:`field_from_json_obj` reads back.
    """

    __slots__ = ()

    characteristic: int

    def encode(self, x, den: int = 1) -> str:
        """Wire text of the raw value ``x``, or of the stored entry ``x / den``."""
        if den != 1:
            g = gcd(x, den)
            x, den = x // g, den // g
        try:
            return str(x) if den == 1 else f"{x}/{den}"
        except ValueError:
            raise _past_digit_limit(OutputTooLarge, "result entry") from None

    def scalar(self, value) -> "FieldScalar":
        """The scalar of ``value``: an int, wire text (read by ``decode``,
        so ``"6/4"`` gives 3/2), a scalar of this field, or over the
        rationals a ``Fraction``.  The one scalar constructor."""
        if isinstance(value, FieldScalar):
            if value.field != self:
                raise FieldMismatch(f"scalar belongs to {value.field}, not {self}")
            return value
        if isinstance(value, int):
            return _scalar(self, self.reduce(value))
        if isinstance(value, str):
            return _scalar(self, self.value(*self.decode(value)))
        raise ParseError(f"cannot coerce {type(value).__name__!r} into {self}")


class RationalField(Field):
    """The field of rationals; a stateless singleton exported as ``QQ``."""

    __slots__ = ()

    characteristic = 0

    def reduce(self, x):
        return Fraction(x)

    def inv(self, x):
        if not x:
            raise DivisionByZero("division by zero in QQ")
        return 1 / x

    def value(self, n, den):
        return Fraction(n, den)

    def normalize(self, rows, den):
        if den == 1:
            return rows, 1
        g = gcd(den, *chain.from_iterable(rows))
        if g == 1:
            return rows, den
        return tuple([tuple([x // g for x in row]) for row in rows]), den // g

    def dot(self, rows, cols, den):
        # Integer multiply-accumulate, then one gcd pass over the result,
        # skipped when both factors are integer matrices (``den`` 1).
        return self.normalize(
            tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in rows]), den
        )

    def combine(self, lead, row, g, pivot):
        ints = [lead * x - g * y for x, y in zip(row, pivot)]
        d = gcd(*ints)
        return ints if d < 2 else [x // d for x in ints]

    def unscale(self, rows, scales):
        den = lcm(*scales)
        return [
            row if (f := den // s) == 1 else [f * x for x in row]
            for row, s in zip(rows, scales)
        ], den

    def decode(self, text: str):
        match = _RATIONAL_RE.fullmatch(text)
        if match is None:
            raise ParseError(
                f"invalid rational {text!r}: expected 'n' or 'n/d' with d > 0",
                {"text": text},
            )
        n, d = match.groups()
        try:
            return int(n), int(d) if d else 1
        except ValueError:
            raise _past_digit_limit(ParseError, "rational") from None

    def scalar(self, value) -> "FieldScalar":
        if isinstance(value, Fraction):
            return _scalar(self, value)
        return super().scalar(value)

    def to_json_obj(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("drazinkit.QQ")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """Integers modulo a prime ``p``, canonical residues in ``[0, p)``."""

    __slots__ = ("p",)

    characteristic: int

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ParseError(f"modulus must be an integer >= 2, got {p!r}", {"modulus": p})
        if p >= _MAX_MODULUS:
            raise ParseError(f"modulus {p} too large (must be < 2**64)", {"modulus": p})
        if not is_prime(p):
            raise ParseError(f"modulus {p} is not prime", {"modulus": p})
        self.p = p

    @property
    def characteristic(self) -> int:  # type: ignore[override]
        return self.p

    def reduce(self, x):
        return x % self.p

    def value(self, n, den):
        return n

    def normalize(self, rows, den):
        p = self.p
        return tuple([tuple([x % p for x in row]) for row in rows]), 1

    def combine(self, lead, row, g, pivot):
        p = self.p
        return [(lead * x - g * y) % p for x, y in zip(row, pivot)]

    def unscale(self, rows, scales):
        out = []
        for row, s in zip(rows, scales):
            if s != 1:
                f = self.inv(s)
                row = [f * x for x in row]
            out.append(row)
        return out, 1

    def inv(self, x):
        if x == 0:
            raise DivisionByZero(f"division by zero in F_{self.p}")
        return pow(x, self.p - 2, self.p)

    def dot(self, rows, cols, den):
        # Accumulate in ZZ, reduce once per entry.  (A list comprehension
        # builds the tuple faster than a generator does.)
        p = self.p
        return tuple([tuple([sum(map(mul, row, col)) % p for col in cols]) for row in rows]), 1

    def decode(self, text: str):
        if not _RESIDUE_RE.fullmatch(text):
            raise ParseError(
                f"invalid residue {text!r}: expected decimal digits",
                {"text": text},
            )
        try:
            value = int(text)
        except ValueError:
            raise _past_digit_limit(ParseError, "residue") from None
        if value >= self.p:
            raise ParseError(
                f"residue {value} out of range for F_{self.p}",
                {"text": text, "modulus": self.p},
            )
        return value, 1

    def to_json_obj(self):
        return {"Fp": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("drazinkit.Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()


def field_from_json_obj(obj: Any, where: str = "field") -> Field:
    """Decode ``"Q"`` or ``{"Fp": p}`` into a Field, with located errors."""
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj.keys()) == {"Fp"}:
        p = obj["Fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ParseError(f"{where}: modulus must be an integer", {"at": where})
        try:
            return PrimeField(p)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}", {"at": where}) from exc
    raise ParseError(
        f"{where}: expected \"Q\" or {{\"Fp\": p}}, got {obj!r}", {"at": where}
    )


class FieldScalar:
    """An exact scalar bound to its field.

    Supports ``+ - * / **`` against scalars of the same field and plain
    ``int`` (lifted into the field).  Mixing fields raises
    :class:`FieldMismatch`; operator results are always canonical.
    """

    __slots__ = ("field", "value")

    def __init__(self, *args, **kwargs):
        raise TypeError("use Field.scalar")

    def _combine(self, other, op):
        """``reduce(op(x, y))`` on the raw values of ``self`` and ``other``,
        a scalar of the same field or an ``int`` (else NotImplemented)."""
        if isinstance(other, FieldScalar):
            if other.field != self.field:
                raise FieldMismatch(
                    f"cannot combine scalars over {self.field} and {other.field}"
                )
            v = other.value
        elif isinstance(other, int) and not isinstance(other, bool):
            v = self.field.reduce(other)
        else:
            return NotImplemented
        return _scalar(self.field, self.field.reduce(op(self.value, v)))

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return self._combine(other, lambda x, v: v - x)

    def __mul__(self, other):
        return self._combine(other, mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._combine(other, lambda x, v: x * self.field.inv(v))

    def __rtruediv__(self, other):
        return self._combine(other, lambda x, v: v * self.field.inv(x))

    def __pow__(self, e):
        # A negative e inverts first.  Over F_p this is three-argument
        # pow(x, e, p), never reduce(x**e): lam**-T(i) in the L2.1 suite
        # reaches exponent 8,128 at the prime-field cap, where x**e in full
        # would carry up to about 157,000 digits into its one reduction.
        # Over the rationals pow(x, e, None) is plain x**e.
        if not isinstance(e, int) or isinstance(e, bool):
            return NotImplemented
        x = self.value
        if e < 0:
            x, e = self.field.inv(x), -e
        return _scalar(self.field, pow(x, e, self.field.characteristic or None))

    def __neg__(self):
        return _scalar(self.field, self.field.reduce(-self.value))

    def inverse(self) -> "FieldScalar":
        return _scalar(self.field, self.field.inv(self.value))

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            return other.field == self.field and other.value == self.value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.value == self.field.reduce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return self.field.encode(self.value)

    def __repr__(self):
        return f"FieldScalar({self.field!r}, {str(self)!r})"


def _scalar(field: Field, raw, _new=object.__new__, _cls=FieldScalar) -> FieldScalar:
    """The scalar of the canonical raw value ``raw``, unchecked."""
    s = _new(_cls)
    s.field = field
    s.value = raw
    return s
