"""Dense exact matrices and Gauss-Jordan elimination kernels.

A :class:`Matrix` stores its :class:`~drazinkit.fields.Field` once and its
entries as integer rows over one denominator: ``_num``, a tuple of int row
tuples, and ``_den``, a positive int with ``gcd(_den, every entry) == 1``
(so a zero matrix has ``_den`` 1).  Over ``F_p`` the rows hold the
canonical residues and ``_den`` is always 1.  The form is canonical, so
equality and hashing compare ``(_den, _num)``, and products, sums and
elimination all run on plain ints, for both fields; a product is one call
of the field's batched kernel ``dot`` (a hook of
:class:`~drazinkit.fields.Field`).  Only the package builds a matrix from
this form, unchecked, with ``_stored``.  Per-entry raw values
(``Fraction`` over Q) enter only through :meth:`Matrix.from_rows` and
:meth:`Matrix.diagonal`, and leave only through :meth:`Matrix.entry`,
:meth:`Matrix.to_rows` and ``_data``.  The codec reads each entry's text
straight to ints (the field's ``decode`` hook) and writes each entry from
``(n, _den)`` with one gcd.  Matrices are immutable; all operators return
new instances and refuse mixed fields or shapes.

Elimination is deterministic so that two independent implementations can
agree bit for bit.  There is one pivot rule, :data:`PivotOrder.TOP_DOWN`:
columns are processed left to right, and within a column the pivot is the
first nonzero entry among the unused rows, scanning top to bottom.  There
is no magnitude-based pivoting; the arithmetic is exact, so none is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm
from operator import add, sub
from typing import Any, List, Optional, Sequence, Tuple

from .errors import FieldMismatch, ParseError, ShapeMismatch, SingularMatrix
from .fields import Field, FieldScalar, field_from_json_obj

__all__ = [
    "Matrix",
    "PivotOrder",
    "RrefResult",
    "nilpotency_degree",
]


# Largest row or column count accepted from input: a JSON matrix, or the total
# size of a family descriptor.  Checked before any matrix is built; over Q a
# dense Drazin inverse takes about a second at n = 32 and grows steeply.
_MAX_DIMENSION = 64


def _check_dimension(n: int, what: str) -> None:
    if n > _MAX_DIMENSION:
        raise ParseError(
            f"{what} {n} exceeds the dimension cap of {_MAX_DIMENSION}",
            {"n": n, "cap": _MAX_DIMENSION},
        )


class PivotOrder(Enum):
    """The one pivot rule of every elimination (module docstring); it takes
    no option, and the enum names it for callers that record it."""

    TOP_DOWN = "top-down"


@dataclass(frozen=True)
class RrefResult:
    """Outcome of row reduction: ``transform * source == reduced``.

    ``reduced`` is the unique reduced row-echelon form, ``rank`` its number
    of nonzero rows, ``transform`` an invertible square matrix recording the
    row operations, and ``pivot_cols`` the pivot column of each nonzero row
    in order.
    """

    reduced: "Matrix"
    rank: int
    transform: "Matrix"
    pivot_cols: Tuple[int, ...]


def _canonical(field: Field, num, den: int) -> "Matrix":
    """A matrix from ``num / den``, any int rows over a positive ``den``."""
    return _stored(field, *field.normalize(num, den))


def _pair(field: Field, x) -> Tuple[int, int]:
    """``(num, den)`` of the value of ``x`` (an int residue has denominator
    1).  A plain int is its own numerator and builds no scalar:
    :func:`_from_pairs` reduces it with the rest."""
    if type(x) is int:
        return x, 1
    v = field.scalar(x).value
    return v.numerator, v.denominator


def _from_pairs(field: Field, data) -> "Matrix":
    """A matrix from rows of ``(num, den)`` int pairs, ``den > 0``, put over
    the lcm of their denominators and made canonical."""
    den = lcm(*[d for row in data for _, d in row])
    return _canonical(
        field, tuple([tuple([n * (den // d) for n, d in row]) for row in data]), den
    )


def _times(rows, s: int):
    """The int rows ``rows`` times ``s``."""
    return rows if s == 1 else tuple([tuple([s * x for x in row]) for row in rows])


class Matrix:
    """Immutable dense matrix over ``QQ`` or a prime field."""

    # ``_hash`` is filled on the first hash() call: matrices key the
    # Drazin and power tables of a Workspace.
    __slots__ = ("field", "rows", "cols", "_num", "_den", "_hash")

    def __init__(self, *args, **kwargs):
        raise TypeError("use Matrix.from_rows, diagonal, identity, zero or from_json_obj")

    @property
    def _data(self) -> Tuple[Tuple[Any, ...], ...]:
        """The entries as canonical raw values, built on each access."""
        value, den = self.field.value, self._den
        return tuple(tuple(value(n, den) for n in row) for row in self._num)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[Any]]) -> "Matrix":
        """Build a matrix from nested sequences of ints, strings or scalars."""
        if not rows:
            raise ShapeMismatch("matrix needs at least one row", {"row_lengths": []})
        data = []
        width = None
        for row in rows:
            entries = [_pair(field, x) for x in row]
            if width is None:
                width = len(entries)
                if width == 0:
                    raise ShapeMismatch(
                        "matrix needs at least one column",
                        {"row_lengths": [len(r) for r in rows]},
                    )
            elif len(entries) != width:
                raise ShapeMismatch(
                    "rows have inconsistent lengths",
                    {"row_lengths": [len(r) for r in rows]},
                )
            data.append(entries)
        return _from_pairs(field, data)

    @classmethod
    def zero(cls, field: Field, rows: int, cols: Optional[int] = None) -> "Matrix":
        cols = rows if cols is None else cols
        if rows < 1 or cols < 1:
            raise ShapeMismatch("dimensions must be positive", {"shape": [rows, cols]})
        return _stored(field, ((0,) * cols,) * rows, 1)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        if n < 1:
            raise ShapeMismatch("dimensions must be positive", {"shape": [n, n]})
        return _stored(
            field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), 1
        )

    @classmethod
    def diagonal(cls, field: Field, entries: Sequence[Any]) -> "Matrix":
        if not entries:
            raise ShapeMismatch("dimensions must be positive", {"shape": [0, 0]})
        pairs = [_pair(field, x) for x in entries]
        n = len(pairs)
        return _from_pairs(
            field, [[pairs[i] if i == j else (0, 1) for j in range(n)] for i in range(n)]
        )

    # -- basic accessors ----------------------------------------------------
    def entry(self, i: int, j: int) -> FieldScalar:
        return self.field.scalar(self.field.value(self._num[i][j], self._den))

    def to_rows(self) -> List[List[FieldScalar]]:
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def transpose(self) -> "Matrix":
        return _stored(self.field, tuple(zip(*self._num)), self._den)

    def direct_sum(self, other: "Matrix") -> "Matrix":
        """Block-diagonal sum, self in the top-left corner."""
        self._check_field(other)
        den = lcm(self._den, other._den)
        right, left = (0,) * other.cols, (0,) * self.cols
        top = tuple(row + right for row in _times(self._num, den // self._den))
        bottom = tuple(left + row for row in _times(other._num, den // other._den))
        # Canonical already: a prime dividing ``den`` divides one of the two
        # denominators fully, and that block keeps an entry it does not divide.
        return _stored(self.field, top + bottom, den)

    # -- ring operations -----------------------------------------------------
    def _check_field(self, other: "Matrix") -> None:
        # Identity first: operands nearly always share one field object.
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(
                f"cannot combine matrices over {self.field} and {other.field}",
                {"left": self.field.to_json_obj(), "right": other.field.to_json_obj()},
            )

    def _entrywise(self, other, op, message: str):
        # ``op`` entrywise on both operands over the lcm of their denominators,
        # after the checks ``+`` and ``-`` share; ``message`` names the shapes
        # of ``self`` and ``other`` as {0} and {1}.
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise ShapeMismatch(
                message.format(f"{self.rows}x{self.cols}", f"{other.rows}x{other.cols}"),
                {"left": [self.rows, self.cols], "right": [other.rows, other.cols]},
            )
        den = lcm(self._den, other._den)
        left = _times(self._num, den // self._den)
        right = _times(other._num, den // other._den)
        return _canonical(
            self.field, tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(left, right)), den
        )

    def __add__(self, other):
        return self._entrywise(other, add, "cannot add {0} and {1}")

    def __sub__(self, other):
        return self._entrywise(other, sub, "cannot subtract {1} from {0}")

    def __neg__(self):
        return _canonical(self.field, _times(self._num, -1), self._den)

    def _scale(self, raw) -> "Matrix":
        # ``raw`` is n/d over the rationals and a residue (d 1) over F_p.
        return _canonical(
            self.field, _times(self._num, raw.numerator), self._den * raw.denominator
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_field(other)
            if self.cols != other.rows:
                raise ShapeMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}",
                    {"left": [self.rows, self.cols], "right": [other.rows, other.cols]},
                )
            F = self.field
            return _stored(
                F, *F.dot(self._num, tuple(zip(*other._num)), self._den * other._den)
            )
        if isinstance(other, FieldScalar):
            if other.field != self.field:
                raise FieldMismatch(
                    f"cannot scale a matrix over {self.field} by a scalar over {other.field}",
                    {"matrix": self.field.to_json_obj(), "scalar": other.field.to_json_obj()},
                )
            return self._scale(other.value)
        if isinstance(other, int) and not isinstance(other, bool):
            return self._scale(self.field.reduce(other))
        return NotImplemented

    def __rmul__(self, other):
        # Scalars commute with everything here, so reuse __mul__.
        if isinstance(other, (FieldScalar, int)) and not isinstance(other, bool):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, e):
        """Nonnegative power by halving, as in ``Workspace.power``; ``A**0`` is I.

        ``A**e`` is ``h * h``, times ``A`` for odd ``e``, with ``h = A**(e // 2)``:
        ``bit_length(e) - 1`` squarings plus one product per further set bit,
        so ``A**1`` takes none, ``A**2`` one, ``A**5`` three.
        """
        if not isinstance(e, int) or isinstance(e, bool):
            return NotImplemented
        if e < 0 or not self.is_square():
            need = "a nonnegative exponent" if e < 0 else "a square matrix"
            shape = [self.rows, self.cols]
            raise ShapeMismatch(f"matrix powers require {need}", {"shape": shape, "exponent": e})
        if e < 2:
            return self if e else Matrix.identity(self.field, self.rows)
        h = self ** (e >> 1)
        return h * h * self if e & 1 else h * h

    def __eq__(self, other):
        # Identity first: a Workspace hands out the matrices it stores, so
        # the operands of most comparisons in a catalog run are one object.
        # The stored form is canonical, so equal values store equal ints.
        if self is other:
            return True
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            (other.field is self.field or self.field == other.field)
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.field, self._den, self._num))
            return self._hash

    def __reduce__(self):
        # Pickle without ``_hash``: field hashes hash strings, which differ
        # between interpreters started with different hash seeds.
        return (_stored, (self.field, self._num, self._den))

    # -- elimination kernels ---------------------------------------------------
    def rref(self) -> RrefResult:
        """Reduced row-echelon form with the recording transform.

        Gauss-Jordan elimination over the exact field, with the one pivot
        rule: for each column, the first nonzero entry among the rows not yet
        used as pivots, scanning top to bottom, becomes the pivot; the pivot
        row is swapped up, normalized to a leading 1, and the column is
        cleared in every other row.  The same row operations applied to an
        identity block yield ``transform`` with ``transform * self == reduced``.

        ``reduced`` is unique; ``transform`` is one of many when the matrix
        has nontrivial left null space, and the pivot rule picks it.
        """
        F, w = self.field, self.cols
        (rows, den), pivot_cols = self._eliminate(full=True)
        return RrefResult(
            reduced=_canonical(F, tuple(tuple(row[:w]) for row in rows), den),
            rank=len(pivot_cols),
            transform=_canonical(F, tuple(tuple(row[w:]) for row in rows), den),
            pivot_cols=tuple(pivot_cols),
        )

    def rank(self) -> int:
        return len(self._eliminate(full=False)[1])

    def _eliminate(self, full: bool):
        """The elimination loop of :meth:`rref` and :meth:`rank`.

        Returns ``(rows, pivot_cols)``.  With ``full``, ``rows`` is the
        field's ``(int rows, den)`` of ``[reduced | transform]``, as
        :meth:`rref` describes, not yet normalized.  Without it only the
        rows below each pivot are cleared and ``rows`` is None: enough for
        the pivot columns, hence the rank, at a fraction of the work.

        The loop is fraction-free.  Each row is held as ints, a nonzero
        multiple of the row plain Gauss-Jordan holds: it starts as the
        stored row at scale ``_den``, beside ``_den`` times a row of the
        identity.  A column is cleared by the field's ``combine``:
        ``row := lead * row - g * pivot_row`` at a small scale.  A multiple
        has the same zero entries, hence the same pivots.  Only at the end
        is each row divided by its scale (the field's ``unscale``): a pivot
        row by its leading entry, a zero row of ``reduced`` by its
        transform entry in the column of the row it started as, which is 1
        in Gauss-Jordan.
        """
        F = self.field
        combine = F.combine
        n, w = self.rows, self.cols
        den = self._den
        m = list(self._num)
        if full:
            m = [
                row + tuple([den if j == i else 0 for j in range(n)])
                for i, row in enumerate(m)
            ]
        origin = list(range(n))
        piv = 0
        pivot_cols = []
        for c in range(w):
            if piv == n:
                break
            hit = None
            for i in range(piv, n):
                if m[i][c]:
                    hit = i
                    break
            if hit is None:
                continue
            if hit != piv:
                m[piv], m[hit] = m[hit], m[piv]
                origin[piv], origin[hit] = origin[hit], origin[piv]
            lead = m[piv][c]
            for r in range(0 if full else piv + 1, n):
                if r == piv:
                    continue
                g = m[r][c]
                if g:
                    m[r] = combine(lead, m[r], g, m[piv])
            pivot_cols.append(c)
            piv += 1
        if not full:
            return None, pivot_cols
        scales = [m[k][c] for k, c in enumerate(pivot_cols)]
        scales += [m[i][w + origin[i]] for i in range(piv, n)]
        return F.unscale(m, scales), pivot_cols

    def inverse(self) -> "Matrix":
        """Exact inverse of a square full-rank matrix."""
        if not self.is_square():
            raise ShapeMismatch("inverse requires a square matrix", {"shape": [self.rows, self.cols]})
        res = self.rref()
        if res.rank < self.rows:
            raise SingularMatrix(
                f"matrix of rank {res.rank} < {self.rows} has no inverse",
                {"rank": res.rank},
            )
        return res.transform

    def inner_inverse(self) -> "Matrix":
        """A matrix ``G`` with ``self * G * self == self`` ({1}-inverse).

        With ``T * self == R`` in reduced echelon form of rank ``r`` and
        pivot columns ``j_1 < ... < j_r``, placing row ``k`` of ``T`` at row
        ``j_k`` of an otherwise-zero cols-by-rows matrix gives an inner
        inverse.  The pivot rule makes it deterministic; a rank-deficient
        matrix has many inner inverses, and this is one of them.  The zero
        matrix yields ``G = 0``.
        """
        res = self.rref()
        t = res.transform
        g = [(0,) * self.rows] * self.cols
        for k, jc in enumerate(res.pivot_cols):
            g[jc] = t._num[k]
        return _canonical(self.field, tuple(g), t._den)

    # -- JSON -------------------------------------------------------------------
    def to_json_obj(self) -> dict:
        encode, den = self.field.encode, self._den
        return {
            "field": self.field.to_json_obj(),
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[encode(n, den) for n in row] for row in self._num],
        }

    @classmethod
    def from_json_obj(cls, obj: Any, where: str = "matrix") -> "Matrix":
        """Decode and validate the wire form, locating any malformed piece."""
        if not isinstance(obj, dict):
            raise ParseError(f"{where}: expected an object", {"at": where})
        missing = {"field", "rows", "cols", "entries"} - set(obj.keys())
        if missing:
            raise ParseError(
                f"{where}: missing keys {sorted(missing)}", {"at": where}
            )
        field = field_from_json_obj(obj["field"], f"{where}.field")
        rows, cols = obj["rows"], obj["cols"]
        for name, v in (("rows", rows), ("cols", cols)):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ParseError(
                    f"{where}.{name}: expected a positive integer, got {v!r}",
                    {"at": f"{where}.{name}"},
                )
            _check_dimension(v, f"{where}.{name}")
        entries = obj["entries"]
        if not isinstance(entries, list) or len(entries) != rows:
            raise ParseError(
                f"{where}.entries: expected {rows} rows", {"at": f"{where}.entries"}
            )
        decode = field.decode
        data = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError(
                    f"{where}.entries[{i}]: expected {cols} entries",
                    {"at": f"{where}.entries[{i}]"},
                )
            out = []
            for j, text in enumerate(row):
                try:
                    if not isinstance(text, str):
                        raise ParseError("entries must be strings")
                    out.append(decode(text))
                except ParseError as exc:
                    loc = f"{where}.entries[{i}][{j}]"
                    raise ParseError(f"{loc}: {exc}", {"at": loc}) from exc
            data.append(out)
        return _from_pairs(field, data)

    def __repr__(self):
        encode, den = self.field.encode, self._den
        body = "; ".join(" ".join(encode(n, den) for n in row) for row in self._num)
        return f"Matrix({self.field!r}, {self.rows}x{self.cols}: {body})"


def _stored(field: Field, num, den: int, _new=object.__new__, _cls=Matrix) -> Matrix:
    """The matrix ``num / den``, in the stored form (module docstring) and unchecked."""
    m = _new(_cls)
    m.field = field
    m.rows = len(num)
    m.cols = len(num[0])
    m._num = num
    m._den = den
    return m


def nilpotency_degree(m: Matrix, cap: Optional[int] = None) -> Optional[int]:
    """Smallest ``k >= 1`` with ``m**k == 0``, or None if none up to ``cap``.

    ``cap`` defaults to the dimension, which suffices for any nilpotent
    matrix.  The zero matrix has degree 1.
    """
    if not m.is_square():
        raise ShapeMismatch("nilpotency is defined for square matrices", {"shape": [m.rows, m.cols]})
    return _powers_until_zero(m, m.rows if cap is None else cap)[1]


def _powers_until_zero(m: Matrix, limit: int) -> Tuple[List[Matrix], Optional[int]]:
    """``(powers, k)``: ``k`` is the smallest ``k <= limit`` with ``m**k == 0``
    (None if there is none) and ``powers`` holds the nonzero ``m, m**2, ...``
    before it.  No power past ``m**limit`` is formed."""
    powers = []
    power = m
    for k in range(1, limit + 1):
        if power.is_zero():
            return powers, k
        powers.append(power)
        if k < limit:
            power = power * m
    return powers, None
