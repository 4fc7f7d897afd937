"""Dense exact matrices and Gauss-Jordan elimination kernels.

A :class:`Matrix` stores its :class:`~drazinkit.fields.Field` once and keeps
entries as a tuple of row tuples of raw field values, so the product
kernel runs directly on raw scalars; elimination runs on integer multiples
of the rows (see ``Matrix._eliminate``).  Matrices are immutable; all
operators return new instances and refuse mixed fields or shapes.

Elimination is deterministic so that two independent implementations can
agree bit for bit: columns are processed left to right, and within a column
the pivot is the first nonzero entry among the unused rows, scanning either
top to bottom (:data:`PivotOrder.TOP_DOWN`, the default) or bottom to top
(:data:`PivotOrder.BOTTOM_UP`).  There is no magnitude-based pivoting; the
arithmetic is exact, so none is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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
    """Row-scan direction used when selecting a pivot inside a column."""

    TOP_DOWN = "top-down"
    BOTTOM_UP = "bottom-up"


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


class Matrix:
    """Immutable dense matrix over ``QQ`` or a prime field."""

    # ``_hash`` is filled on the first hash() call: matrices key the
    # Drazin and power tables of a Workspace, and hashing a tuple of
    # Fractions runs in Python.
    __slots__ = ("field", "rows", "cols", "_data", "_hash")

    def __init__(self, field: Field, data: Tuple[Tuple[Any, ...], ...]):
        # Trusted constructor: ``data`` must already hold canonical raw
        # values.  External callers should use from_rows / zero / identity.
        self.field = field
        self.rows = len(data)
        self.cols = len(data[0])
        self._data = data

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[Any]]) -> "Matrix":
        """Build a matrix from nested sequences of ints, strings or scalars."""
        if not rows:
            raise ShapeMismatch("matrix needs at least one row")
        data = []
        width = None
        for row in rows:
            entries = tuple(field.scalar(x).value for x in row)
            if width is None:
                width = len(entries)
                if width == 0:
                    raise ShapeMismatch("matrix needs at least one column")
            elif len(entries) != width:
                raise ShapeMismatch("rows have inconsistent lengths")
            data.append(entries)
        return cls(field, tuple(data))

    @classmethod
    def zero(cls, field: Field, rows: int, cols: Optional[int] = None) -> "Matrix":
        cols = rows if cols is None else cols
        if rows < 1 or cols < 1:
            raise ShapeMismatch("dimensions must be positive")
        z = field.zero
        return cls(field, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        if n < 1:
            raise ShapeMismatch("dimensions must be positive")
        z, o = field.zero, field.one
        return cls(
            field,
            tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
        )

    @classmethod
    def diagonal(cls, field: Field, entries: Sequence[Any]) -> "Matrix":
        if not entries:
            raise ShapeMismatch("dimensions must be positive")
        vals = [field.scalar(x).value for x in entries]
        z = field.zero
        n = len(vals)
        return cls(
            field,
            tuple(
                tuple(vals[i] if i == j else z for j in range(n)) for i in range(n)
            ),
        )

    # -- basic accessors ----------------------------------------------------
    def entry(self, i: int, j: int) -> FieldScalar:
        return FieldScalar(self.field, self._data[i][j])

    def to_rows(self) -> List[List[FieldScalar]]:
        return [[FieldScalar(self.field, x) for x in row] for row in self._data]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(not x for row in self._data for x in row)

    def is_identity(self) -> bool:
        if not self.is_square():
            return False
        o = self.field.one
        return all(
            x == (o if i == j else self.field.zero)
            for i, row in enumerate(self._data)
            for j, x in enumerate(row)
        )

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self._data)))

    def direct_sum(self, other: "Matrix") -> "Matrix":
        """Block-diagonal sum, self in the top-left corner."""
        self._check_field(other)
        z = self.field.zero
        top = tuple(row + tuple(z for _ in range(other.cols)) for row in self._data)
        bottom = tuple(
            tuple(z for _ in range(self.cols)) + row for row in other._data
        )
        return Matrix(self.field, top + bottom)

    # -- ring operations -----------------------------------------------------
    def _check_field(self, other: "Matrix") -> None:
        # Identity first: operands nearly always share one field object.
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(
                f"cannot combine matrices over {self.field} and {other.field}"
            )

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise ShapeMismatch(
                f"cannot add {self.rows}x{self.cols} and {other.rows}x{other.cols}"
            )
        red = self.field.reduce
        return Matrix(
            self.field,
            tuple(
                tuple(red(x + y) for x, y in zip(r1, r2))
                for r1, r2 in zip(self._data, other._data)
            ),
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_field(other)
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise ShapeMismatch(
                f"cannot subtract {other.rows}x{other.cols} from {self.rows}x{self.cols}"
            )
        red = self.field.reduce
        return Matrix(
            self.field,
            tuple(
                tuple(red(x - y) for x, y in zip(r1, r2))
                for r1, r2 in zip(self._data, other._data)
            ),
        )

    def __neg__(self):
        red = self.field.reduce
        return Matrix(self.field, tuple(tuple(red(-x) for x in row) for row in self._data))

    def _scale(self, raw) -> "Matrix":
        red = self.field.reduce
        return Matrix(
            self.field, tuple(tuple(red(raw * x) for x in row) for row in self._data)
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_field(other)
            if self.cols != other.rows:
                raise ShapeMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            return Matrix(
                self.field, self.field.dot(self._data, tuple(zip(*other._data)))
            )
        if isinstance(other, FieldScalar):
            if other.field != self.field:
                raise FieldMismatch(
                    f"cannot scale a matrix over {self.field} by a scalar over {other.field}"
                )
            return self._scale(other.value)
        if isinstance(other, int) and not isinstance(other, bool):
            return self._scale(self.field.from_int(other))
        return NotImplemented

    def __rmul__(self, other):
        # Scalars commute with everything here, so reuse __mul__.
        if isinstance(other, (FieldScalar, int)) and not isinstance(other, bool):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, e):
        """Nonnegative power by binary square-and-multiply; ``A**0`` is I.

        The result starts from the lowest set bit of ``e``, not from I, so
        ``A**e`` takes ``bit_length(e) - 1`` squarings plus one product per
        further set bit: ``A**1`` none, ``A**2`` one, ``A**5`` three.
        """
        if not isinstance(e, int) or isinstance(e, bool):
            return NotImplemented
        if e < 0:
            raise ShapeMismatch("matrix powers require a nonnegative exponent")
        if not self.is_square():
            raise ShapeMismatch("matrix powers require a square matrix")
        if e == 0:
            return Matrix.identity(self.field, self.rows)
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        result = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                result = result * base
            e >>= 1
        return result

    def __eq__(self, other):
        # Identity first: a Workspace hands out the matrices it stores, so
        # the operands of most comparisons in a catalog run are one object.
        if self is other:
            return True
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            (other.field is self.field or self.field == other.field)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.field, self._data))
            return self._hash

    def __reduce__(self):
        # Pickle without ``_hash``: field hashes hash strings, which differ
        # between interpreters started with different hash seeds.
        return (Matrix, (self.field, self._data))

    # -- elimination kernels ---------------------------------------------------
    def rref(self, order: PivotOrder = PivotOrder.TOP_DOWN) -> RrefResult:
        """Reduced row-echelon form with the recording transform.

        Gauss-Jordan elimination over the exact field.  For each column,
        scanning rows not yet used as pivots in the direction given by
        ``order``, the first nonzero entry becomes the pivot; the pivot row
        is swapped up, normalized to a leading 1, and the column is cleared
        in every other row.  The same row operations applied to an identity
        block yield ``transform`` with ``transform * self == reduced``.

        ``reduced`` is unique (independent of ``order``); ``transform`` need
        not be when the matrix has nontrivial left null space.
        """
        F = self.field
        rows, pivot_cols = self._eliminate(order, full=True)
        return RrefResult(
            reduced=Matrix(F, tuple(tuple(row[: self.cols]) for row in rows)),
            rank=len(pivot_cols),
            transform=Matrix(F, tuple(tuple(row[self.cols :]) for row in rows)),
            pivot_cols=tuple(pivot_cols),
        )

    def rank(self) -> int:
        return len(self._eliminate(PivotOrder.TOP_DOWN, full=False)[1])

    def _eliminate(self, order: PivotOrder, full: bool):
        """The elimination loop of :meth:`rref` and :meth:`rank`.

        Returns ``(rows, pivot_cols)``.  With ``full`` each row of ``rows``
        is a row of ``[reduced | transform]`` in canonical raw values, as
        :meth:`rref` describes.  Without it only the rows below each pivot
        are cleared and ``rows`` is None: enough for the pivot columns,
        hence the rank, at a fraction of the work.

        The loop is fraction-free.  Each row is held as ints, a nonzero
        multiple of the row plain Gauss-Jordan holds (the field's
        ``integer_rows``), and a column is cleared by the field's
        ``combine``: ``row := lead * row - g * pivot_row`` at a small scale.
        A multiple has the same zero entries, hence the same pivots.  Only
        at the end is each row divided by its scale: a pivot row by its
        leading entry, a zero row of ``reduced`` by its transform entry in
        the column of the row it started as, which is 1 in Gauss-Jordan.
        """
        F = self.field
        combine = F.combine
        n, w = self.rows, self.cols
        m = [
            ints + [d if j == i else 0 for j in range(n)] if full else ints
            for i, (ints, d) in enumerate(F.integer_rows(self._data))
        ]
        origin = list(range(n))
        piv = 0
        pivot_cols = []
        for c in range(w):
            if piv == n:
                break
            rows_to_scan = (
                range(piv, n)
                if order is PivotOrder.TOP_DOWN
                else range(n - 1, piv - 1, -1)
            )
            hit = None
            for i in rows_to_scan:
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
        return [F.divide_row(row, s) for row, s in zip(m, scales)], pivot_cols

    def inverse(self) -> "Matrix":
        """Exact inverse of a square full-rank matrix."""
        if not self.is_square():
            raise ShapeMismatch("inverse requires a square matrix")
        res = self.rref()
        if res.rank < self.rows:
            raise SingularMatrix(
                f"matrix of rank {res.rank} < {self.rows} has no inverse",
                {"rank": res.rank},
            )
        return res.transform

    def inner_inverse(self, order: PivotOrder = PivotOrder.TOP_DOWN) -> "Matrix":
        """A matrix ``G`` with ``self * G * self == self`` ({1}-inverse).

        With ``T * self == R`` in reduced echelon form of rank ``r`` and
        pivot columns ``j_1 < ... < j_r``, placing row ``k`` of ``T`` at row
        ``j_k`` of an otherwise-zero cols-by-rows matrix gives an inner
        inverse.  The construction is deterministic for a fixed ``order``;
        the two orders give genuinely different inner inverses on most
        rank-deficient inputs.  The zero matrix yields ``G = 0``.
        """
        res = self.rref(order)
        F = self.field
        g = [[F.zero] * self.rows for _ in range(self.cols)]
        for k, jc in enumerate(res.pivot_cols):
            g[jc] = list(res.transform._data[k])
        return Matrix(F, tuple(tuple(row) for row in g))

    # -- JSON -------------------------------------------------------------------
    def to_json_obj(self) -> dict:
        return {
            "field": self.field.to_json_obj(),
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[self.field.encode(x) for x in row] for row in self._data],
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
        data = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError(
                    f"{where}.entries[{i}]: expected {cols} entries",
                    {"at": f"{where}.entries[{i}]"},
                )
            out = []
            for j, text in enumerate(row):
                loc = f"{where}.entries[{i}][{j}]"
                if not isinstance(text, str):
                    raise ParseError(
                        f"{loc}: entries must be strings", {"at": loc}
                    )
                try:
                    out.append(field.parse_raw(text))
                except ParseError as exc:
                    raise ParseError(f"{loc}: {exc}", {"at": loc}) from exc
            data.append(tuple(out))
        return cls(field, tuple(data))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.encode(x) for x in row) for row in self._data
        )
        return f"Matrix({self.field!r}, {self.rows}x{self.cols}: {body})"


def nilpotency_degree(m: Matrix, cap: Optional[int] = None) -> Optional[int]:
    """Smallest ``k >= 1`` with ``m**k == 0``, or None if none up to ``cap``.

    ``cap`` defaults to the dimension, which suffices for any nilpotent
    matrix.  The zero matrix has degree 1.
    """
    if not m.is_square():
        raise ShapeMismatch("nilpotency is defined for square matrices")
    limit = m.rows if cap is None else cap
    power = m
    for k in range(1, limit + 1):
        if power.is_zero():
            return k
        if k < limit:
            power = power * m
    return None
