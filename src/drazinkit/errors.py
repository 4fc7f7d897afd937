"""Exception hierarchy.

Every error carries a stable machine-readable ``code`` (used verbatim by the
CLI's error JSON) and an optional ``detail`` mapping with structured context
such as the position of a malformed entry or the first violated equation.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

__all__ = [
    "DrazinKitError",
    "ParseError",
    "FieldMismatch",
    "ShapeMismatch",
    "DivisionByZero",
    "SingularMatrix",
    "PreconditionViolated",
    "ZeroLambda",
    "ExponentOverflow",
    "OutputTooLarge",
    "NotNilpotentWithinBound",
    "CharacteristicTwo",
    "BudgetExceeded",
    "IncompatibleFamily",
    "InternalCertificationFailure",
]


class DrazinKitError(Exception):
    """Base class for all library errors."""

    code = "error"

    def __init__(self, message: str, detail: Optional[Mapping[str, Any]] = None):
        super().__init__(message)
        self.detail = dict(detail) if detail else {}


class ParseError(DrazinKitError, ValueError):
    """Malformed input or an argument out of its domain; ``detail`` locates the
    piece or names the value.  A ValueError too, for callers that catch that."""

    code = "malformed-input"


class FieldMismatch(DrazinKitError):
    """Operands live over different scalar fields."""

    code = "field-mismatch"


class ShapeMismatch(DrazinKitError):
    """Matrix dimensions incompatible with the requested operation."""

    code = "shape-mismatch"


class DivisionByZero(DrazinKitError):
    """Inversion of a zero scalar."""

    code = "division-by-zero"


class SingularMatrix(DrazinKitError):
    """Ordinary inverse requested for a rank-deficient matrix."""

    code = "singular-matrix"


class PreconditionViolated(DrazinKitError):
    """Input pair does not satisfy the relation a suite or formula assumes."""

    code = "precondition-violated"


class ZeroLambda(DrazinKitError):
    """The scaling constant of a scaled-commutation relation must be nonzero."""

    code = "zero-lambda"


class ExponentOverflow(DrazinKitError):
    """Requested identity exponent range exceeds the configured cap."""

    code = "exponent-overflow"


class OutputTooLarge(DrazinKitError):
    """A result entry has more digits than the interpreter converts to text."""

    code = "output-too-large"


class NotNilpotentWithinBound(DrazinKitError):
    """A matrix expected to be nilpotent had nonzero powers up to the bound."""

    code = "not-nilpotent-within-bound"


class CharacteristicTwo(DrazinKitError):
    """The cross-cube sum formula needs 2 invertible, so characteristic 2 is out."""

    code = "characteristic-two"


class BudgetExceeded(DrazinKitError):
    """Exhaustive search space larger than the configured budget, or more
    hits than the search's hit cap."""

    code = "budget-exceeded"


class IncompatibleFamily(DrazinKitError):
    """Generator family cannot produce a pair for the requested relation/parameters."""

    code = "incompatible-family"


class InternalCertificationFailure(DrazinKitError):
    """A post-hoc certificate failed; indicates a bug, never bad input."""

    code = "internal-certification-failure"
