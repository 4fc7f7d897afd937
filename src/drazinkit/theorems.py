"""Closed-form Drazin inverses of differences and sums, certified exactly.

Two additive formulas are evaluated and compared entrywise against the
direct Drazin-inverse oracle (which shares only the matrix primitives with
the formula path, never the formula itself):

* **Difference formula** (``T2.3``): for ``a*b == lam*(b*a)`` with
  ``lam != 0``, writing ``p_a = a*a^D`` (core projector), ``a_pi = I - p_a``
  (spectral projector) and ``w = p_a*(a - b)*p_b``::

      (a - b)^D = w^D + a^D*inv(I - b*b_pi*a^D)*b_pi
                      - a_pi*inv(I - b^D*a*a_pi)*b^D

  where both ``inv`` arguments are nilpotent, so the inverses are finite
  geometric sums truncated at the Drazin indices of ``b`` and ``a``
  respectively.

* **Sum formula** (``T3.6``): for ``a**3*b == b*a`` and ``b**3*a == a*b``
  over a field of characteristic other than 2::

      (a + b)^D = (1/8)*b*b^D*(3*a**3 + 3*b**3 - a - b)*a*a^D
                  + a^D*(I - b*b^D) + (I - a*a^D)*b^D

  The evaluation additionally certifies that the scaled spectral
  projectors annihilate each other (``a*a_pi*b*b_pi == 0`` both ways).

One oracle check serves both formulas: it computes the direct Drazin data
of ``s`` (the difference or sum), compares the formula value ``x`` with
``s^D`` entrywise, and records the nilpotency degree of the residual
``s - s**2*x``, which certifies the index bound behind the formula; the
degree is computed up to the dimension and is None only when the residual
is not nilpotent, which cannot happen when the hypothesis holds.

A report's verdict is its ``holds`` property: the value matches the oracle
and every certificate in the report holds (the residual degree for both
formulas, the projector orthogonality too for the sum formula).  Under the
hypothesis every certificate holds, so a report that matches but fails a
certificate can only come from a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .drazin import DrazinData, Workspace, _record_json_obj
from .errors import CharacteristicTwo, NotNilpotentWithinBound, ParseError, ShapeMismatch
from .fields import FieldScalar
from .matrices import Matrix, _powers_until_zero, nilpotency_degree
from .relations import CrossCube, LambdaCommute, _checked

__all__ = [
    "Theorem23Report",
    "Theorem36Report",
    "invert_one_minus_nilpotent",
    "evaluate_thm23",
    "evaluate_thm36",
]


class _FormulaReport:
    """What the two formula reports share: their verdict and JSON form."""

    @property
    def holds(self) -> bool:
        """The value matches the oracle and every certificate holds."""
        return self.match and self.residual_nilpotency_degree is not None

    def to_json_obj(self) -> dict:
        return _record_json_obj(self)


@dataclass(frozen=True)
class Theorem23Report(_FormulaReport):
    """Evaluation trace of the difference formula.

    ``w`` is the core cross term ``a*a^D*(a - b)*b*b^D`` with its own
    Drazin data; ``neumann_b`` and ``neumann_a`` are the two finite
    geometric inverses; ``x`` the assembled formula value; ``direct`` the
    oracle Drazin data of ``a - b``; ``match`` whether ``x == direct.d``
    entrywise.
    """

    w: Matrix
    w_data: DrazinData
    neumann_b: Matrix
    neumann_a: Matrix
    x: Matrix
    direct: DrazinData
    match: bool
    residual_nilpotency_degree: Optional[int]


@dataclass(frozen=True)
class Theorem36Report(_FormulaReport):
    """Evaluation trace of the sum formula.

    ``m1``, ``m2``, ``m3`` are the three summands; ``m`` their sum;
    ``direct`` the oracle Drazin data of ``a + b``; ``match`` whether
    ``m == direct.d`` entrywise.  ``projectors_orthogonal`` certifies
    ``a*a_pi*b*b_pi == 0 == b*b_pi*a*a_pi``.
    """

    m1: Matrix
    m2: Matrix
    m3: Matrix
    m: Matrix
    direct: DrazinData
    match: bool
    residual_nilpotency_degree: Optional[int]
    projectors_orthogonal: bool

    @property
    def holds(self) -> bool:
        return super().holds and self.projectors_orthogonal


def invert_one_minus_nilpotent(u: Matrix, bound: int) -> Matrix:
    """Exact inverse of ``I - u`` for nilpotent ``u``, as a geometric sum.

    Finds the smallest ``m <= max(bound, 1)`` with ``u**m == 0`` and
    returns ``I + u + ... + u**(m-1)``; the telescoping product with
    ``I - u`` is then exactly ``I``.  ``bound == 0`` asserts ``u == 0``
    (the empty-sum convention: the result is ``I``).  If no power up to
    the effective bound vanishes, raises :class:`NotNilpotentWithinBound`
    carrying the ranks of the inspected powers.
    """
    if not u.is_square():
        raise ShapeMismatch("nilpotency needs a square matrix", {"shape": [u.rows, u.cols]})
    if bound < 0:
        raise ParseError(f"bound must be nonnegative, got {bound}", {"bound": bound})
    powers, degree = _powers_until_zero(u, max(bound, 1))
    if degree is not None:
        return sum(powers, Matrix.identity(u.field, u.rows))
    ranks = [p.rank() for p in powers]
    raise NotNilpotentWithinBound(
        f"matrix is not nilpotent within bound {bound}: power ranks {ranks}",
        {"ranks": ranks},
    )


def _oracle_check(
    s: Matrix, x: Matrix, ws: Workspace
) -> Tuple[DrazinData, bool, Optional[int]]:
    """``(direct, match, degree)`` for a formula value ``x`` of ``s^D``:
    the oracle Drazin data of ``s``, whether ``x == s^D`` entrywise, and
    the nilpotency degree of the residual ``s - s*s*x``."""
    direct = ws.drazin(s)
    return direct, x == direct.d, nilpotency_degree(s - ws.prod(s, s, x))


def evaluate_thm23(
    a: Matrix, b: Matrix, lam: FieldScalar, *, ws: Optional[Workspace] = None
) -> Theorem23Report:
    """Evaluate the difference formula and certify it against the oracle.

    Requires ``a*b == lam*(b*a)`` exactly (raises PreconditionViolated
    locating the first bad entry otherwise).  The Neumann inverses use the
    exact truncation bounds ``t = ind(b)`` and ``s = ind(a)``; the
    hypothesis forces ``(b*b_pi*a^D)**t == 0`` and symmetrically, so
    :class:`NotNilpotentWithinBound` can only indicate a bug.  Drazin data
    and the formula's products come from ``ws`` (a fresh :class:`Workspace`
    by default).
    """
    return _thm23(*_checked(a, b, LambdaCommute(lam), ws)[:3])


def _thm23(a: Matrix, b: Matrix, ws: Workspace) -> Theorem23Report:
    """The formula on a checked pair of ``ws``'s own matrices."""
    pr = ws.prod
    da, db = ws.drazin(a), ws.drazin(b)
    p_a = pr(a, da.d)
    p_b = pr(b, db.d)
    diff = a - b
    w = pr(p_a, diff, p_b)
    w_data = ws.drazin(w)
    neumann_b = invert_one_minus_nilpotent(pr(b, db.pi, da.d), db.index)
    neumann_a = invert_one_minus_nilpotent(pr(db.d, a, da.pi), da.index)
    x = w_data.d + pr(da.d, neumann_b, db.pi) - pr(da.pi, neumann_a, db.d)
    return Theorem23Report(w, w_data, neumann_b, neumann_a, x, *_oracle_check(diff, x, ws))


def evaluate_thm36(
    a: Matrix, b: Matrix, *, ws: Optional[Workspace] = None
) -> Theorem36Report:
    """Evaluate the sum formula and certify it against the oracle.

    Requires the cross-cube relation and a field where 2 is invertible;
    over a prime field of characteristic 2 raises
    :class:`CharacteristicTwo` before touching the formula (its leading
    coefficient is 1/8).  Drazin data, powers and the formula's products
    come from ``ws`` (a fresh :class:`Workspace` by default).
    """
    if a.field.characteristic == 2:
        raise CharacteristicTwo(
            "the sum formula needs 2 invertible; characteristic 2 is excluded",
            {"field": a.field.to_json_obj()},
        )
    return _thm36(*_checked(a, b, CrossCube(), ws)[:3])


def _thm36(a: Matrix, b: Matrix, ws: Workspace) -> Theorem36Report:
    """The formula on a checked pair of ``ws``'s own matrices, 2 invertible."""
    pr = ws.prod
    da, db = ws.drazin(a), ws.drazin(b)
    p_a = pr(a, da.d)
    p_b = pr(b, db.d)
    eighth = (a.field.scalar(8)).inverse()
    core = 3 * ws.power(a, 3) + 3 * ws.power(b, 3) - a - b
    m1 = eighth * pr(p_b, core, p_a)
    m2 = pr(da.d, db.pi)
    m3 = pr(da.pi, db.d)
    m = m1 + m2 + m3
    oracle = _oracle_check(a + b, m, ws)
    napi = pr(a, da.pi)
    nbpi = pr(b, db.pi)
    orthogonal = pr(napi, nbpi).is_zero() and pr(nbpi, napi).is_zero()
    return Theorem36Report(m1, m2, m3, m, *oracle, orthogonal)
