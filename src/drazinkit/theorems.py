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

Each report also records the nilpotency degree of the residual
``s - s**2*x`` (``s`` the difference or sum, ``x`` the formula value),
which certifies the index bound behind the formula; the degree is computed
up to the dimension and is None only when the residual is not nilpotent,
which cannot happen when the hypothesis holds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .drazin import DrazinData, Workspace
from .errors import CharacteristicTwo, NotNilpotentWithinBound, ParseError, ShapeMismatch
from .fields import FieldScalar
from .matrices import Matrix, _powers_until_zero, nilpotency_degree
from .relations import CrossCube, LambdaCommute, _hypothesis

__all__ = [
    "Theorem23Report",
    "Theorem36Report",
    "invert_one_minus_nilpotent",
    "evaluate_thm23",
    "evaluate_thm36",
]


def _report_json_obj(report) -> dict:
    """Every field of a report, keyed by name; matrices and Drazin data in
    their JSON form, plain values as they are."""
    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if isinstance(value, (Matrix, DrazinData)):
            value = value.to_json_obj()
        out[f.name] = value
    return out


@dataclass(frozen=True)
class Theorem23Report:
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

    def to_json_obj(self) -> dict:
        return _report_json_obj(self)


@dataclass(frozen=True)
class Theorem36Report:
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

    def to_json_obj(self) -> dict:
        return _report_json_obj(self)


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
    a, b, ws = _hypothesis(a, b, LambdaCommute(lam), ws)
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
    direct = ws.drazin(diff)
    residual = diff - pr(diff, diff, x)
    return Theorem23Report(
        w=w,
        w_data=w_data,
        neumann_b=neumann_b,
        neumann_a=neumann_a,
        x=x,
        direct=direct,
        match=x == direct.d,
        residual_nilpotency_degree=nilpotency_degree(residual),
    )


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
    a, b, ws = _hypothesis(a, b, CrossCube(), ws)
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
    total = a + b
    direct = ws.drazin(total)
    residual = total - pr(total, total, m)
    napi = pr(a, da.pi)
    nbpi = pr(b, db.pi)
    zero = Matrix.zero(a.field, a.rows)
    return Theorem36Report(
        m1=m1,
        m2=m2,
        m3=m3,
        m=m,
        direct=direct,
        match=m == direct.d,
        residual_nilpotency_degree=nilpotency_degree(residual),
        projectors_orthogonal=(pr(napi, nbpi) == zero and pr(nbpi, napi) == zero),
    )
