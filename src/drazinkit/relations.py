"""Quasi-commutation relations and itemized identity suites.

Three relations between square matrices ``a`` and ``b`` over the same field
are recognized:

* ``LambdaCommute(lam)`` - ``a*b == lam*(b*a)`` with ``lam != 0``,
* ``CrossCube`` - ``a**3*b == b*a`` and ``b**3*a == a*b``,
* ``SwappedCube`` - ``a*b**3 == b*a`` and ``b*a**3 == a*b``.

Each suite re-checks its hypothesis, then evaluates a fixed catalog of
identities that follow from it, returning an :class:`IdentityReport` whose
items carry both sides of every identity as witnesses.  Items are evaluated
unconditionally (no short-circuit after a failure) and reported in
lexicographic identity-id order, so two runs, or two implementations, agree
on the ledger layout bit for bit.

Every suite takes an optional keyword ``ws``, a
:class:`~drazinkit.drazin.Workspace` from which it takes Drazin data,
powers and every matrix product (:meth:`~drazinkit.drazin.Workspace.prod`),
its hypothesis check's included, so that suites run over a corpus compute
each once.  Without one it makes a fresh workspace, with the same results.

Suite catalog (exponent arguments shown as ``i``, ``j``; ``T(i)`` is the
triangular number ``i*(i-1)/2``):

* ``L2.1`` - powers under lambda-commutation: ``a*b**i == lam**i*(b**i*a)``;
  ``a**i*b == lam**i*(b*a**i)``; ``(a*b)**i == lam**(-T(i))*(a**i*b**i)``;
  ``(b*a)**i == lam**T(i)*(b**i*a**i)``.
* ``L2.2`` - Drazin inverses under lambda-commutation, e.g.
  ``(a*b)^D == b^D*a^D == lam**-1*(a^D*b^D)``.
* ``L3.1`` - powers under the cross-cube relation, e.g.
  ``b*a**i == a**(3*i)*b`` and ``a*b == a**(26*i)*(a*b)*b**(2*i)``.
* ``L3.2`` - Drazin inverses under cross-cube (twelve mixed identities).
* ``L3.3`` - the swapped-cube relation: ``a^D*b^D == b**3*a`` and the
  group-inverse facts for ``a*b`` and ``b*a``.
* ``L3.4`` - two four-term product chains under cross-cube.
* ``L3.5`` - eight projector-absorption identities under cross-cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Union

from .drazin import Workspace
from .errors import (
    ExponentOverflow,
    FieldMismatch,
    ParseError,
    PreconditionViolated,
    ShapeMismatch,
    ZeroLambda,
)
from .fields import FieldScalar
from .matrices import Matrix

__all__ = [
    "LambdaCommute",
    "CrossCube",
    "SwappedCube",
    "RelationKind",
    "IdentityItem",
    "IdentityReport",
    "check_relation",
    "first_violation",
    "require_relation",
    "relation_to_json_fields",
    "relation_from_json_fields",
    "det_consistency_diagnostic",
    "cube_exponent_cap",
    "lambda_exponent_cap",
    "lemma21_suite",
    "lemma22_suite",
    "lemma31_suite",
    "lemma32_suite",
    "lemma33_suite",
    "lemma34_suite",
    "lemma35_suite",
]


@dataclass(frozen=True)
class LambdaCommute:
    """``a*b == lam*(b*a)`` for a fixed nonzero scalar ``lam``."""

    name: ClassVar[str] = "lambda-commute"
    lam: FieldScalar

    def __post_init__(self):
        if not self.lam:
            raise ZeroLambda(
                "the commutation constant must be nonzero", {"lambda": str(self.lam)}
            )


@dataclass(frozen=True)
class CrossCube:
    """``a**3*b == b*a`` and ``b**3*a == a*b``."""

    name: ClassVar[str] = "cross-cube"


@dataclass(frozen=True)
class SwappedCube:
    """``a*b**3 == b*a`` and ``b*a**3 == a*b``."""

    name: ClassVar[str] = "swapped-cube"


RelationKind = Union[LambdaCommute, CrossCube, SwappedCube]

# Each relation's ``name`` is its wire name, in JSON and on the command line.
_RELATIONS = (LambdaCommute, CrossCube, SwappedCube)


def relation_to_json_fields(rel: RelationKind) -> Dict[str, Any]:
    """Flat JSON fields: ``{"relation": <kind>}`` plus ``"lambda"`` if any."""
    out: Dict[str, Any] = {"relation": rel.name}
    if isinstance(rel, LambdaCommute):
        out["lambda"] = str(rel.lam)
    return out


def relation_from_json_fields(
    kind: Any, lam: Optional[FieldScalar], where: str = "relation"
) -> RelationKind:
    # ``kind`` is any JSON value; ``==`` never raises on a list or an object.
    cls = next((c for c in _RELATIONS if kind == c.name), None)
    if cls is None:
        names = [c.name for c in _RELATIONS]
        raise ParseError(
            f"{where}: unknown relation {kind!r} "
            f"(expected {', '.join(names[:-1])} or {names[-1]})",
            {"at": where},
        )
    if cls is not LambdaCommute:
        return cls()
    if lam is None:
        raise ParseError(f"{where}: lambda-commute needs a lambda value", {"at": where})
    return LambdaCommute(lam)


def _validate_pair(a: Matrix, b: Matrix, rel: RelationKind) -> None:
    if a.field != b.field:
        raise FieldMismatch(
            f"pair mixes fields {a.field} and {b.field}",
            {"a": a.field.to_json_obj(), "b": b.field.to_json_obj()},
        )
    if not (a.is_square() and b.is_square()):
        raise ShapeMismatch(
            "relations are defined for square matrices",
            {"a": [a.rows, a.cols], "b": [b.rows, b.cols]},
        )
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatch(
            f"pair mixes shapes {a.rows}x{a.cols} and {b.rows}x{b.cols}",
            {"a": [a.rows, a.cols], "b": [b.rows, b.cols]},
        )
    if isinstance(rel, LambdaCommute) and rel.lam.field != a.field:
        raise FieldMismatch(
            f"lambda lives over {rel.lam.field}, the pair over {a.field}",
            {"lambda": rel.lam.field.to_json_obj(), "pair": a.field.to_json_obj()},
        )


def _defining_equations(
    a: Matrix, b: Matrix, rel: RelationKind, ws: Workspace
) -> List[Tuple[str, Matrix, Matrix]]:
    pw, pr = ws.power, ws.prod
    if isinstance(rel, LambdaCommute):
        return [("a*b = lam*(b*a)", pr(a, b), rel.lam * pr(b, a))]
    if isinstance(rel, CrossCube):
        return [
            ("a^3*b = b*a", pr(pw(a, 3), b), pr(b, a)),
            ("b^3*a = a*b", pr(pw(b, 3), a), pr(a, b)),
        ]
    return [
        ("a*b^3 = b*a", pr(a, pw(b, 3)), pr(b, a)),
        ("b*a^3 = a*b", pr(b, pw(a, 3)), pr(a, b)),
    ]


def check_relation(a: Matrix, b: Matrix, rel: RelationKind) -> bool:
    """True iff the defining equations of ``rel`` hold exactly for (a, b)."""
    return first_violation(a, b, rel) is None


def first_violation(a: Matrix, b: Matrix, rel: RelationKind) -> Optional[Dict[str, Any]]:
    """Locate the first entry (row-major) where a defining equation breaks."""
    return _violation(a, b, rel, Workspace())


def _violation(a: Matrix, b: Matrix, rel: RelationKind, ws: Workspace) -> Optional[dict]:
    _validate_pair(a, b, rel)
    for name, lhs, rhs in _defining_equations(a, b, rel, ws):
        if lhs == rhs:
            continue
        for i in range(lhs.rows):
            for j in range(lhs.cols):
                le, re = lhs.entry(i, j), rhs.entry(i, j)
                if le != re:
                    return {
                        "equation": name,
                        "row": i,
                        "col": j,
                        "lhs": str(le),
                        "rhs": str(re),
                    }
    return None


def require_relation(
    a: Matrix, b: Matrix, rel: RelationKind, *, ws: Optional[Workspace] = None
) -> None:
    """Raise :class:`PreconditionViolated` locating the first broken entry.

    The products come from ``ws``, or from a fresh workspace without one,
    so a pair checked again in one workspace forms no product again.
    """
    violation = _violation(a, b, rel, Workspace() if ws is None else ws)
    if violation is not None:
        raise PreconditionViolated(
            f"pair does not satisfy {rel.name}: {violation['equation']} fails at "
            f"entry ({violation['row']}, {violation['col']}): "
            f"{violation['lhs']} != {violation['rhs']}",
            violation,
        )


def det_consistency_diagnostic(
    a: Matrix, b: Matrix, lam: FieldScalar
) -> Optional[bool]:
    """For an invertible lambda-commuting pair, ``lam**n`` must equal 1.

    Returns None when either matrix is singular (no constraint), else
    whether ``lam**n == 1``.  A False return means no such pair can satisfy
    the relation, which is why generator families with two invertible
    matrices exist only for constants whose n-th power is 1.
    """
    _validate_pair(a, b, LambdaCommute(lam))
    n = a.rows
    if a.rank() < n or b.rank() < n:
        return None
    return lam**n == 1


@dataclass(frozen=True)
class IdentityItem:
    """One verified identity: both sides retained as failure witnesses."""

    identity_id: str
    lhs: Matrix
    rhs: Matrix
    passed: bool


@dataclass(frozen=True)
class IdentityReport:
    """Itemized outcome of one suite over one pair."""

    relation: RelationKind
    items: Tuple[IdentityItem, ...]
    all_pass: bool

    @classmethod
    def build(cls, relation: RelationKind, items: List[IdentityItem]) -> "IdentityReport":
        ordered = tuple(sorted(items, key=lambda it: it.identity_id))
        return cls(relation, ordered, all(it.passed for it in ordered))

    def failing_ids(self) -> List[str]:
        return [it.identity_id for it in self.items if not it.passed]

    def to_json_obj(self) -> dict:
        out: Dict[str, Any] = dict(relation_to_json_fields(self.relation))
        out["items"] = [
            {"id": it.identity_id, "pass": it.passed} for it in self.items
        ]
        out["all_pass"] = self.all_pass
        out["witnesses"] = {
            it.identity_id: {
                "lhs": it.lhs.to_json_obj(),
                "rhs": it.rhs.to_json_obj(),
            }
            for it in self.items
            if not it.passed
        }
        return out


def _add(items: List[IdentityItem], iid: str, lhs: Matrix, rhs: Matrix) -> None:
    items.append(IdentityItem(iid, lhs, rhs, lhs == rhs))


def _check_exponent(name: str, value: int, low: int, cap: int, cap_name: str, field) -> None:
    """Refuse a suite exponent ``name`` below ``low`` (0 or 1) or past
    ``cap`` before any product is formed."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        sign = "positive" if low else "nonnegative"
        raise ParseError(f"{name} must be a {sign} integer, got {value!r}", {name: value})
    if value > cap:
        raise ExponentOverflow(
            f"{name} {value} exceeds the {cap_name} cap {cap} over {field}",
            {name: value, "cap": cap},
        )


def cube_exponent_cap(field) -> int:
    # 3^i growth: rational entries explode, residues do not.
    return 4 if field.characteristic == 0 else 8


def lambda_exponent_cap(field) -> int:
    # lam**-T(i) grows quadratically in bits over Q; residues do not grow.
    return 32 if field.characteristic == 0 else 128


def _hypothesis(
    a: Matrix, b: Matrix, rel: RelationKind, ws: Optional[Workspace]
) -> Tuple[Matrix, Matrix, Workspace]:
    """Check a suite's relation and return the operands, interned, and the
    workspace the suite runs in: the caller's, or a fresh one when the
    suite is called on its own."""
    ws = Workspace() if ws is None else ws
    a, b = ws.intern(a), ws.intern(b)
    require_relation(a, b, rel, ws=ws)
    return a, b, ws


def lemma21_suite(
    a: Matrix,
    b: Matrix,
    lam: FieldScalar,
    i_max: int,
    *,
    ws: Optional[Workspace] = None,
) -> IdentityReport:
    """Power identities under ``a*b == lam*(b*a)``, for each i in 1..i_max.

    ``lam**-T(i)`` grows quadratically in ``i``, so ``i_max`` is capped (32
    over the rationals, 128 over a prime field); beyond the cap raises
    :class:`ExponentOverflow` before any product is formed.
    """
    _check_exponent("i_max", i_max, 1, lambda_exponent_cap(a.field), "lambda-power", a.field)
    rel = LambdaCommute(lam)
    a, b, ws = _hypothesis(a, b, rel, ws)
    pw, pr = ws.power, ws.prod
    ab, ba = pr(a, b), pr(b, a)
    items: List[IdentityItem] = []
    for i in range(1, i_max + 1):
        tri = i * (i - 1) // 2
        ai, bi = pw(a, i), pw(b, i)
        _add(items, f"L2.1-1a-i{i:02d}", pr(a, bi), (lam**i) * pr(bi, a))
        _add(items, f"L2.1-1b-i{i:02d}", pr(ai, b), (lam**i) * pr(b, ai))
        _add(items, f"L2.1-2a-i{i:02d}", pw(ab, i), (lam**-tri) * pr(ai, bi))
        _add(items, f"L2.1-2b-i{i:02d}", pw(ba, i), (lam**tri) * pr(bi, ai))
    return IdentityReport.build(rel, items)


def lemma22_suite(
    a: Matrix, b: Matrix, lam: FieldScalar, *, ws: Optional[Workspace] = None
) -> IdentityReport:
    """Drazin-inverse identities under ``a*b == lam*(b*a)``.

    Catalog: ``a^D*b == lam**-1*(b*a^D)``; ``a*b^D == lam**-1*(b^D*a)``;
    ``(a*b)^D == b^D*a^D == lam**-1*(a^D*b^D)``; and the auxiliary
    projector commutations ``a*a^D`` with ``b`` and ``b*b^D`` with ``a``.
    """
    rel = LambdaCommute(lam)
    a, b, ws = _hypothesis(a, b, rel, ws)
    pr = ws.prod
    da, db = ws.drazin(a).d, ws.drazin(b).d
    dab = ws.drazin(pr(a, b)).d
    aaD, bbD = pr(a, da), pr(b, db)
    linv = lam.inverse()
    items: List[IdentityItem] = []
    _add(items, "L2.2-1", pr(da, b), linv * pr(b, da))
    _add(items, "L2.2-2", pr(a, db), linv * pr(db, a))
    _add(items, "L2.2-3a", dab, pr(db, da))
    _add(items, "L2.2-3b", dab, linv * pr(da, db))
    _add(items, "L2.2-4a", pr(aaD, b), pr(b, aaD))
    _add(items, "L2.2-4b", pr(a, bbD), pr(bbD, a))
    return IdentityReport.build(rel, items)


def lemma31_suite(
    a: Matrix, b: Matrix, i_max: int, *, ws: Optional[Workspace] = None
) -> IdentityReport:
    """Power identities under the cross-cube relation, i in 1..i_max.

    Exponents reach ``3**i`` and ``26*i``, so ``i_max`` is capped (4 over
    the rationals, 8 over a prime field); beyond the cap raises
    :class:`ExponentOverflow`.  Matrix powers are honest square-and-multiply
    products; exponents are never reduced modulo anything.
    """
    _check_exponent("i_max", i_max, 1, cube_exponent_cap(a.field), "3^i growth", a.field)
    rel = CrossCube()
    a, b, ws = _hypothesis(a, b, rel, ws)
    pw, pr = ws.power, ws.prod
    items: List[IdentityItem] = []
    ab, ba = pr(a, b), pr(b, a)
    for i in range(1, i_max + 1):
        ai, bi = pw(a, i), pw(b, i)
        _add(items, f"L3.1-1a-i{i:02d}", pr(b, ai), pr(pw(a, 3 * i), b))
        _add(items, f"L3.1-1b-i{i:02d}", pr(bi, a), pr(pw(a, 3**i), bi))
        _add(items, f"L3.1-2a-i{i:02d}", pr(a, bi), pr(pw(b, 3 * i), a))
        _add(items, f"L3.1-2b-i{i:02d}", pr(ai, b), pr(pw(b, 3**i), ai))
        _add(items, f"L3.1-3a-i{i:02d}", ab, pr(pw(a, 26 * i), ab, pw(b, 2 * i)))
        _add(items, f"L3.1-3b-i{i:02d}", ba, pr(pw(b, 26 * i), ba, pw(a, 2 * i)))
    return IdentityReport.build(rel, items)


def lemma32_suite(
    a: Matrix, b: Matrix, *, ws: Optional[Workspace] = None
) -> IdentityReport:
    """Drazin-inverse identities under the cross-cube relation (12 items)."""
    rel = CrossCube()
    a, b, ws = _hypothesis(a, b, rel, ws)
    pw, pr = ws.power, ws.prod
    da, db = ws.drazin(a).d, ws.drazin(b).d
    aaD, bbD = pr(a, da), pr(b, db)
    items: List[IdentityItem] = []
    _add(items, "L3.2-1a", pr(pw(da, 3), b), pr(b, da))
    _add(items, "L3.2-1b", pr(pw(db, 3), a), pr(a, db))
    _add(items, "L3.2-2a", pr(aaD, b), pr(b, aaD))
    _add(items, "L3.2-2b", pr(aaD, db), pr(db, aaD))
    _add(items, "L3.2-3a", pr(bbD, a), pr(a, bbD))
    _add(items, "L3.2-3b", pr(bbD, da), pr(da, bbD))
    # 4b is the a<->b mirror of 4a; the one-sided product order matters on
    # noncommuting pairs (the finite-field search exhibits 24 of them at
    # p=3, n=2 where b*a^D = a^D*b**3 holds but a^D*b = a^D*b**3 fails).
    _add(items, "L3.2-4a", pr(a, db), pr(db, pw(a, 3)))
    _add(items, "L3.2-4b", pr(b, da), pr(da, pw(b, 3)))
    _add(items, "L3.2-5a", pr(da, db), pr(db, pw(da, 3)))
    _add(items, "L3.2-5b", pr(db, da), pr(da, pw(db, 3)))
    _add(items, "L3.2-6a", pr(da, db), pr(db, da, pw(b, 2)))
    _add(items, "L3.2-6b", pr(db, da), pr(da, db, pw(a, 2)))
    return IdentityReport.build(rel, items)


def lemma33_suite(
    a: Matrix, b: Matrix, *, ws: Optional[Workspace] = None
) -> IdentityReport:
    """Identities under the swapped-cube relation.

    Beyond the two product formulas and one auxiliary, the group-inverse
    claims ``(a*b)^# == b^D*a^D`` and ``(b*a)^# == a^D*b^D`` are certified
    by checking the three group-inverse equations for the candidate
    products (commutation, inner inverse, and ``x == x**2*g``, which pins
    the index to <= 1); uniqueness then forces the equality.
    """
    rel = SwappedCube()
    a, b, ws = _hypothesis(a, b, rel, ws)
    pw, pr = ws.power, ws.prod
    da, db = ws.drazin(a).d, ws.drazin(b).d
    items: List[IdentityItem] = []
    _add(items, "L3.3-1", pr(da, db), pr(pw(b, 3), a))
    _add(items, "L3.3-2", pr(db, da), pr(pw(a, 3), b))
    _add(items, "L3.3-3", pr(da, b), pr(b, pw(da, 3)))
    ab, ba = pr(a, b), pr(b, a)
    g = pr(db, da)
    _add(items, "L3.3-4a", pr(ab, g), pr(g, ab))
    _add(items, "L3.3-4b", pr(g, ab, g), g)
    _add(items, "L3.3-4c", ab, pr(ab, ab, g))
    h = pr(da, db)
    _add(items, "L3.3-5a", pr(ba, h), pr(h, ba))
    _add(items, "L3.3-5b", pr(h, ba, h), h)
    _add(items, "L3.3-5c", ba, pr(ba, ba, h))
    return IdentityReport.build(rel, items)


def lemma34_suite(
    a: Matrix, b: Matrix, *, ws: Optional[Workspace] = None
) -> IdentityReport:
    """Two four-term chains under cross-cube, checked as eight equalities.

    Chain 1: ``a^D*b^D == (b^D)**3*a^D == b^D*a^D*a**2 == b**2*b^D*a^D``.
    Chain 2: ``b^D*a^D == (a^D)**3*b^D == a^D*b^D*b**2 == a**2*a^D*b^D``.
    Items 1a-1c/2a-2c are the consecutive equalities, 1d/2d close each
    chain end to end.
    """
    rel = CrossCube()
    a, b, ws = _hypothesis(a, b, rel, ws)
    pw, pr = ws.power, ws.prod
    da, db = ws.drazin(a).d, ws.drazin(b).d
    x1 = pr(da, db)
    x2 = pr(pw(db, 3), da)
    x3 = pr(db, da, pw(a, 2))
    x4 = pr(pw(b, 2), db, da)
    y1 = pr(db, da)
    y2 = pr(pw(da, 3), db)
    y3 = pr(da, db, pw(b, 2))
    y4 = pr(pw(a, 2), da, db)
    items: List[IdentityItem] = []
    _add(items, "L3.4-1a", x1, x2)
    _add(items, "L3.4-1b", x2, x3)
    _add(items, "L3.4-1c", x3, x4)
    _add(items, "L3.4-1d", x1, x4)
    _add(items, "L3.4-2a", y1, y2)
    _add(items, "L3.4-2b", y2, y3)
    _add(items, "L3.4-2c", y3, y4)
    _add(items, "L3.4-2d", y1, y4)
    return IdentityReport.build(rel, items)


def lemma35_suite(
    a: Matrix, b: Matrix, i: int, j: int, *, ws: Optional[Workspace] = None
) -> IdentityReport:
    """Projector-absorption identities under cross-cube at exponents i, j.

    Parts 1 and 2 depend on (i, j); parts 3-8 are fixed:
    ``aa^D*a**(4+i)*b**j*bb^D == aa^D*a**i*b**j*bb^D``;
    ``aa^D*a**(2+i)*b**(2+j)*bb^D == aa^D*a**i*b**j*bb^D``;
    ``aa^D*a*b*b^D == a^D*(b^D)**2``; ``aa^D*a**3*b*b^D == a^D*b*b^D``;
    ``aa^D*a**2*b*b*b^D == aa^D*b^D``; ``aa^D*a*b**2*b*b^D == a^D*b*b^D``;
    ``a*b*(I - aa^D) == 0``; ``b*a*(I - bb^D) == 0``.

    The largest power formed, ``a**(4+i)`` or ``b**(2+j)``, stays within
    the largest power L3.1 forms at its cap (``a**104`` over the rationals,
    ``a**6561`` over a prime field), so ``i`` and ``j`` are capped at 100
    and 6557; beyond the cap raises :class:`ExponentOverflow` before any
    product is formed.
    """
    c = cube_exponent_cap(a.field)
    cap = max(3**c, 26 * c) - 4
    _check_exponent("i", i, 0, cap, "L3.1-power", a.field)
    _check_exponent("j", j, 0, cap, "L3.1-power", a.field)
    rel = CrossCube()
    a, b, ws = _hypothesis(a, b, rel, ws)
    pw, pr = ws.power, ws.prod
    a_data, b_data = ws.drazin(a), ws.drazin(b)
    da, db = a_data.d, b_data.d
    aaD, bbD = pr(a, da), pr(b, db)
    zero = Matrix.zero(a.field, a.rows)
    items: List[IdentityItem] = []
    bj = pw(b, j)
    rhs12 = pr(aaD, pw(a, i), bj, bbD)
    _add(items, "L3.5-1", pr(aaD, pw(a, 4 + i), bj, bbD), rhs12)
    _add(items, "L3.5-2", pr(aaD, pw(a, 2 + i), pw(b, 2 + j), bbD), rhs12)
    _add(items, "L3.5-3", pr(aaD, a, b, db), pr(da, db, db))
    _add(items, "L3.5-4", pr(aaD, pw(a, 3), b, db), pr(da, b, db))
    _add(items, "L3.5-5", pr(aaD, pw(a, 2), b, b, db), pr(aaD, db))
    _add(items, "L3.5-6", pr(aaD, a, pw(b, 2), b, db), pr(da, b, db))
    _add(items, "L3.5-7", pr(a, b, a_data.pi), zero)
    _add(items, "L3.5-8", pr(b, a, b_data.pi), zero)
    return IdentityReport.build(rel, items)
