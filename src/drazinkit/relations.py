"""Quasi-commutation relations and itemized identity suites.

Three relations between square matrices ``a`` and ``b`` over the same field
are recognized:

* ``LambdaCommute(lam)`` - ``a*b == lam*(b*a)`` with ``lam != 0``,
* ``CrossCube`` - ``a**3*b == b*a`` and ``b**3*a == a*b``,
* ``SwappedCube`` - ``a*b**3 == b*a`` and ``b*a**3 == a*b``.

Each suite re-checks its hypothesis, then evaluates its rows of the
paper's catalog, returning an :class:`IdentityReport` whose items carry
both sides of every identity as witnesses.  Items are evaluated
unconditionally (no short-circuit after a failure) and reported in
lexicographic identity-id order, so two runs, or two implementations, agree
on the ledger layout bit for bit.

Both records, :class:`IdentityItem` and :class:`IdentityReport`, are named
tuples: immutable, hashed and compared by value, indexable and iterable in
field order, and equal to a plain tuple of the same values.

The catalog is one table of rows, ``_ROWS`` (the README lists it): an id,
a relation, two words in ``a``, ``b`` and their Drazin data, and the power
of ``lam`` on the right.  Any set of suites runs as one straight-line
function compiled on first use (:func:`_plan`), which asks for each
distinct power, product step and Drazin inverse of a pair once.

Every suite takes an optional keyword ``ws``, a
:class:`~drazinkit.drazin.Workspace` from which it takes Drazin data,
powers and every matrix product (:meth:`~drazinkit.drazin.Workspace.prod`),
its hypothesis check's included, so that suites run over a corpus compute
each once.  Without one it makes a fresh workspace, with the same results.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, ClassVar, Dict, List, NamedTuple, Optional, Tuple, Union

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


def check_relation(a: Matrix, b: Matrix, rel: RelationKind) -> bool:
    """True iff the defining equations of ``rel`` hold exactly for (a, b)."""
    return first_violation(a, b, rel) is None


def first_violation(a: Matrix, b: Matrix, rel: RelationKind) -> Optional[Dict[str, Any]]:
    """Locate the first entry (row-major) where a defining equation breaks."""
    _validate_pair(a, b, rel)
    return _located(_plan(rel.name, (), None)(Workspace(), a, b, rel)[0])


def _located(equations: "IdentityReport") -> Optional[dict]:
    for name, lhs, rhs, passed in equations.items:
        cells = [] if passed else [(i, j) for i in range(lhs.rows) for j in range(lhs.cols)]
        for i, j in cells:
            left, right = lhs.entry(i, j), rhs.entry(i, j)
            if left != right:
                return {"equation": name, "row": i, "col": j, "lhs": str(left), "rhs": str(right)}
    return None


def require_relation(
    a: Matrix, b: Matrix, rel: RelationKind, *, ws: Optional[Workspace] = None
) -> None:
    """Raise :class:`PreconditionViolated` locating the first broken entry.

    The products come from ``ws``, or from a fresh workspace without one,
    so a pair checked again in one workspace forms no product again.
    """
    _evaluate(a, b, rel, (), None, Workspace() if ws is None else ws)


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


class IdentityItem(NamedTuple):
    """One verified identity: both sides retained as failure witnesses."""

    identity_id: str
    lhs: Matrix
    rhs: Matrix
    passed: bool


class IdentityReport(NamedTuple):
    """Itemized outcome of one suite over one pair."""

    relation: RelationKind
    items: Tuple[IdentityItem, ...]
    all_pass: bool

    @classmethod
    def build(cls, relation: RelationKind, items: List[IdentityItem]) -> "IdentityReport":
        ordered = tuple(sorted(items, key=itemgetter(0)))
        return cls(relation, ordered, all(map(itemgetter(3), ordered)))

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


def _check_exponents(suites: Tuple[tuple, ...], i_max: Optional[int], field) -> None:
    """:func:`_check_exponent` on every exponent of ``suites`` (see :func:`_plan`)."""
    c = cube_exponent_cap(field)
    for name, *ij in suites:
        if name == "L2.1":
            _check_exponent("i_max", i_max, 1, lambda_exponent_cap(field), "lambda-power", field)
        elif name == "L3.1":
            _check_exponent("i_max", i_max, 1, c, "3^i growth", field)
        for var, value in zip("ij", ij):  # L3.5
            _check_exponent(var, value, 0, max(3**c, 26 * c) - 4, "L3.1-power", field)


def cube_exponent_cap(field) -> int:
    # 3^i growth: rational entries explode, residues do not.
    return 4 if field.characteristic == 0 else 8


def lambda_exponent_cap(field) -> int:
    # lam**-T(i) grows quadratically in bits over Q; residues do not grow.
    return 32 if field.characteristic == 0 else 128


# One identity, ``lhs == lam**lam_power * rhs``.  A word is a product, left
# to right, of factors separated by spaces: letters or parenthesised words,
# each with an optional power ``^e``.  The letters are a, b, aD and bD (their
# Drazin inverses), pa = I - a*aD and pb, abD = (a*b)^D, I and 0; ``b (a aD)``
# is b*(a*aD), not (b*a)*aD.  A template row's id is a format string, and its
# exponents and ``lam_power`` are expressions in i, j and T = i*(i-1)/2.
_Row = namedtuple("_Row", "id relation lhs rhs lam_power", defaults=("0",))
_L, _C, _S = LambdaCommute.name, CrossCube.name, SwappedCube.name

# The defining equations of each relation, named as a violation names them.
_EQUATIONS = (
    _Row("a*b = lam*(b*a)", _L, "a b", "b a", "1"),
    _Row("a^3*b = b*a", _C, "a^3 b", "b a"),
    _Row("b^3*a = a*b", _C, "b^3 a", "a b"),
    _Row("a*b^3 = b*a", _S, "a b^3", "b a"),
    _Row("b*a^3 = a*b", _S, "b a^3", "a b"),
)

# The catalog; a row's suite is its id up to the first "-".  Rows with i in
# the id (L2.1, L3.1) are templates over i in 1..i_max, L3.5's over its (i, j).
_ROWS = (
    _Row("L2.1-1a-i{i:02d}", _L, "a b^i", "b^i a", "i"),
    _Row("L2.1-1b-i{i:02d}", _L, "a^i b", "b a^i", "i"),
    _Row("L2.1-2a-i{i:02d}", _L, "(a b)^i", "a^i b^i", "-T"),
    _Row("L2.1-2b-i{i:02d}", _L, "(b a)^i", "b^i a^i", "T"),
    _Row("L2.2-1", _L, "aD b", "b aD", "-1"),
    _Row("L2.2-2", _L, "a bD", "bD a", "-1"),
    _Row("L2.2-3a", _L, "abD", "bD aD"),
    _Row("L2.2-3b", _L, "abD", "aD bD", "-1"),
    _Row("L2.2-4a", _L, "a aD b", "b (a aD)"),
    _Row("L2.2-4b", _L, "a (b bD)", "b bD a"),
    _Row("L3.1-1a-i{i:02d}", _C, "b a^i", "a^3*i b"),
    _Row("L3.1-1b-i{i:02d}", _C, "b^i a", "a^3**i b^i"),
    _Row("L3.1-2a-i{i:02d}", _C, "a b^i", "b^3*i a"),
    _Row("L3.1-2b-i{i:02d}", _C, "a^i b", "b^3**i a^i"),
    _Row("L3.1-3a-i{i:02d}", _C, "a b", "a^26*i (a b) b^2*i"),
    _Row("L3.1-3b-i{i:02d}", _C, "b a", "b^26*i (b a) a^2*i"),
    _Row("L3.2-1a", _C, "aD^3 b", "b aD"),
    _Row("L3.2-1b", _C, "bD^3 a", "a bD"),
    _Row("L3.2-2a", _C, "a aD b", "b (a aD)"),
    _Row("L3.2-2b", _C, "a aD bD", "bD (a aD)"),
    _Row("L3.2-3a", _C, "b bD a", "a (b bD)"),
    _Row("L3.2-3b", _C, "b bD aD", "aD (b bD)"),
    # 4b is the a<->b mirror of 4a; the one-sided product order matters on
    # noncommuting pairs (the finite-field search exhibits 24 of them at
    # p=3, n=2 where b*a^D = a^D*b**3 holds but a^D*b = a^D*b**3 fails).
    _Row("L3.2-4a", _C, "a bD", "bD a^3"),
    _Row("L3.2-4b", _C, "b aD", "aD b^3"),
    _Row("L3.2-5a", _C, "aD bD", "bD aD^3"),
    _Row("L3.2-5b", _C, "bD aD", "aD bD^3"),
    _Row("L3.2-6a", _C, "aD bD", "bD aD b^2"),
    _Row("L3.2-6b", _C, "bD aD", "aD bD a^2"),
    _Row("L3.3-1", _S, "aD bD", "b^3 a"),
    _Row("L3.3-2", _S, "bD aD", "a^3 b"),
    _Row("L3.3-3", _S, "aD b", "b aD^3"),
    _Row("L3.3-4a", _S, "a b (bD aD)", "bD aD (a b)"),
    _Row("L3.3-4b", _S, "bD aD (a b) (bD aD)", "bD aD"),
    _Row("L3.3-4c", _S, "a b", "a b (a b) (bD aD)"),
    _Row("L3.3-5a", _S, "b a (aD bD)", "aD bD (b a)"),
    _Row("L3.3-5b", _S, "aD bD (b a) (aD bD)", "aD bD"),
    _Row("L3.3-5c", _S, "b a", "b a (b a) (aD bD)"),
    _Row("L3.4-1a", _C, "aD bD", "bD^3 aD"),
    _Row("L3.4-1b", _C, "bD^3 aD", "bD aD a^2"),
    _Row("L3.4-1c", _C, "bD aD a^2", "b^2 bD aD"),
    _Row("L3.4-1d", _C, "aD bD", "b^2 bD aD"),
    _Row("L3.4-2a", _C, "bD aD", "aD^3 bD"),
    _Row("L3.4-2b", _C, "aD^3 bD", "aD bD b^2"),
    _Row("L3.4-2c", _C, "aD bD b^2", "a^2 aD bD"),
    _Row("L3.4-2d", _C, "bD aD", "a^2 aD bD"),
    _Row("L3.5-1", _C, "a aD a^4+i b^j (b bD)", "a aD a^i b^j (b bD)"),
    _Row("L3.5-2", _C, "a aD a^2+i b^2+j (b bD)", "a aD a^i b^j (b bD)"),
    _Row("L3.5-3", _C, "a aD a b bD", "aD bD bD"),
    _Row("L3.5-4", _C, "a aD a^3 b bD", "aD b bD"),
    _Row("L3.5-5", _C, "a aD a^2 b b bD", "a aD bD"),
    _Row("L3.5-6", _C, "a aD a b^2 b bD", "aD b bD"),
    _Row("L3.5-7", _C, "a b pa", "0"),
    _Row("L3.5-8", _C, "b a pb", "0"),
)

# A Drazin letter: the word whose Drazin data it is, and the field it reads.
_DRAZIN_LETTERS = {
    "aD": ("a", "d"), "bD": ("b", "d"), "pa": ("a", "pi"), "pb": ("b", "pi"), "abD": ("a b", "d"),
}


def _instance(row: _Row, i: int = 0, j: int = 0) -> _Row:
    """``row`` at (i, j), with its id formatted and every exponent an integer."""
    scope = {"__builtins__": {}, "i": i, "j": j, "T": i * (i - 1) // 2}

    def at(word: str) -> str:
        return re.sub(r"\^([^\s()]+)", lambda m: f"^{eval(m[1], scope)}", word)

    lam_power = eval(row.lam_power, scope)
    return _Row(row.id.format(i=i), row.relation, at(row.lhs), at(row.rhs), lam_power)


def _rows(suite: tuple, i_max: Optional[int]) -> List[_Row]:
    """The rows of ``suite`` (see :func:`_plan`) in id order, each template
    over i at each i in 1..i_max."""
    name, *ij = suite
    out = []
    for row in _ROWS:
        if row.id.partition("-")[0] == name:
            at = [(i,) for i in range(1, i_max + 1)] if "{i" in row.id else [ij]
            out += [_instance(row, *x) for x in at]
    return sorted(out, key=itemgetter(0))


@lru_cache(maxsize=1024)
def _parse(word: str) -> tuple:
    """A word as a tuple of ``(atom, exponent)`` factors, an atom being a
    letter or, for a parenthesised word, a tuple of factors."""
    stack: List[list] = [[]]
    for token in word.replace("(", "( ").replace(")", " )").split():
        if token == "(":
            stack.append([])
            continue
        atom, _, e = token.partition("^")
        factor = (tuple(stack.pop()) if atom == ")" else atom, int(e or 1))
        stack[-1].append(factor)
    (factors,) = stack
    return tuple(factors)


@lru_cache(maxsize=64)
def _plan(relation: str, suites: Tuple[tuple, ...], i_max: Optional[int]) -> Callable:
    """``run(ws, a, b, rel)``: the report of ``relation``'s defining
    equations and, if they hold, one report per suite (its name, then
    L3.5's ``(i, j)``; L2.1 and L3.1 take ``i_max``), as straight-line code.

    Each distinct power, product step and Drazin inverse of the rows is one
    local variable, asked of ``ws`` once per run: local common
    subexpressions by value numbering (Aho, Lam, Sethi & Ullman,
    *Compilers*, 2nd ed., 2006, §8.5).  The steps are the words' own.
    """
    lines = ["pr, pw, dz = ws.prod, ws.power, ws.drazin", "lam = getattr(rel, 'lam', None)"]
    names: Dict[tuple, str] = {}

    def node(key: tuple, expr: str) -> str:
        if key not in names:
            names[key] = f"v{len(names)}"
            lines.append(f"{names[key]} = {expr}")
        return names[key]

    def letter(x: str) -> str:
        if x in ("a", "b"):
            return x
        if x in ("I", "0"):
            return node((x,), "pw(a, 0)" if x == "I" else "Matrix.zero(a.field, a.rows)")
        source, field = _DRAZIN_LETTERS[x]
        data = node(("drazin", source), f"dz({word(_parse(source))})")
        return node((field, data), f"{data}.{field}")

    def word(factors: tuple) -> str:
        value = ""
        for atom, e in factors:
            x = letter(atom) if isinstance(atom, str) else word(atom)
            if e != 1:
                x = letter("I") if e == 0 else node(("power", x, e), f"pw({x}, {e})")
            value = node(("prod", value, x), f"pr({value}, {x})") if value else x
        return value

    def report(rows: List[_Row]) -> str:
        items, verdicts = [], []
        for row in rows:
            lhs, rhs = word(_parse(row.lhs)), word(_parse(row.rhs))
            if row.lam_power:
                scale = node(("lam", row.lam_power), f"lam ** {row.lam_power}")
                rhs = node(("scale", scale, rhs), f"{rhs} * {scale}")
            verdicts.append(node(("eq", lhs, rhs), f"{lhs} == {rhs}"))
            items.append(f"new(Item, ({row.id!r}, {lhs}, {rhs}, {verdicts[-1]}))")
        return f"new(Report, (rel, ({', '.join(items)},), {' and '.join(verdicts)}))"

    equations = [_instance(row) for row in _EQUATIONS if row.relation == relation]
    lines.append(f"equations = {report(equations)}")
    lines.append("if not equations.all_pass: return (equations,)")
    reports = "".join(report(_rows(suite, i_max)) + ", " for suite in suites)
    lines.append(f"return (equations, {reports})")
    source = "def run(ws, a, b, rel):\n    " + "\n    ".join(lines) + "\n"
    namespace = dict(new=tuple.__new__, Item=IdentityItem, Report=IdentityReport, Matrix=Matrix)
    exec(compile(source, f"<plan {relation}>", "exec"), namespace)
    return namespace["run"]


def _evaluate(
    a: Matrix, b: Matrix, rel: RelationKind, suites: tuple, i_max: Optional[int], ws: Workspace
) -> List[IdentityReport]:
    """The reports of ``suites`` on a pair of ``ws``'s own matrices after
    one check of ``rel``, from one run of their :func:`_plan`; an exponent
    out of range is refused first."""
    _check_exponents(suites, i_max, a.field)
    _validate_pair(a, b, rel)
    equations, *reports = _plan(rel.name, suites, i_max)(ws, a, b, rel)
    if not equations.all_pass:
        v = _located(equations)
        raise PreconditionViolated(
            f"pair does not satisfy {rel.name}: {v['equation']} fails at entry "
            f"({v['row']}, {v['col']}): {v['lhs']} != {v['rhs']}",
            v,
        )
    return reports


def _checked(
    a: Matrix, b: Matrix, rel: RelationKind, ws: Optional[Workspace], suites=(), i_max=None
) -> Tuple[Matrix, Matrix, Workspace, List[IdentityReport]]:
    """The operands interned in ``ws`` (a fresh workspace without one),
    that workspace, and the reports of ``suites`` after one check of ``rel``."""
    ws = Workspace() if ws is None else ws
    a, b = ws.intern(a), ws.intern(b)
    return a, b, ws, _evaluate(a, b, rel, suites, i_max, ws)


def _suite(a: Matrix, b: Matrix, rel: RelationKind, suite: tuple, i_max, ws) -> IdentityReport:
    return _checked(a, b, rel, ws, (suite,), i_max)[3][0]


def lemma21_suite(
    a: Matrix, b: Matrix, lam: FieldScalar, i_max: int, *, ws: Optional[Workspace] = None
) -> IdentityReport:
    """Power identities under ``a*b == lam*(b*a)``, for each i in 1..i_max.

    ``lam**-T(i)`` grows quadratically in ``i``, so ``i_max`` is capped (32
    over the rationals, 128 over a prime field); beyond the cap raises
    :class:`ExponentOverflow` before any product is formed.
    """
    return _suite(a, b, LambdaCommute(lam), ("L2.1",), i_max, ws)


def lemma22_suite(
    a: Matrix, b: Matrix, lam: FieldScalar, *, ws: Optional[Workspace] = None
) -> IdentityReport:
    """Drazin-inverse identities under ``a*b == lam*(b*a)``, e.g.
    ``(a*b)^D == b^D*a^D == lam**-1*(a^D*b^D)``."""
    return _suite(a, b, LambdaCommute(lam), ("L2.2",), None, ws)


def lemma31_suite(
    a: Matrix, b: Matrix, i_max: int, *, ws: Optional[Workspace] = None
) -> IdentityReport:
    """Power identities under the cross-cube relation, i in 1..i_max.

    Exponents reach ``3**i`` and ``26*i`` and are never reduced, so
    ``i_max`` is capped (4 over the rationals, 8 over a prime field);
    beyond the cap raises :class:`ExponentOverflow`.
    """
    return _suite(a, b, CrossCube(), ("L3.1",), i_max, ws)


def lemma32_suite(a: Matrix, b: Matrix, *, ws: Optional[Workspace] = None) -> IdentityReport:
    """Drazin-inverse identities under the cross-cube relation (12 items)."""
    return _suite(a, b, CrossCube(), ("L3.2",), None, ws)


def lemma33_suite(a: Matrix, b: Matrix, *, ws: Optional[Workspace] = None) -> IdentityReport:
    """Identities under the swapped-cube relation.  ``(a*b)^# == b^D*a^D``
    and its mirror are certified by the three group-inverse equations of
    the candidate (commutation, inner inverse, ``x == x**2*g``)."""
    return _suite(a, b, SwappedCube(), ("L3.3",), None, ws)


def lemma34_suite(a: Matrix, b: Matrix, *, ws: Optional[Workspace] = None) -> IdentityReport:
    """The chain ``a^D*b^D == (b^D)**3*a^D == b^D*a^D*a**2 == b**2*b^D*a^D``
    and its mirror under cross-cube: items 1a-1c/2a-2c are the consecutive
    equalities, 1d/2d close each chain end to end."""
    return _suite(a, b, CrossCube(), ("L3.4",), None, ws)


def lemma35_suite(
    a: Matrix, b: Matrix, i: int, j: int, *, ws: Optional[Workspace] = None
) -> IdentityReport:
    """Projector-absorption identities under cross-cube at exponents i, j.

    The largest power formed, ``a**(4+i)`` or ``b**(2+j)``, stays within the
    largest L3.1 forms at its cap (``a**104`` over Q, ``a**6561`` over F_p),
    so ``i`` and ``j`` are capped at 100 and 6557; beyond the cap raises
    :class:`ExponentOverflow` before any product is formed.
    """
    return _suite(a, b, CrossCube(), ("L3.5", i, j), None, ws)
