"""Matrix-pair generators: structured families and exhaustive search.

Every suite in this library runs over pairs produced here.  Structured
families build pairs that satisfy a relation by construction; the
exhaustive search enumerates *all* pairs over a small prime field and is
the independent oracle that the structured families cannot be (it finds
genuinely noncommuting examples nobody would write by hand).  ``gen_pair``
checks each family's pair against its relation, and a failure, a generator
bug, raises InternalCertificationFailure.  Search hits go unchecked: the tests
compare the search with a brute force, and every suite re-checks its pair.

Families
--------
* ``WeightedShift(n)`` (lambda-commute only): ``a`` is the upper shift,
  ``b = diag(lam**0, ..., lam**(n-1))``; then ``a*b == lam*(b*a)`` with
  ``ind(a) == n`` and ``b`` invertible.
* ``DiagTripotents(n, pattern)``: commuting diagonal tripotents (entries
  in {-1, 0, 1}); satisfies the cross-cube and swapped-cube relations and
  lambda-commutation with ``lam == 1``.
* ``ScalarTimesIdentity(n, scale)``: ``a = scale*I`` with a random
  invertible diagonal ``b`` (lambda-commute, ``lam == 1``) or a random
  diagonal tripotent ``b`` (cube relations, ``scale`` in {1, -1}).
* ``DirectSum(left, right)`` and ``Conjugated(inner, seed)``: closure
  combinators; both preserve every relation.
* ``TrivialZeroB(n)``: ``b = 0`` with a structured random ``a`` (mixes
  invertible, diagonal, nilpotent-block and dense shapes so indices vary).
* ``ExhaustiveHit(p, n, ordinal)``: the ordinal-th nontrivial hit
  (``a*b != 0``) of the exhaustive search over F_p, in its canonical order.

:func:`parse_family` reads a family from its ``gen --family`` descriptor.

The search's arithmetic on residue tuples, :func:`_unrolled`, is
straight-line code generated for each dimension ``n`` (1 to 3, all the
search takes) on the first search at that ``n``: at this size the loops
and index arithmetic of a generic product cost several times its
multiplications, and compiling all three takes about 3 ms, which the
import and the commands without a search do not pay.

Determinism: generation is a pure function of (family, relation, field,
seed), and search output is a pure function of its ``SearchSpec``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import (
    BudgetExceeded,
    FieldMismatch,
    IncompatibleFamily,
    InternalCertificationFailure,
    ParseError,
    ShapeMismatch,
)
from .fields import Field, FieldScalar, PrimeField
from .matrices import Matrix, _check_dimension, _stored
from .relations import (
    CrossCube,
    LambdaCommute,
    RelationKind,
    SwappedCube,
    check_relation,
    relation_from_json_fields,
    relation_to_json_fields,
)

__all__ = [
    "WeightedShift",
    "DiagTripotents",
    "ScalarTimesIdentity",
    "DirectSum",
    "Conjugated",
    "TrivialZeroB",
    "ExhaustiveHit",
    "PairFamily",
    "SearchSpec",
    "CorpusPair",
    "describe_family",
    "gen_pair",
    "random_invertible",
    "exhaustive_search",
    "cached_hits",
    "default_lambda_values",
    "default_lambda_corpus",
    "default_cube_corpus",
    "exhaustive_hits_corpus",
    "corpus_to_json_obj",
    "corpus_from_json_obj",
    "pair_from_json_obj",
    "DEFAULT_SEARCH_BUDGET",
]

DEFAULT_SEARCH_BUDGET = 10_000_000

# Upper bound of the hits of one search, checked after each ``a``.  The
# budget bounds the space, not the hits: under lambda-commute with lambda 1
# at n = 1 every pair is a hit, so ``search --mod 1009 --dim 1`` is inside
# the default budget and would write 1,018,081 hits (132 MB of JSON).  The
# most hits of a search in the tests, demos, README and goldens is 182,056
# (p = 3, n = 3, cross-cube, nontrivial); the whole p = 3, n = 3 space
# under lambda-commute with lambda 1 has 809,433.
_MAX_HITS = 1_000_000

_TRIPOTENT_ENTRIES = (-1, 0, 1)


@dataclass(frozen=True)
class WeightedShift:
    n: int


@dataclass(frozen=True)
class DiagTripotents:
    n: int
    # None means: draw both diagonals from {-1, 0, 1} with the seed.
    pattern: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None


@dataclass(frozen=True)
class ScalarTimesIdentity:
    n: int
    scale: int = -1


@dataclass(frozen=True)
class DirectSum:
    left: "PairFamily"
    right: "PairFamily"


@dataclass(frozen=True)
class Conjugated:
    inner: "PairFamily"
    seed: int


@dataclass(frozen=True)
class TrivialZeroB:
    n: int


@dataclass(frozen=True)
class ExhaustiveHit:
    p: int
    n: int
    ordinal: int


PairFamily = Union[
    WeightedShift,
    DiagTripotents,
    ScalarTimesIdentity,
    DirectSum,
    Conjugated,
    TrivialZeroB,
    ExhaustiveHit,
]


def describe_family(family: PairFamily) -> str:
    """Stable provenance string for corpus files and reports."""
    if isinstance(family, WeightedShift):
        return f"weighted-shift(n={family.n})"
    if isinstance(family, DiagTripotents):
        if family.pattern is None:
            return f"diag-tripotents(n={family.n}, seeded)"
        pa = ",".join(str(x) for x in family.pattern[0])
        pb = ",".join(str(x) for x in family.pattern[1])
        return f"diag-tripotents(n={family.n}, a=[{pa}], b=[{pb}])"
    if isinstance(family, ScalarTimesIdentity):
        return f"scalar-identity(n={family.n}, scale={family.scale})"
    if isinstance(family, DirectSum):
        return f"direct-sum({describe_family(family.left)}, {describe_family(family.right)})"
    if isinstance(family, Conjugated):
        return f"conjugated({describe_family(family.inner)}, seed={family.seed})"
    if isinstance(family, TrivialZeroB):
        return f"zero-b(n={family.n})"
    if isinstance(family, ExhaustiveHit):
        return f"exhaustive(p={family.p}, n={family.n}, ordinal={family.ordinal})"
    raise IncompatibleFamily(f"unknown family {family!r}", {"family": repr(family)})


# --------------------------------------------------------------------------
# family descriptor grammar:  name(arg;arg;...), nested families allowed
# --------------------------------------------------------------------------

# Deepest nesting of families in one descriptor: parsing and generation recurse
# once per level.  The default corpora nest at most 3 deep.
_MAX_FAMILY_DEPTH = 64


def _split_args(body: str) -> List[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
            if depth >= _MAX_FAMILY_DEPTH:  # the body is one level in already
                raise ParseError(
                    f"family descriptor nests deeper than {_MAX_FAMILY_DEPTH} levels",
                    {"cap": _MAX_FAMILY_DEPTH},
                )
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(
                    f"unbalanced parentheses in family {body!r}", {"family": body}
                )
        elif ch == ";" and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    if depth:
        raise ParseError(f"unbalanced parentheses in family {body!r}", {"family": body})
    parts.append(body[start:])
    return [p.strip() for p in parts]


def _int_arg(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(
            f"{what} must be an integer, got {text!r}", {what.replace(" ", "_"): text}
        )


def _size_arg(text: str) -> int:
    n = _int_arg(text, "n")
    if n < 1:
        raise ParseError(f"n must be positive, got {n}", {"n": n})
    _check_dimension(n, "family size")
    return n


def _family_walk(family: PairFamily) -> Tuple[int, int]:
    """``(n, work)``: the size of ``family``'s n x n pairs, and ``m**3``
    summed over the conjugations in it, each of an m x m pair."""
    if isinstance(family, DirectSum):
        n_left, work_left = _family_walk(family.left)
        n_right, work_right = _family_walk(family.right)
        return n_left + n_right, work_left + work_right
    if isinstance(family, Conjugated):
        n, work = _family_walk(family.inner)
        return n, work + n**3
    return family.n, 0


def _gen_work(family: PairFamily) -> int:
    """The work of one n x n pair of ``family``: n**2, plus m**3 per m x m conjugation."""
    n, work = _family_walk(family)
    return n**2 + work


def parse_family(text: str) -> PairFamily:
    """Parse a family descriptor.

    Grammar: ``name(arg;...)`` with nested descriptors, e.g.
    ``weighted-shift(3)``, ``diag-tripotents(3;1,-1,0;-1,1,1)``,
    ``scalar-identity(2;-1)``, ``zero-b(2)``, ``exhaustive(3;2;0)``,
    ``conjugated(weighted-shift(2);7)``,
    ``direct-sum(weighted-shift(2);zero-b(1))``.
    """
    text = text.strip()
    open_at = text.find("(")
    if open_at < 0 or not text.endswith(")"):
        raise ParseError(
            f"family descriptor {text!r} must look like name(args)", {"family": text}
        )
    name = text[:open_at].strip()
    args = _split_args(text[open_at + 1 : -1])
    if name == "weighted-shift" and len(args) == 1:
        return WeightedShift(_size_arg(args[0]))
    if name == "diag-tripotents" and len(args) in (1, 3):
        n = _size_arg(args[0])
        if len(args) == 1:
            return DiagTripotents(n)
        pa = tuple(_int_arg(x, "pattern entry") for x in args[1].split(","))
        pb = tuple(_int_arg(x, "pattern entry") for x in args[2].split(","))
        return DiagTripotents(n, (pa, pb))
    if name == "scalar-identity" and len(args) in (1, 2):
        n = _size_arg(args[0])
        scale = _int_arg(args[1], "scale") if len(args) == 2 else -1
        return ScalarTimesIdentity(n, scale)
    if name == "zero-b" and len(args) == 1:
        return TrivialZeroB(_size_arg(args[0]))
    if name == "conjugated" and len(args) == 2:
        return Conjugated(parse_family(args[0]), _int_arg(args[1], "seed"))
    if name == "direct-sum" and len(args) == 2:
        family = DirectSum(parse_family(args[0]), parse_family(args[1]))
        _check_dimension(_family_walk(family)[0], "family size")
        return family
    if name == "exhaustive" and len(args) == 3:
        return ExhaustiveHit(
            _int_arg(args[0], "p"),
            _size_arg(args[1]),
            _int_arg(args[2], "ordinal"),
        )
    raise ParseError(f"unknown family descriptor {text!r}", {"family": text})


# --------------------------------------------------------------------------
# seeded building blocks
# --------------------------------------------------------------------------


def _mix(seed: int, salt: int) -> int:
    # Deterministic child-seed derivation; keeps sibling streams apart.
    return (seed * 1_000_003 + salt * 7_919 + 12_345) % (2**31)


def _rand_unit(field: Field, rng: Random):
    # A random invertible scalar, as a raw field value.
    if field.characteristic == 0:
        num = rng.choice((1, 2, 3, -1, -2, 5))
        den = rng.choice((1, 1, 2, 3))
        return Fraction(num, den)
    return rng.randrange(1, field.characteristic)


def _rand_entry(field: Field, rng: Random) -> int:
    if field.characteristic == 0:
        return rng.randint(-3, 3)
    return rng.randrange(field.characteristic)


def random_invertible(field: Field, n: int, seed: int) -> Matrix:
    """Seeded invertible matrix: permutation times unit triangulars.

    The construction P*L*U with unit diagonals has determinant +-1, so it
    is invertible over every field regardless of the entries drawn.
    """
    if n < 1:
        raise ShapeMismatch("dimensions must be positive", {"shape": [n, n]})
    rng = Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    p_rows = tuple(tuple(int(j == perm[i]) for j in range(n)) for i in range(n))
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.6:
                lower[i][j] = _rand_entry(field, rng)
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                upper[i][j] = _rand_entry(field, rng)
    # Integer entries, each a residue over F_p: the stored form with den 1.
    pm = _stored(field, p_rows, 1)
    lm = _stored(field, tuple(map(tuple, lower)), 1)
    um = _stored(field, tuple(map(tuple, upper)), 1)
    return pm * lm * um


def _structured_square(field: Field, n: int, seed: int) -> Matrix:
    """Seeded square matrix mixing index profiles (for the b = 0 family)."""
    rng = Random(seed)
    kind = rng.choice(("invertible", "diagonal", "nilpotent-mix", "dense"))
    if n == 1 and kind == "nilpotent-mix":
        kind = "diagonal"
    if kind == "invertible":
        return random_invertible(field, n, _mix(seed, 1))
    if kind == "diagonal":
        return Matrix.diagonal(field, [_rand_entry(field, rng) for _ in range(n)])
    if kind == "nilpotent-mix":
        k = rng.randint(2, min(3, n)) if n >= 2 else 1
        jordan = _upper_shift(field, k)
        if k == n:
            return jordan
        tail = Matrix.diagonal(
            field, [field.scalar(_rand_unit(field, rng)) for _ in range(n - k)]
        )
        return jordan.direct_sum(tail)
    return Matrix.from_rows(
        field, [[_rand_entry(field, rng) for _ in range(n)] for _ in range(n)]
    )


def _upper_shift(field: Field, n: int) -> Matrix:
    """The n x n nilpotent Jordan block: ones just above the diagonal."""
    return _stored(
        field, tuple(tuple(int(j == i + 1) for j in range(n)) for i in range(n)), 1
    )


def _seeded_tripotent_diag(field: Field, n: int, rng: Random) -> Matrix:
    return Matrix.diagonal(field, [rng.choice(_TRIPOTENT_ENTRIES) for _ in range(n)])


# --------------------------------------------------------------------------
# family dispatch
# --------------------------------------------------------------------------


def _gen_pair(
    family: PairFamily, rel: RelationKind, field: Field, seed: int
) -> Tuple[Matrix, Matrix]:
    if isinstance(family, WeightedShift):
        if not isinstance(rel, LambdaCommute):
            raise IncompatibleFamily(
                "weighted-shift pairs only satisfy lambda-commutation",
                {"family": describe_family(family), "relation": rel.name},
            )
        b = Matrix.diagonal(field, [rel.lam**i for i in range(family.n)])
        return _upper_shift(field, family.n), b

    if isinstance(family, DiagTripotents):
        if isinstance(rel, LambdaCommute) and rel.lam != 1:
            raise IncompatibleFamily(
                "diagonal tripotents commute, so lambda must be 1",
                {"family": describe_family(family), "lambda": str(rel.lam)},
            )
        if family.pattern is None:
            rng = Random(_mix(seed, 3))
            a = _seeded_tripotent_diag(field, family.n, rng)
            b = _seeded_tripotent_diag(field, family.n, rng)
            return a, b
        pa, pb = family.pattern
        if len(pa) != family.n or len(pb) != family.n:
            raise IncompatibleFamily(
                "pattern length differs from n",
                {"n": family.n, "lengths": [len(pa), len(pb)]},
            )
        if any(x not in _TRIPOTENT_ENTRIES for x in pa + pb):
            raise IncompatibleFamily(
                "tripotent patterns use entries -1, 0, 1 only",
                {"entries": sorted({x for x in pa + pb if x not in _TRIPOTENT_ENTRIES})},
            )
        return Matrix.diagonal(field, pa), Matrix.diagonal(field, pb)

    if isinstance(family, ScalarTimesIdentity):
        n, scale = family.n, family.scale
        value = field.reduce(scale)
        if not value:
            raise IncompatibleFamily(
                "scale must be a unit of the field",
                {"scale": scale, "field": field.to_json_obj()},
            )
        a = Matrix.diagonal(field, [scale] * n)
        rng = Random(_mix(seed, 5))
        if isinstance(rel, LambdaCommute):
            if rel.lam != 1:
                raise IncompatibleFamily(
                    "scalar multiples of I commute, so lambda must be 1",
                    {"family": describe_family(family), "lambda": str(rel.lam)},
                )
            b = Matrix.diagonal(
                field, [field.scalar(_rand_unit(field, rng)) for _ in range(n)]
            )
            return a, b
        if value not in (1, field.reduce(-1)):
            raise IncompatibleFamily(
                "cube relations need a**3 == a, so scale must be 1 or -1",
                {"scale": scale, "relation": rel.name},
            )
        return a, _seeded_tripotent_diag(field, n, rng)

    if isinstance(family, DirectSum):
        a1, b1 = _gen_pair(family.left, rel, field, _mix(seed, 11))
        a2, b2 = _gen_pair(family.right, rel, field, _mix(seed, 13))
        return a1.direct_sum(a2), b1.direct_sum(b2)

    if isinstance(family, Conjugated):
        a0, b0 = _gen_pair(family.inner, rel, field, seed)
        s = random_invertible(field, a0.rows, family.seed)
        s_inv = s.inverse()
        return s * a0 * s_inv, s * b0 * s_inv

    if isinstance(family, TrivialZeroB):
        a = _structured_square(field, family.n, _mix(seed, 17))
        return a, Matrix.zero(field, family.n)

    if isinstance(family, ExhaustiveHit):
        hit_field = PrimeField(family.p)
        if field != hit_field:
            raise IncompatibleFamily(
                f"exhaustive hits live over F_{family.p}, not {field}",
                {"family": describe_family(family), "field": field.to_json_obj()},
            )
        hits = cached_hits(family.p, family.n, rel)
        if not 0 <= family.ordinal < len(hits):
            raise IncompatibleFamily(
                f"ordinal {family.ordinal} out of range: "
                f"{len(hits)} nontrivial hits at p={family.p}, n={family.n}",
                {"ordinal": family.ordinal, "hits": len(hits)},
            )
        return hits[family.ordinal]

    raise IncompatibleFamily(f"unknown family {family!r}", {"family": repr(family)})


def gen_pair(
    family: PairFamily, rel: RelationKind, field: Field, seed: int
) -> Tuple[Matrix, Matrix]:
    """Pair over ``field`` satisfying ``rel``; deterministic in its arguments.

    The pair is checked against ``rel`` before it is returned.  A lambda
    over another field than ``field`` raises :class:`FieldMismatch`.
    """
    a, b = _gen_pair(family, rel, field, seed)
    if not check_relation(a, b, rel):
        raise InternalCertificationFailure(
            f"family {describe_family(family)} emitted a pair violating its relation"
        )
    return a, b


# --------------------------------------------------------------------------
# exhaustive search
# --------------------------------------------------------------------------


def _check_search_dimension(n: Any) -> None:
    if type(n) is not int or not 1 <= n <= 3:  # a bool is refused
        raise ParseError(f"search dimension must be 1..3, got {n!r}", {"n": n})


@dataclass(frozen=True)
class SearchSpec:
    """Full enumeration space: all (a, b) with entries from a subset of F_p.

    ``n`` is capped at 3 (the space grows as ``d**(2*n*n)``).  When
    ``require_nontrivial`` is set, hits with ``a*b == 0`` are dropped
    (which also drops every ``b == 0`` hit).
    """

    p: int
    n: int
    relation: RelationKind
    entry_bound: Optional[Tuple[int, ...]] = None
    require_nontrivial: bool = False

    def __post_init__(self):
        field = PrimeField(self.p)  # validates primality
        _check_search_dimension(self.n)
        if self.entry_bound is not None:
            # Types first: sorting fails on mixed types, and a set could keep
            # a bool in place of the int it equals.
            values = [v for v in self.entry_bound if type(v) is not int]
            values = values or sorted(set(self.entry_bound))
            if not values:
                raise ParseError("entry_bound must be nonempty", {"entry_bound": []})
            for v in values:
                if type(v) is not int or not 0 <= v < self.p:
                    raise ParseError(
                        f"entry_bound value {v!r} is not a residue mod {self.p}",
                        {"entry_bound": v, "modulus": self.p},
                    )
            object.__setattr__(self, "entry_bound", tuple(values))
        rel = self.relation
        if not isinstance(rel, (LambdaCommute, CrossCube, SwappedCube)):
            raise ParseError(
                f"search relation must be a relation kind, got {rel!r}",
                {"relation": repr(rel)},
            )
        if type(self.require_nontrivial) is not bool:
            # The search branches on it, so "no" must not read as true.
            raise ParseError(
                f"require_nontrivial must be a bool, got {self.require_nontrivial!r}",
                {"require_nontrivial": repr(self.require_nontrivial)},
            )
        if isinstance(rel, LambdaCommute) and rel.lam.field != field:
            raise FieldMismatch(
                f"search relation lambda must live over F_{self.p}",
                {"lambda": rel.lam.field.to_json_obj(), "search": field.to_json_obj()},
            )

    def domain(self) -> Tuple[int, ...]:
        return self.entry_bound if self.entry_bound is not None else tuple(range(self.p))

    def space_size(self) -> int:
        # From the domain's size alone: building range(p) for a large p
        # would exhaust memory before the budget check could refuse it.
        d = len(self.entry_bound) if self.entry_bound is not None else self.p
        return d ** (2 * self.n * self.n)


class _Unrolled(NamedTuple):
    """The search's arithmetic on ``n x n`` residue matrices, row-major
    tuples, mod ``p``: ``flat_mul(x, y, p)`` is ``x*y``;
    ``products_equal(x, y, u, v, p)`` whether ``x*y == u*v``, decided at
    the first entry that differs; ``product_nonzero(x, y, p)`` whether
    ``x*y != 0``, decided at the first nonzero entry; and
    ``sylvester_rows(x, y, mu, p)`` the matrix of ``b -> x*b - mu*b*y`` on
    row-major ``b``, by rows: entry ``(i*n + j, r*n + c)`` is
    ``x[i][r]*[c == j] - mu*[i == r]*y[c][j]``."""

    flat_mul: Callable[..., Tuple[int, ...]]
    products_equal: Callable[..., bool]
    product_nonzero: Callable[..., bool]
    sylvester_rows: Callable[..., List[Tuple[int, ...]]]


@lru_cache(maxsize=None)
def _unrolled(n: int) -> _Unrolled:
    """The functions of :class:`_Unrolled` for one search dimension ``n``,
    as straight-line code: the entries unpacked, one expression per entry,
    with no loop and no index arithmetic.  The source depends on ``n``
    alone and is compiled on the first search at ``n``, not at import."""
    _check_search_dimension(n)
    span = range(n)
    cells = [(i, j) for i in span for j in span]

    def unpack(*names: str) -> str:
        return "\n    ".join(
            ", ".join(f"{v}{q}" for q in range(n * n)) + f", = {v}" for v in names
        )

    def entry(x: str, y: str, i: int, j: int, sign: str = "+") -> str:
        return f" {sign} ".join(f"{x}{i * n + k} * {y}{k * n + j}" for k in span)

    def coefficient(i: int, j: int, r: int, c: int) -> str:
        x_term = f"x{i * n + r}" if c == j else ""
        y_term = f" - mu * y{c * n + j}" if i == r else ""
        return f"({x_term}{y_term}) % p" if x_term or y_term else "0"

    products = [f"({entry('x', 'y', i, j)}) % p" for i, j in cells]
    differences = [
        f"({entry('x', 'y', i, j)} - {entry('u', 'v', i, j, '-')}) % p" for i, j in cells
    ]
    rows = [f"({', '.join(coefficient(i, j, r, c) for r, c in cells)},)" for i, j in cells]
    source = f"""
def flat_mul(x, y, p):
    {unpack('x', 'y')}
    return ({', '.join(products)},)

def products_equal(x, y, u, v, p):
    {unpack('x', 'y', 'u', 'v')}
    return not ({' or '.join(differences)})

def product_nonzero(x, y, p):
    {unpack('x', 'y')}
    return ({' or '.join(products)}) != 0

def sylvester_rows(x, y, mu, p):
    {unpack('x', 'y')}
    return [{', '.join(rows)}]
"""
    namespace: Dict[str, Any] = {}
    exec(compile(source, f"<unrolled n={n}>", "exec"), namespace)
    return _Unrolled(*(namespace[name] for name in _Unrolled._fields))


def _kernel(
    matrix: Sequence[Tuple[int, ...]],
    domain: Tuple[int, ...],
    p: int,
    low: Optional[Tuple[int, ...]] = None,
) -> List[Tuple[int, ...]]:
    """Every ``b`` in ``domain**width`` with ``matrix*b == 0`` mod ``p``, in
    ascending order, where ``width`` is the length of a row of ``matrix`` and
    ``domain`` is ascending; with ``low``, only those with ``b >= low``.

    The columns are eliminated from the last to the first, forward only, so
    the row of a pivot column holds no later column: its entry of ``b`` is
    fixed by the earlier ones.  ``b`` is then built one column at a time,
    breadth first and in order: a free column takes each value of
    ``domain``, a pivot column its fixed value if that lies in ``domain``,
    and a prefix below the same prefix of ``low`` is dropped at once.
    """
    width = len(matrix[0])
    # The rows not yet used as a pivot, each zero right of the column c.
    rows = [row for row in matrix if any(row)]
    # fixed[c]: b[c] == sum(fixed[c][j] * b[j] for j < c) at a pivot column c
    fixed: List[Optional[List[int]]] = [None] * width
    for c in range(width - 1, -1, -1):
        for k, pivot in enumerate(rows):
            if pivot[c]:
                break
        else:
            continue
        del rows[k]
        inv = pow(pivot[c], -1, p)
        coeffs = fixed[c] = [-v * inv % p for v in pivot[:c]]
        # Rows before k are zero at c; the others drop column c and after.
        for i in range(k, len(rows)):
            g = rows[i][c]
            if g:
                rows[i] = [(u + g * v) % p for u, v in zip(rows[i], coeffs)]
    allowed = set(domain)
    members: List[Tuple[int, ...]] = [()]
    for c, coeffs in enumerate(fixed):
        if coeffs is None:
            members = [b + (v,) for b in members for v in domain]
        else:
            members = [
                b + (v,)
                for b in members
                if (v := sum(map(operator.mul, coeffs, b)) % p) in allowed
            ]
        if low is not None:
            # The prefixes ascend, so those below low's lead.
            del members[: bisect.bisect_left(members, low[: c + 1])]
        if not members:
            break
    return members


def _domain_units(domain: Tuple[int, ...], p: int) -> List[int]:
    """The units ``m`` with ``m*D == D`` for the domain ``D``, ascending, or
    just 1 when ``D == {0}``, so that no loop runs over every unit.

    They form a subgroup of the cyclic group of units, of some order
    ``k``.  The cosets of the subgroup of order ``k`` are the fibers of
    ``x -> x**k``, and the nonzero values of ``D`` are a union of those
    cosets exactly when each fiber holds ``k`` of them or none.  So ``k``
    is the largest divisor of ``p - 1`` and of their number for which
    that holds.
    """
    nonzero = [v for v in domain if v]
    if not nonzero:
        return [1]
    size = math.gcd(p - 1, len(nonzero))
    for k in range(size, 0, -1):
        if size % k == 0 and all(
            count == k for count in Counter(pow(v, k, p) for v in nonzero).values()
        ):
            break
    inv = pow(nonzero[0], -1, p)
    return sorted(v * inv % p for v in nonzero if pow(v * inv, k, p) == 1)


Conjugation = Tuple[Tuple[int, int], ...]


def _symmetries(spec: SearchSpec) -> Tuple[List[Conjugation], List[int]]:
    """The group the search walks ``a`` by (see :func:`_search_flat`): its
    conjugations ``x -> S*x*S**-1``, the identity first, and its scales of
    ``a``.  Entry ``q`` of the image of row-major ``x`` under a conjugation
    is ``x[src]*mul`` mod ``p`` for the conjugation's ``q``-th ``(src, mul)``.
    """
    p, n = spec.p, spec.n
    units = _domain_units(spec.domain(), p)
    conjugations = []
    for perm in itertools.permutations(range(n)):
        for tail in itertools.product(units, repeat=n - 1):
            diag = (1,) + tail
            entries = [(0, 0)] * (n * n)
            for i in range(n):
                for j in range(n):
                    mul = diag[i] * pow(diag[j], -1, p) % p
                    entries[perm[i] * n + perm[j]] = (i * n + j, mul)
            conjugations.append(tuple(entries))
    if isinstance(spec.relation, LambdaCommute):
        return conjugations, units
    return conjugations, [c for c in units if c * c % p == 1]


def _search_flat(spec: SearchSpec) -> List[Tuple[Tuple[int, ...], List[Tuple[int, ...]]]]:
    """Every hit, as ``(a, bs)`` for each ``a`` with hits, in order, where
    ``bs`` ascends and ``a`` and each ``b`` are row-major residue tuples.

    For a fixed ``a`` the relation's equation linear in ``b`` is
    ``x*b == mu*b*y``: ``a*b == lam*b*a`` (lambda-commute, each solution a
    hit), ``a**3*b == b*a`` (cross-cube) or ``a*b == b*a**3`` (swapped-cube);
    :func:`_kernel` lists its solutions.

    The hits ``B(a)`` of ``a`` are listed for one ``a`` per orbit of a
    group that keeps the relation and the domain ``D``.  With ``M`` the
    units ``m`` with ``m*D == D``, its elements are ``(a, b) -> (c*S*a*S**-1,
    S*b*S**-1)`` for ``S = P*diag(1, u_2, ..., u_n)``, ``P`` a permutation
    matrix and each ``u_i`` in ``M``: each entry of ``S*x*S**-1`` is an
    entry of ``x`` times a ratio of two ``u_i``, so ``D`` is kept.  The
    scale ``c`` is any ``m`` in ``M`` under lambda-commute, and one with
    ``m*m == 1`` under a cube relation, where ``(c*a)**3 == c*a**3`` must
    hold.  Conjugation keeps every relation and ``a*b != 0``, and so
    ``B(g*a)`` is ``B(a)`` conjugated by ``g``'s ``S``.

    ``a`` is walked in order.  The first ``a`` of an orbit lists its
    kernel and filters it; each other ``a`` takes the sorted image of that
    list under its ``S``, formed when that ``a`` is reached and shared by
    its multiples in the orbit.  So the hits come out ordered.  Under
    ``require_nontrivial`` ``a = 0``, whose hits all have ``a*b == 0``, is
    skipped, and the filter stops at the first nonzero entry of ``a*b``.

    A cube relation is symmetric: the other equation of ``(a, b)`` is the
    linear one of ``(b, a)``, and on a hit ``a*b == 0`` exactly when
    ``b*a == 0``.  So the first ``a`` of an orbit lists its kernel from
    ``a`` up and checks only the members ``b >= a``; its hits ``b < a``
    are the earlier ``b`` whose hits held ``a``, noted as they were walked.

    The hits hold a 2-tuple per ``a`` and a list entry per hit, and the
    multiples of one ``a`` in an orbit share their list.  Beyond them the
    walk holds one list entry per hit of the orbits it has met and not
    finished, an entry for each ``a`` ahead of it in those orbits, and
    under a cube relation an entry per hit ``(b, a)`` with ``a`` ahead of
    it, and the cube of each matrix met.

    Raises BudgetExceeded after the first ``a`` at which the hits counted
    so far are more than ``_MAX_HITS``, so no ``a`` after it is searched.
    Under a cube relation the count is that of the hits with ``min(a, b)``
    so far, and under lambda-commute that of the hits with ``a`` so far.
    """
    p, n, domain = spec.p, spec.n, spec.domain()
    rel = spec.relation
    nontrivial = spec.require_nontrivial
    cube = not isinstance(rel, LambdaCommute)
    mu = 1 if cube else rel.lam.value
    conjugations, scales = _symmetries(spec)
    flat_mul, products_equal, product_nonzero, sylvester_rows = _unrolled(n)
    memo: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}

    def sides(m: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        # The equation of (m, b) linear in b is x*b == mu*b*y, x, y = sides(m).
        if not cube:
            return m, m
        if m not in memo:
            m3 = flat_mul(flat_mul(m, m, p), m, p)
            memo[m] = (m3, m) if isinstance(rel, CrossCube) else (m, m3)
        return memo[m]

    def listed(a: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        # Under a cube relation only the hits b >= a.
        low = a if cube else None
        members = _kernel(sylvester_rows(*sides(a), mu, p), domain, p, low)
        if cube:
            members = [
                b
                for b, (u, v) in zip(members, map(sides, members))
                if products_equal(u, a, a, v, p)
            ]
        if nontrivial:
            members = [b for b in members if product_nonzero(a, b, p)]
        return members

    # For each a ahead of the walk whose orbit has been met: that orbit's
    # images of the listed hits, keyed by the index of an S, and that of
    # the S that maps the orbit's first a to a multiple of this one.
    ahead: Dict[Tuple[int, ...], Tuple[Dict[int, List[Tuple[int, ...]]], int]] = {}
    # Under a cube relation, for each a ahead of the walk: the b walked so
    # far with (b, a) a hit, so that (a, b) is one too, in order.
    below: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    space = itertools.product(domain, repeat=n * n)
    if nontrivial:
        space = filter(any, space)  # drops a = 0
    hits = []
    counted = 0
    for a in space:
        lower = below.pop(a, [])
        if a in ahead:
            images, k = ahead.pop(a)
            members = images.get(k)
            if members is None:
                members = images[k] = sorted(
                    tuple([b[src] * mul % p for src, mul in conjugations[k]])
                    for b in images[0]
                )
        else:
            members = lower + listed(a)
            images = {0: members}
            for k, conj in enumerate(conjugations):
                image = [a[src] * mul for src, mul in conj]
                entry = images, k
                for c in scales:
                    other = tuple([v * c % p for v in image])
                    if other != a and other not in ahead:
                        ahead[other] = entry
        if members:
            hits.append((a, members))
        if cube:
            above = bisect.bisect_right(members, a)
            counted += 2 * (len(members) - above) + (above > 0 and members[above - 1] == a)
            for b in members[above:]:
                below.setdefault(b, []).append(a)
        else:
            counted += len(members)
        if counted > _MAX_HITS:
            raise BudgetExceeded(
                f"search found {counted} hits, over the cap of {_MAX_HITS}",
                {"hits": counted, "cap": _MAX_HITS},
            )
    return hits


def exhaustive_search(
    spec: SearchSpec, budget: Optional[int] = None
) -> List[Tuple[Matrix, Matrix]]:
    """Every pair in the search space satisfying the relation, in order.

    Output is ordered lexicographically by the row-major entry tuple of
    ``a`` then ``b``.  The search runs in the calling process.  Raises
    BudgetExceeded before touching the space if its size exceeds
    ``budget``, and during the search once its hits pass ``_MAX_HITS``.
    A matrix that occurs in several hits is one object.
    """
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    size = spec.space_size()
    if size > limit:
        raise BudgetExceeded(
            f"search space has {size} pairs, over the budget of {limit}",
            {"size": size, "budget": limit},
        )
    field, n = PrimeField(spec.p), spec.n
    matrices: Dict[Tuple[int, ...], Matrix] = {}

    def matrix(flat: Tuple[int, ...]) -> Matrix:
        if flat not in matrices:
            rows = tuple(flat[i * n : (i + 1) * n] for i in range(n))
            matrices[flat] = _stored(field, rows, 1)
        return matrices[flat]

    return [(ma, matrix(b)) for a, bs in _search_flat(spec) for ma in [matrix(a)] for b in bs]


@lru_cache(maxsize=32)
def cached_hits(p: int, n: int, relation: RelationKind) -> Tuple[Tuple[Matrix, Matrix], ...]:
    """Memoized nontrivial search (``a*b != 0``), for corpus builders and
    families.  No argument has a default, so that one search has one cache key."""
    spec = SearchSpec(p=p, n=n, relation=relation, require_nontrivial=True)
    return tuple(exhaustive_search(spec))


# --------------------------------------------------------------------------
# corpora
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusPair:
    a: Matrix
    b: Matrix
    relation: RelationKind
    provenance: str


def corpus_to_json_obj(pairs: Sequence[CorpusPair]) -> list:
    out = []
    for cp in pairs:
        entry: Dict[str, Any] = {
            "a": cp.a.to_json_obj(),
            "b": cp.b.to_json_obj(),
            "provenance": cp.provenance,
        }
        entry.update(relation_to_json_fields(cp.relation))
        out.append(entry)
    return out


def pair_from_json_obj(
    obj: Any, where: str = "input", relation_required: bool = False
) -> Tuple[Matrix, Matrix, Optional[RelationKind]]:
    """Decode ``{"a", "b", "relation"?, "lambda"?}``.

    Without ``relation_required`` an absent or null relation decodes to None.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object with 'a' and 'b'", {"at": where})
    for key in ("a", "b", "relation") if relation_required else ("a", "b"):
        if key not in obj:
            raise ParseError(f"{where}: missing key {key!r}", {"at": where})
    a = Matrix.from_json_obj(obj["a"], f"{where}.a")
    b = Matrix.from_json_obj(obj["b"], f"{where}.b")
    if not relation_required and obj.get("relation") is None:
        return a, b, None
    lam = None
    if obj.get("lambda") is not None:
        loc = f"{where}.lambda"
        if not isinstance(obj["lambda"], str):
            raise ParseError(f"{loc}: expected a string scalar", {"at": loc})
        try:
            lam = a.field.scalar(obj["lambda"])
        except ParseError as exc:
            raise ParseError(f"{loc}: {exc}", {"at": loc}) from exc
    return a, b, relation_from_json_fields(obj["relation"], lam, f"{where}.relation")


def corpus_from_json_obj(obj: Any, where: str = "corpus") -> List[CorpusPair]:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a JSON array", {"at": where})
    pairs = []
    for idx, item in enumerate(obj):
        loc = f"{where}[{idx}]"
        a, b, rel = pair_from_json_obj(item, loc, relation_required=True)
        provenance = item.get("provenance", "unknown")
        if not isinstance(provenance, str):
            raise ParseError(
                f"{loc}.provenance: expected a string", {"at": f"{loc}.provenance"}
            )
        pairs.append(CorpusPair(a, b, rel, provenance))
    return pairs


def default_lambda_values(field: Field) -> List[FieldScalar]:
    """The commutation constants exercised by the default corpus."""
    if field.characteristic == 0:
        return [
            field.scalar(2),
            field.scalar(3),
            field.scalar("1/2"),
            field.scalar(1),
        ]
    p = field.characteristic
    if p <= 7:
        return [field.scalar(v) for v in range(1, p)]
    return [field.scalar(v) for v in (1, 2, 3)]


def _lambda_families(field: Field, lam_is_one: bool, li: int) -> List[PairFamily]:
    fams: List[PairFamily] = [WeightedShift(n) for n in (2, 3, 4, 5)]
    fams += [
        Conjugated(WeightedShift(n), 100 + 10 * li + n) for n in (2, 3, 4)
    ]
    fams += [
        Conjugated(WeightedShift(n), 900 + 10 * li + n) for n in (2, 3)
    ]
    fams += [
        DirectSum(WeightedShift(2), WeightedShift(3)),
        DirectSum(WeightedShift(2), WeightedShift(2)),
        DirectSum(WeightedShift(3), WeightedShift(3)),
        Conjugated(DirectSum(WeightedShift(3), WeightedShift(2)), 300 + li),
        DirectSum(WeightedShift(2), TrivialZeroB(1)),
        Conjugated(DirectSum(WeightedShift(2), TrivialZeroB(1)), 400 + li),
    ]
    fams += [TrivialZeroB(n) for n in (1, 2, 3)]
    fams += [
        Conjugated(TrivialZeroB(2), 500 + li),
        Conjugated(TrivialZeroB(3), 550 + li),
        Conjugated(WeightedShift(5), 950 + li),
        Conjugated(DirectSum(WeightedShift(2), WeightedShift(2)), 960 + li),
        DirectSum(WeightedShift(4), TrivialZeroB(2)),
        DirectSum(TrivialZeroB(1), WeightedShift(3)),
        Conjugated(DirectSum(WeightedShift(4), TrivialZeroB(1)), 970 + li),
    ]
    if lam_is_one:
        p = field.characteristic
        fams += [
            # 2 is 0 in F_2 and 3 is 0 in F_3, so there the scales are 1 and 2.
            ScalarTimesIdentity(2, 1 if p == 2 else 2),
            ScalarTimesIdentity(3, -1),
            Conjugated(ScalarTimesIdentity(2, 2 if p == 3 else 3), 600),
            DiagTripotents(2, ((1, 0), (-1, 0))),
            DiagTripotents(3, ((1, -1, 0), (0, 1, -1))),
            Conjugated(DiagTripotents(3, None), 700),
        ]
    return fams


def default_lambda_corpus(field: Field) -> List[CorpusPair]:
    """Deterministic lambda-commuting corpus over ``field``.

    Each value of :func:`default_lambda_values` gives 25 pairs, and 31 at
    lambda == 1: 106 pairs over Q and F_5, 31 over F_2, 56 over F_3, 156
    over F_7 and 81 over any larger prime field.

    Index coverage by construction: weighted shifts give (ind(a), ind(b))
    = (n, 0); the lam == 1 block adds invertible/invertible and
    tripotent/tripotent profiles; shift (+) zero-b direct sums give
    (2, 1).
    """
    pairs: List[CorpusPair] = []
    for li, lam in enumerate(default_lambda_values(field)):
        rel = LambdaCommute(lam)
        for fi, fam in enumerate(_lambda_families(field, lam == 1, li)):
            seed = 10_000 * (li + 1) + 100 * fi + 7
            a, b = gen_pair(fam, rel, field, seed)
            pairs.append(CorpusPair(a, b, rel, describe_family(fam)))
    return pairs


_CUBE_FAMILIES: List[PairFamily] = [
    DiagTripotents(3, ((1, -1, 0), (-1, 1, 1))),
    DiagTripotents(2, ((1, 0), (0, 1))),
    DiagTripotents(2, ((1, -1), (1, 1))),
    DiagTripotents(4, ((1, -1, 0, 1), (-1, 0, 1, 1))),
    DiagTripotents(4, None),
    DiagTripotents(5, ((1, -1, 0, 1, -1), (0, 1, 1, -1, 1))),
    DiagTripotents(5, None),
    ScalarTimesIdentity(2, 1),
    ScalarTimesIdentity(3, -1),
    ScalarTimesIdentity(4, -1),
    TrivialZeroB(1),
    TrivialZeroB(2),
    TrivialZeroB(3),
    TrivialZeroB(4),
    Conjugated(DiagTripotents(3, ((1, -1, 0), (-1, 1, 1))), 31),
    Conjugated(DiagTripotents(4, None), 37),
    Conjugated(ScalarTimesIdentity(3, -1), 41),
    Conjugated(TrivialZeroB(3), 43),
    DirectSum(DiagTripotents(2, ((1, 0), (0, 1))), TrivialZeroB(2)),
    DirectSum(ScalarTimesIdentity(2, 1), DiagTripotents(3, ((1, -1, 0), (-1, 1, 1)))),
    Conjugated(DirectSum(DiagTripotents(2, ((1, -1), (1, 1))), TrivialZeroB(1)), 47),
]


def default_cube_corpus(
    field: Field, relation: RelationKind = CrossCube()
) -> List[CorpusPair]:
    """Deterministic corpus for the cube relations over ``field``.

    The same commutativity-based families satisfy both the cross-cube and
    the swapped-cube relation, so ``relation`` selects which one the pairs
    are certified (and labeled) against.  Genuinely noncommuting pairs are
    *not* generated here; they come from :func:`exhaustive_hits_corpus`.
    """
    if isinstance(relation, LambdaCommute):
        raise IncompatibleFamily(
            "cube corpus needs a cube relation",
            {"relation": relation.name, "expected": [CrossCube.name, SwappedCube.name]},
        )
    pairs: List[CorpusPair] = []
    for fi, fam in enumerate(_CUBE_FAMILIES):
        seed = 20_000 + 100 * fi + 3
        a, b = gen_pair(fam, relation, field, seed)
        pairs.append(CorpusPair(a, b, relation, describe_family(fam)))
    return pairs


# The search hits every cube corpus holds: the nontrivial ones over F_3 at
# sizes 1 and 2.
_HITS_P = 3
_HITS_N_MAX = 2


def exhaustive_hits_corpus(relation: RelationKind) -> List[CorpusPair]:
    """Every nontrivial search hit at sizes 1..2 over F_3, in order."""
    pairs: List[CorpusPair] = []
    for n in range(1, _HITS_N_MAX + 1):
        for ordinal, (a, b) in enumerate(cached_hits(_HITS_P, n, relation)):
            pairs.append(
                CorpusPair(
                    a,
                    b,
                    relation,
                    describe_family(ExhaustiveHit(_HITS_P, n, ordinal)),
                )
            )
    return pairs
