"""Command-line front end.

One subcommand per invocation; standard output carries exactly one JSON
document in canonical form (sorted keys, compact separators, one trailing
newline), standard error carries diagnostics.  Exit codes:

* 0 - success / every identity checked holds / the formula's report holds
* 1 - a verification mismatch (the report on stdout carries witnesses; for
      ``thm23`` and ``thm36``, a report whose ``holds`` is false), or
      an internal certificate failure, a bug: one error JSON, nothing on stdout
* 2 - malformed input (error JSON on stderr locates the problem); this
      includes an unknown flag, a missing required flag, a flag value of
      the wrong type, ``search --jobs`` outside 1..64, ``gen --count``
      outside 1..1000, a ``search --budget`` outside 1..10**9, a search
      dimension or entry bound out of range, an ``--i-max`` below 1
      (whatever the corpus), a family nested past its cap, a matrix or
      family of more than 64 rows or columns (the dimension cap), ``gen
      --lambda`` or ``--seed`` without ``--family``, input that is not
      UTF-8 or holds a JSON integer past the int/str digit limit, closed
      standard input and a path holding NUL, each a :class:`ParseError`;
      ``main`` catches only :class:`DrazinKitError`, so every rejected
      input leaves as one error JSON, never as usage text
* 3 - precondition violation (relation fails, lambda = 0, characteristic 2
      for the sum formula, incompatible family, a search space past its
      budget or a search past 10**6 hits, a result entry too long to
      print, ...)

Identical invocations produce byte-identical stdout.  ``--help`` prints
usage on stdout and exits 0.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from .drazin import Workspace, drazin_inverse
from .errors import (
    DrazinKitError,
    InternalCertificationFailure,
    NotNilpotentWithinBound,
    ParseError,
    PreconditionViolated,
    CharacteristicTwo,
)
from .fields import Field, PrimeField, QQ, _past_digit_limit
from .matrices import _MAX_DIMENSION, Matrix
from .pairs import (
    CorpusPair,
    SearchSpec,
    _gen_work,
    _int_arg,
    corpus_from_json_obj,
    corpus_to_json_obj,
    default_cube_corpus,
    default_lambda_corpus,
    describe_family,
    exhaustive_hits_corpus,
    exhaustive_search,
    gen_pair,
    pair_from_json_obj,
    parse_family,
)
from .relations import (
    CrossCube,
    IdentityReport,
    LambdaCommute,
    RelationKind,
    SwappedCube,
    _RELATIONS,
    _checked,
    det_consistency_diagnostic,
    first_violation,
    relation_from_json_fields,
    relation_to_json_fields,
)
from .theorems import Theorem23Report, Theorem36Report, _thm23, _thm36
from .theorems import evaluate_thm23, evaluate_thm36

__all__ = ["main"]


# --------------------------------------------------------------------------
# I/O helpers
# --------------------------------------------------------------------------


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _canonical(obj: Any) -> str:
    return _dumps(obj) + "\n"


def _refuse_nul(path: str, verb: str) -> None:
    # open() raises ValueError, not OSError, on a path holding NUL.  A real
    # argv cannot carry one; a caller of main in the same process can.
    if "\0" in path:
        raise ParseError(f"cannot {verb} {path}: embedded null byte", {"path": path})


def _emit(obj: Any, output: Optional[str]) -> None:
    _write((_canonical(obj),), output)


def _write(chunks: Iterable[str], output: Optional[str]) -> None:
    if output is None or output == "-":
        sys.stdout.writelines(chunks)
    else:
        _refuse_nul(output, "write")
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ParseError(f"cannot write {output}: {exc}", {"path": output})


def _read_json(path: str) -> Any:
    source = "<stdin>" if path == "-" else path
    if path == "-" and (sys.stdin is None or sys.stdin.closed):  # None: started with fd 0 closed
        raise ParseError("cannot read <stdin>: standard input is closed", {"path": source})
    _refuse_nul(path, "read")
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}", {"path": source})
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc), {"path": source})
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            {"path": source, "line": exc.lineno, "column": exc.colno},
        )
    except ValueError:  # json raises a plain ValueError for an int past the digit limit
        raise _past_digit_limit(ParseError, f"{source}: JSON integer", path=source) from None
    except RecursionError:
        raise ParseError(f"{source}: JSON nested too deeply", {"path": source})


def _field_from_flags(args: argparse.Namespace) -> Field:
    if args.field == "Q":
        if args.mod is not None:
            raise ParseError(
                "--mod is only meaningful with --field Fp", {"field": args.field, "mod": args.mod}
            )
        return QQ
    if args.mod is None:
        raise ParseError("--field Fp requires --mod p", {"field": args.field, "mod": None})
    return PrimeField(args.mod)


def _relation_from_flags(args: argparse.Namespace, field: Field) -> RelationKind:
    """The relation named by ``--relation``; ``--lambda`` (default 1) is
    parsed over ``field`` for lambda-commute and refused with the others."""
    if args.relation == LambdaCommute.name:
        return LambdaCommute(field.scalar("1" if args.lam is None else args.lam))
    if args.lam is not None:
        raise ParseError(
            "--lambda is only meaningful with --relation lambda-commute",
            {"lambda": args.lam, "relation": args.relation},
        )
    return relation_from_json_fields(args.relation, None)


# --------------------------------------------------------------------------
# identity catalog
# --------------------------------------------------------------------------

# Exponent bound of the power identities (L2.1, L3.1) in the selftest, and
# the default of ``lemmas --i-max``.
_I_MAX = 3

_Report = Union[IdentityReport, Theorem23Report, Theorem36Report]

# The paper's catalog in selftest report order: (label, relation, suite).
# An L row runs a suite of the row table in ``relations``: its name, then
# L3.5's exponents (i, j); L2.1 and L3.1 take the command's ``i_max``.  A
# T row is an additive formula, checked against the oracle, and has none.
_CATALOG: Tuple[Tuple[str, str, Optional[tuple]], ...] = (
    ("L2.1", LambdaCommute.name, ("L2.1",)),
    ("L2.2", LambdaCommute.name, ("L2.2",)),
    ("T2.3", LambdaCommute.name, None),
    ("L3.1", CrossCube.name, ("L3.1",)),
    ("L3.2", CrossCube.name, ("L3.2",)),
    ("L3.3", SwappedCube.name, ("L3.3",)),
    ("L3.4", CrossCube.name, ("L3.4",)),
    ("L3.5[i=0,j=0]", CrossCube.name, ("L3.5", 0, 0)),
    ("L3.5[i=1,j=2]", CrossCube.name, ("L3.5", 1, 2)),
    ("L3.5[i=2,j=1]", CrossCube.name, ("L3.5", 2, 1)),
    ("T3.6", CrossCube.name, None),
)

_FORMULAS = {"T2.3": _thm23, "T3.6": _thm36}


def _pair_reports(cp: CorpusPair, rows: list, i_max: int, ws: Workspace) -> Dict[str, _Report]:
    """The reports of ``rows``, catalog rows of ``cp``'s relation, on ``cp``
    by label: one check of the relation and one plan for the L rows, then
    the formulas, which find the pair's Drazin data in the same workspace."""
    suites = tuple(suite for _, _, suite in rows if suite is not None)
    a, b, ws, reports = _checked(cp.a, cp.b, cp.relation, ws, suites, i_max)
    it = iter(reports)
    return {label: next(it) if suite else _FORMULAS[label](a, b, ws) for label, _, suite in rows}


# ``lemmas --which`` choices: the relation whose L rows each one runs.
_WHICH = {
    "section-2": LambdaCommute.name,
    "section-3": CrossCube.name,
    "lemma-3.3": SwappedCube.name,
}


# Upper bound of ``search --jobs``.  The search always runs in this one
# process, so the value no longer changes anything; the flag and its range
# stay so that every command that was valid stays valid, and every command
# that was refused stays refused.
_MAX_JOBS = 64

# Upper bound of ``search --budget``, checked before the search spec is
# built.  Under it the entry domain has at most 31,622 residues, so a huge
# modulus is refused by the budget, never by building the domain.
_MAX_BUDGET = 1_000_000_000

# Upper bound of ``gen --count``, checked before any pair is made.  At the cap a
# 2-CPU host runs ``gen`` in 0.3 s on weighted-shift(3), 30 s on weighted-shift(64).
_MAX_COUNT = 1000

# Upper bound of the work of ``gen --family``, checked before any pair is made:
# ``count * (n**2 + m**3 per conjugation of an m x m pair)`` for n x n pairs.
# The cap accepts 1000 unconjugated 64x64 pairs; a conjugation at n = 64 takes
# about 0.4 s, and the slowest conjugated gen it accepts takes about 10 s.
_MAX_GEN_WORK = _MAX_COUNT * _MAX_DIMENSION**2


def _check_range(flag: str, value: Optional[int], cap: int) -> None:
    """Refuse ``--flag value`` outside 1..cap; None, the flag left out, passes."""
    if value is None:
        return
    if value < 1:
        raise ParseError(f"--{flag} must be positive, got {value}", {flag: value})
    if value > cap:
        raise ParseError(
            f"--{flag} {value} exceeds the cap of {cap}", {flag: value, "cap": cap}
        )


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


def _cmd_compute(args: argparse.Namespace) -> int:
    m = Matrix.from_json_obj(_read_json(args.input), "input")
    data = drazin_inverse(m)
    _emit(data.to_json_obj(), args.output)
    return 0


def _cmd_check_relation(args: argparse.Namespace) -> int:
    a, b, embedded = pair_from_json_obj(_read_json(args.input))
    if args.relation is not None or args.lam is not None:
        rel = _relation_from_flags(args, a.field)
    elif embedded is not None:
        rel = embedded
    else:
        raise ParseError(
            "no relation given: pass --relation or embed one in the input",
            {"relation": None},
        )
    violation = first_violation(a, b, rel)
    holds = violation is None
    out: Dict[str, Any] = dict(relation_to_json_fields(rel))
    out["holds"] = holds
    if not holds:
        out["first_violation"] = violation
    if isinstance(rel, LambdaCommute) and a.is_square():
        out["det_diagnostic"] = det_consistency_diagnostic(a, b, rel.lam)
    _emit(out, args.output)
    return 0 if holds else 1


def _cmd_lemmas(args: argparse.Namespace) -> int:
    if args.i_max < 1:
        raise ParseError(f"i_max must be a positive integer, got {args.i_max}", {"i_max": args.i_max})
    obj = _read_json(args.input)
    if isinstance(obj, dict):
        obj = [obj]
    corpus = corpus_from_json_obj(obj, "input")
    relation = _WHICH[args.which]
    rows = [row for row in _CATALOG if row[1] == relation and row[2] is not None]
    ws = Workspace()
    all_pass = True
    results = []
    for idx, cp in enumerate(corpus):
        if cp.relation.name != relation:
            raise PreconditionViolated(
                f"{args.which} suites need a {relation} pair, got {cp.relation.name}",
                {"relation": cp.relation.name, "expected": relation},
            )
        for label, report in _pair_reports(cp, rows, args.i_max, ws).items():
            entry: Dict[str, Any] = {
                "pair": idx,
                "provenance": cp.provenance,
                "suite": label,
                "all_pass": report.all_pass,
            }
            if not report.all_pass:
                all_pass = False
                entry["report"] = report.to_json_obj()
            results.append(entry)
    out = {"which": args.which, "pairs": len(corpus), "all_pass": all_pass, "results": results}
    _emit(out, args.output)
    return 0 if all_pass else 1


def _cmd_thm23(args: argparse.Namespace) -> int:
    a, b, rel = pair_from_json_obj(_read_json(args.input))
    if rel is not None and not isinstance(rel, LambdaCommute):
        raise PreconditionViolated(
            "the difference formula needs a lambda-commuting pair",
            {"relation": rel.name, "expected": LambdaCommute.name},
        )
    if args.lam is not None:
        lam = a.field.scalar(args.lam)
    elif isinstance(rel, LambdaCommute):
        lam = rel.lam
    else:
        raise ParseError(
            "no lambda given: pass --lambda or embed relation/lambda in the input",
            {"lambda": None},
        )
    report = evaluate_thm23(a, b, lam)
    _emit(report.to_json_obj(), args.output)
    return 0 if report.holds else 1


def _cmd_thm36(args: argparse.Namespace) -> int:
    a, b, rel = pair_from_json_obj(_read_json(args.input))
    if rel is not None and not isinstance(rel, CrossCube):
        raise PreconditionViolated(
            "the sum formula needs a cross-cube pair",
            {"relation": rel.name, "expected": CrossCube.name},
        )
    report = evaluate_thm36(a, b)
    _emit(report.to_json_obj(), args.output)
    return 0 if report.holds else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    field = _field_from_flags(args)
    rel = _relation_from_flags(args, field)
    _check_range("count", args.count, _MAX_COUNT)
    pairs: List[CorpusPair]
    if args.family is not None:
        fam = parse_family(args.family)
        work = (args.count or 1) * _gen_work(fam)
        if work > _MAX_GEN_WORK:
            raise ParseError(
                f"gen work estimate {work} exceeds the cap of {_MAX_GEN_WORK}",
                {"work": work, "cap": _MAX_GEN_WORK},
            )
        seed = 0 if args.seed is None else args.seed
        pairs = [
            CorpusPair(*gen_pair(fam, rel, field, seed + k), rel, describe_family(fam))
            for k in range(args.count or 1)
        ]
    else:
        # The default corpora are fixed: no lambda or seed chooses them.
        for flag, value in (("lambda", args.lam), ("seed", args.seed)):
            if value is not None:
                raise ParseError(
                    f"--{flag} is only meaningful with --family", {flag: value, "family": None}
                )
        if isinstance(rel, LambdaCommute):
            pairs = default_lambda_corpus(field)
        else:
            pairs = default_cube_corpus(field, rel)
        pairs = pairs[: args.count]
    _emit(corpus_to_json_obj(pairs), args.output)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    _check_range("jobs", args.jobs, _MAX_JOBS)
    _check_range("budget", args.budget, _MAX_BUDGET)
    field = PrimeField(args.mod)
    rel = _relation_from_flags(args, field)
    entry_bound = None
    if args.entry_bound is not None:
        entry_bound = tuple(
            _int_arg(x, "entry bound") for x in args.entry_bound.split(",")
        )
    spec = SearchSpec(
        p=args.mod,
        n=args.dim,
        relation=rel,
        entry_bound=entry_bound,
        require_nontrivial=args.nontrivial,
    )
    hits = exhaustive_search(spec, budget=args.budget)
    out: Dict[str, Any] = dict(relation_to_json_fields(rel))
    out.update(
        {
            "p": spec.p,
            "n": spec.n,
            "nontrivial": spec.require_nontrivial,
            "count": len(hits),
            "pairs": [],
        }
    )
    if spec.entry_bound is not None:
        out["entry_bound"] = list(spec.entry_bound)
    # The hits share their matrices (one object per value), so each is
    # encoded once; the array is written hit by hit, never held whole.
    texts: Dict[int, str] = {}

    def text(m: Matrix) -> str:
        if id(m) not in texts:
            texts[id(m)] = _dumps(m.to_json_obj())
        return texts[id(m)]

    pairs = (
        ("," if k else "") + '{"a":' + text(a) + ',"b":' + text(b) + "}"
        for k, (a, b) in enumerate(hits)
    )
    head, _, tail = _canonical(out).partition('"pairs":[]')
    _write(itertools.chain((head + '"pairs":[',), pairs, ("]" + tail,)), args.output)
    return 0


def _failure(report: _Report) -> Optional[Dict[str, Any]]:
    """The first false part of a report's verdict, as its selftest row
    writes it, or None when the report holds."""
    if isinstance(report, IdentityReport):
        return None if report.all_pass else {"failing": report.failing_ids()}
    if report.holds:
        return None
    if not report.match:
        return {"match": False}
    if report.residual_nilpotency_degree is None:
        return {"residual_nilpotency_degree": None}
    return {"projectors_orthogonal": False}


def _cmd_selftest(args: argparse.Namespace) -> int:
    field = _field_from_flags(args)
    if field.characteristic == 2:
        raise CharacteristicTwo(
            "the selftest exercises the sum formula, which needs 2 invertible",
            {"field": field.to_json_obj()},
        )
    # Cube pairs first: the largest plan compiles before products fill memory.
    corpora = {}
    for rel in (CrossCube(), SwappedCube()):
        corpora[rel.name] = default_cube_corpus(field, rel) + exhaustive_hits_corpus(rel)
    corpora[LambdaCommute.name] = default_lambda_corpus(field)
    ws = Workspace()
    failures: Dict[str, List[Dict[str, Any]]] = {label: [] for label, _, _ in _CATALOG}
    for relation, corpus in corpora.items():
        rows = [row for row in _CATALOG if row[1] == relation]
        for idx, cp in enumerate(corpus):
            for label, report in _pair_reports(cp, rows, _I_MAX, ws).items():
                failure = _failure(report)
                if failure is not None:
                    failures[label].append({"pair": idx, "provenance": cp.provenance, **failure})
    suites: List[Dict[str, Any]] = []
    for label, relation, _ in _CATALOG:
        ok = not failures[label]
        pairs = len(corpora[relation])
        suites.append({"suite": label, "pairs": pairs, "passed": ok, "failures": failures[label]})
        sys.stderr.write(f"{label}: {pairs} pairs, {'ok' if ok else 'FAIL'}\n")

    all_pass = all(s["passed"] for s in suites)
    _emit({"field": field.to_json_obj(), "suites": suites, "all_pass": all_pass}, args.output)
    return 0 if all_pass else 1


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose errors are :class:`ParseError`s, so a bad
    flag exits 2 with one error JSON like any other malformed input."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}", {"command": self.prog})


def _add_common(sub: argparse.ArgumentParser, *, with_input: bool = True) -> None:
    if with_input:
        sub.add_argument(
            "--input",
            default="-",
            help="input JSON file, or - for standard input (default)",
        )
    sub.add_argument(
        "--output", default=None, help="output file (default: standard output)"
    )


def _add_field_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--field", choices=("Q", "Fp"), default="Q")
    sub.add_argument("--mod", type=int, default=None, help="prime modulus for Fp")


def _add_relation_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--relation",
        choices=tuple(cls.name for cls in _RELATIONS),
        default=None,
    )
    sub.add_argument(
        "--lambda",
        dest="lam",
        default=None,
        help=(
            "commutation constant of lambda-commute, in wire format, e.g. 2 or "
            "1/2 (default 1); refused with the other relations"
        ),
    )


# Built on the first main() call, not at import, then shared: parsing leaves
# no state in it, and its handlers look up what they call in this module's
# globals at call time, so a name replaced here still takes effect.
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="drazinkit",
        description=(
            "Exact Drazin inverses over Q and F_p, and verification of the "
            "library's identity catalog on matrix pairs."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("compute", help="Drazin inverse of one matrix")
    _add_common(p)
    p.set_defaults(handler=_cmd_compute)

    p = subs.add_parser("check-relation", help="test a pair against a relation")
    _add_common(p)
    _add_relation_flags(p)
    p.set_defaults(handler=_cmd_check_relation)

    p = subs.add_parser("lemmas", help="run an identity suite over a corpus")
    _add_common(p)
    p.add_argument(
        "--which",
        choices=tuple(_WHICH),
        required=True,
    )
    p.add_argument("--i-max", dest="i_max", type=int, default=_I_MAX)
    p.set_defaults(handler=_cmd_lemmas)

    p = subs.add_parser("thm23", help="difference formula on a pair")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", default=None)
    p.set_defaults(handler=_cmd_thm23)

    p = subs.add_parser("thm36", help="sum formula on a pair")
    _add_common(p)
    p.set_defaults(handler=_cmd_thm36)

    p = subs.add_parser("gen", help="generate a corpus of relation pairs")
    _add_common(p, with_input=False)
    _add_field_flags(p)
    _add_relation_flags(p)
    p.add_argument("--family", default=None, help="family descriptor; see docs")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_gen, relation=LambdaCommute.name)

    p = subs.add_parser("search", help="exhaustive search over F_p")
    _add_common(p, with_input=False)
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--dim", type=int, required=True, help="matrix size n (1..3)")
    _add_relation_flags(p)
    p.add_argument(
        "--entry-bound",
        dest="entry_bound",
        default=None,
        help="comma-separated residues restricting entries",
    )
    p.add_argument(
        "--nontrivial",
        action="store_true",
        help="drop hits with a*b == 0",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=f"1..{_MAX_JOBS}; changes nothing, the search runs in one process",
    )
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(handler=_cmd_search, relation=LambdaCommute.name)

    p = subs.add_parser("selftest", help="run the default corpus end to end")
    _add_common(p, with_input=False)
    _add_field_flags(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except DrazinKitError as exc:
        payload = {
            "error": {"code": exc.code, "message": str(exc), "detail": exc.detail}
        }
        sys.stderr.write(_canonical(payload))
        if isinstance(exc, ParseError):
            return 2
        if isinstance(exc, (InternalCertificationFailure, NotNilpotentWithinBound)):
            return 1
        return 3


if __name__ == "__main__":
    sys.exit(main())
