"""CLI contract under generated input.

Every subcommand gets generated invocations: a valid one, or a valid one
with exactly one thing wrong, so that each rejection is reached rather than
masked by an earlier one.  The wrong thing is a flag value (a bad number,
choice, scalar or family descriptor, or a lambda with a cube relation), a
dropped required flag, a stray token, an unwritable ``--output``, or the
input (a missing file, a document with one field dropped or replaced by
junk, a truncated or binary one, one that is not UTF-8, or one holding an
integer past the interpreter's int/str digit limit).  ``--help``
comes first in some.  Whatever the input, ``cli.main`` returns an exit code
in {0, 1, 2, 3} (``--help`` raises ``SystemExit(0)``), no other exception
escapes, a refusal (exit 2 or 3) ends stderr with exactly one error JSON
object and writes nothing to stdout, and every refusal (exit 2 or 3) says
what it refused in a nonempty ``detail``.

The work per example stays small: a search space holds at most 3**8 pairs
and runs with ``--jobs 1`` (the search runs in one process whatever
``--jobs`` says), matrices are at most 3x3, a family has at most two leaves
of size at most 3 (or nests right at the cap), and ``selftest`` only runs
where it refuses at once.
Each subcommand gets its own examples, derandomized, so every run sends
the same invocations.  For a longer run, wrap ``check_invocation`` with
``given(_invocations(some_dir, command))`` and ``settings(SETTINGS,
max_examples=...)`` and call it.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from drazinkit import (
    QQ,
    Conjugated,
    CorpusPair,
    CrossCube,
    DiagTripotents,
    LambdaCommute,
    Matrix,
    PrimeField,
    SwappedCube,
    WeightedShift,
    corpus_to_json_obj,
    gen_pair,
)
from drazinkit.cli import _WHICH, main
from drazinkit.pairs import _MAX_FAMILY_DEPTH

SETTINGS = settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    # generation time depends on the machine, and a deep descriptor is large
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Text a real argv can carry: no NUL, no lone surrogate, and no leading "-",
# so a junk value is never read as an abbreviated --input or --output.
_JUNK_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
    max_size=6,
).filter(lambda t: not t.startswith("-"))

_JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 10**20) | st.floats() | _JUNK_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_JUNK_TEXT, inner, max_size=3),
    max_leaves=5,
)

_BAD_SCALARS = st.sampled_from(
    ["3/0", "x", "", " 2", "1e3", "0x10", "1/-2", "-2/4", "9" * 5000]
) | _JUNK_TEXT

# Wire-format entries each field accepts.
_ENTRIES = {
    "Q": ["0", "1", "-1", "2", "1/2", "-7/2"],
    3: ["0", "1", "2"],
    5: ["0", "1", "2", "4"],
}


def _pair_obj(a, b, rel):
    [obj] = corpus_to_json_obj([CorpusPair(a, b, rel, "fuzz")])
    return obj


def _pairs_by_relation():
    """Pairs by embedded relation: a few over Q and F_5 that satisfy it, and
    one that satisfies none of the three."""
    out = {"lambda-commute": [], "cross-cube": [], "swapped-cube": []}
    for field in (QQ, PrimeField(5)):
        for family, rel, seed in (
            (WeightedShift(3), LambdaCommute(field.scalar(2)), 1),
            (DiagTripotents(3), CrossCube(), 2),
            (Conjugated(DiagTripotents(2), 3), CrossCube(), 0),
            (DiagTripotents(2), SwappedCube(), 4),
        ):
            out[rel.name].append(_pair_obj(*gen_pair(family, rel, field, seed), rel))
    a, b = (Matrix.from_rows(QQ, rows) for rows in ([[1, 2], [3, 4]], [[0, 1], [1, 0]]))
    for kind, rel in (
        ("lambda-commute", LambdaCommute(QQ.scalar(2))),
        ("cross-cube", CrossCube()),
        ("swapped-cube", SwappedCube()),
    ):
        out[kind].append(_pair_obj(a, b, rel))
    return out


_PAIRS = _pairs_by_relation()


@st.composite
def _matrices(draw):
    """A well-formed matrix of up to 3x3 over Q, F_3 or F_5."""
    field = draw(st.sampled_from(["Q", {"Fp": 3}, {"Fp": 5}]))
    entries = st.sampled_from(_ENTRIES[field if field == "Q" else field["Fp"]])
    rows = draw(st.integers(1, 3))
    cols = rows if draw(st.booleans()) else draw(st.integers(1, 3))
    grid = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    return {"field": field, "rows": rows, "cols": cols, "entries": grid}


def _pairs(relation=None):
    kinds = [relation] if relation else sorted(_PAIRS)
    return st.sampled_from(kinds).flatmap(lambda k: st.sampled_from(_PAIRS[k]))


def _documents(command, argv):
    """The document ``command`` expects: a corpus for ``lemmas``, mostly of
    the relation its ``--which`` names."""
    if command == "lemmas":
        which = argv[argv.index("--which") + 1] if "--which" in argv else None
        return st.lists(_pairs(_WHICH.get(which)), min_size=1, max_size=3) | _pairs()
    return {
        "compute": _matrices(),
        "check-relation": _pairs(),
        "thm23": _pairs("lambda-commute") | _pairs(),
        "thm36": _pairs("cross-cube") | _pairs(),
    }[command]


@st.composite
def _mutated(draw, value):
    """``value`` with one node, at any depth, dropped or replaced by junk."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = draw(st.sampled_from(keys))
        out = dict(value) if isinstance(value, dict) else list(value)
        action = draw(st.sampled_from(["descend", "drop", "replace"]))
        if action == "drop":
            del out[key]
        elif action == "replace":
            out[key] = draw(_JSON_JUNK | _BAD_SCALARS)
        else:
            out[key] = draw(_mutated(value[key]))
        return out
    return draw(_JSON_JUNK | _BAD_SCALARS)


@st.composite
def _bad_input(draw, doc):
    """The bytes of ``doc`` with one thing wrong."""
    text = json.dumps(doc).encode("utf-8")
    how = draw(
        st.sampled_from(["mutated", "junk", "truncated", "undecodable", "long-int", "binary"])
    )
    if how == "mutated":
        return json.dumps(draw(_mutated(doc))).encode("utf-8")
    if how == "junk":
        return json.dumps(draw(_JSON_JUNK)).encode("utf-8")
    if how == "truncated":
        return text[: len(text) // 2]
    if how == "undecodable":
        at = draw(st.integers(0, len(text)))
        return text[:at] + b"\xff" + text[at:]
    if how == "long-int":  # past the int/str digit limit, so json.dumps cannot write it
        digits = b"1" * (sys.get_int_max_str_digits() + 1)
        return draw(st.sampled_from([digits, b'{"rows": ' + digits + b"}", b"[[" + digits + b"]]"]))
    return draw(st.binary(max_size=12))


def _leaf_families(sizes):
    return st.one_of(
        st.builds("weighted-shift({})".format, sizes),
        st.builds("zero-b({})".format, sizes),
        st.builds("diag-tripotents({})".format, sizes),
        st.builds("scalar-identity({};-1)".format, sizes),
    )


_GOOD_FAMILIES = st.recursive(
    _leaf_families(st.sampled_from(["1", "2", "3"]))
    | st.sampled_from(
        [
            "diag-tripotents(2;1,-1;0,1)",
            "scalar-identity(2;1)",
            "exhaustive(3;2;0)",
            "exhaustive(3;1;1)",
        ]
    ),
    lambda inner: st.builds("conjugated({};7)".format, inner)
    | st.builds("direct-sum({};{})".format, inner, inner),
    max_leaves=2,
)
_BAD_FAMILIES = st.one_of(
    _leaf_families(st.sampled_from(["0", "-1", "x", ""])),
    st.sampled_from(
        [
            "diag-tripotents(2;1,2;0,1)",
            "diag-tripotents(3;1;0)",
            "diag-tripotents(2;x,1;0,1)",
            "scalar-identity(2;2)",
            "scalar-identity(2;x)",
            "exhaustive(3;5;0)",
            "exhaustive(3;2;99999)",
            "exhaustive(4;2;0)",
            "exhaustive(3;0;0)",
            "weighted-shift(65)",
            "direct-sum(zero-b(40);conjugated(zero-b(25);1))",
            "conjugated(zero-b(1);x)",
            "direct-sum(zero-b(1))",
            "unknown(1)",
            "weighted-shift",
            "zero-b(1",
            "zero-b(1))",
            "((",
            ")(",
            "",
        ]
    ),
    st.integers(_MAX_FAMILY_DEPTH - 1, _MAX_FAMILY_DEPTH + 2).map(
        lambda k: "conjugated(" * k + "zero-b(1)" + ";1)" * k
    ),
    _JUNK_TEXT,
)


def _flag(valid, invalid):
    """A flag's (valid values, invalid values) strategies."""
    return st.sampled_from(valid), st.sampled_from(invalid)


def _relation_flags(lambda_alone):
    """The relation flags as one group of tokens, since ``--lambda`` is only
    valid with lambda-commute (``lambda_alone``: that is the default)."""
    valid = [
        [],
        ["--relation", "cross-cube"],
        ["--relation", "swapped-cube"],
        ["--relation", "lambda-commute"],
        ["--relation", "lambda-commute", "--lambda", "2"],
    ] + ([["--lambda", "2"]] if lambda_alone else [])
    invalid = st.sampled_from(
        [
            ["--relation", "zz"],
            ["--relation", "cross-cube", "--lambda", "2"],
            ["--relation", "lambda-commute", "--lambda", "0"],
            ["--relation"],
        ]
    ) | _BAD_SCALARS.map(lambda lam: ["--relation", "lambda-commute", "--lambda", lam])
    return st.sampled_from(valid), invalid


_FIELD_FLAGS = (
    st.sampled_from(
        [["--field", "Q"], ["--field", "Fp", "--mod", "3"], ["--field", "Fp", "--mod", "5"]]
    ),
    st.sampled_from(
        [
            ["--field", "Fp"],
            ["--field", "Q", "--mod", "3"],
            ["--field", "F5"],
            ["--field", "Fp", "--mod", "4"],
            ["--field", "Fp", "--mod", "1"],
            ["--field", "Fp", "--mod", "x"],
            ["--field", "Fp", "--mod", str(2**64 + 13)],
        ]
    ),
)

# Per subcommand: (required flags, optional flags), each a map from a flag to
# its (valid, invalid) value strategies, or to None for a flag that takes no
# value.  The groups "relation" and "field" stand for runs of tokens.
_FLAGS = {
    "compute": ({}, {}),
    "check-relation": ({}, {"relation": _relation_flags(False)}),
    "lemmas": (
        {"--which": _flag(["section-2", "section-3", "lemma-3.3"], ["section-9"])},
        {"--i-max": _flag(["1", "2", "3"], ["0", "-1", "5", "40", "x"])},
    ),
    "thm23": ({}, {"--lambda": (st.sampled_from(["2", "1/2"]), _BAD_SCALARS)}),
    "thm36": ({}, {}),
    "gen": (
        {},
        {
            "field": _FIELD_FLAGS,
            "relation": _relation_flags(True),
            "--family": (_GOOD_FAMILIES, _BAD_FAMILIES),
            "--count": _flag(["1", "2"], ["0", "-1", "x"]),
            "--seed": _flag(["0", "7", "-5"], ["x", "1.5"]),
        },
    ),
    "search": (
        {
            "--mod": _flag(["3", "2"], ["4", "1", "x"]),
            "--dim": _flag(["1", "2"], ["0", "4", "-1", "x"]),
        },
        {
            "relation": _relation_flags(True),
            "--entry-bound": _flag(["0,1", "1", "1,1,0"], ["0,7", "-1", "2,9", "", "0,,1"]),
            "--nontrivial": None,
            "--jobs": _flag(["1"], ["0", "65", "x"]),
            "--budget": _flag(["100000"], ["10", "0", "-5", "x"]),
        },
    ),
}

_READS_INPUT = ("compute", "check-relation", "lemmas", "thm23", "thm36")

# selftest runs the whole catalog, so it appears only where it stops at once.
_SELFTEST_ARGV = [
    ["--field", "Fp", "--mod", "2"],
    ["--field", "Q", "--mod", "3"],
    ["--field", "Fp"],
    ["--field", "Fp", "--mod", "4"],
    ["--field", "F7"],
    ["--mod", "x"],
]

# What an invocation gets wrong, if anything; a bad flag value or input
# comes in the most shapes, so those are drawn most often.
_FAULTS = ["none", "flag", "flag", "flag", "drop", "stray", "output", "input", "input", "help"]


@st.composite
def _invocations(draw, workdir, command):
    """(argv, stdin bytes, (input path, its bytes or None), whether --help wins)."""
    fault = draw(st.sampled_from(_FAULTS))
    argv = []
    if command == "selftest":
        argv += draw(st.sampled_from(_SELFTEST_ARGV))
    else:
        required, optional = _FLAGS[command]
        specs = {**required, **optional}
        chosen = list(required)
        if optional:
            chosen += draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
        bad = None
        if fault == "flag" and any(specs.values()):
            bad = draw(st.sampled_from(sorted(f for f in specs if specs[f])))
            if bad not in chosen:
                chosen.append(bad)
        if fault == "drop" and required:
            chosen.remove(draw(st.sampled_from(sorted(required))))
        for flag in draw(st.permutations(chosen)):
            if specs[flag] is None:
                argv.append(flag)
                continue
            value = draw(specs[flag][flag == bad])
            argv += value if flag in ("relation", "field") else [flag, value]
    stdin = file_bytes = None
    if command in _READS_INPUT:
        doc = draw(_documents(command, argv))
        data = draw(_bad_input(doc)) if fault == "input" else json.dumps(doc).encode()
        where = draw(st.sampled_from(["stdin", "file"] + ["missing"] * (fault == "input")))
        if where == "stdin":
            stdin = data
        elif where == "file":
            file_bytes = data
            argv += ["--input", str(workdir / "input.json")]
        else:
            argv += ["--input", str(workdir / "missing.json")]
    outputs = ["missing/out.json", "."] if fault == "output" else [None, "-", "out.json"]
    output = draw(st.sampled_from(outputs))
    if output is not None:
        argv += ["--output", output if output == "-" else str(workdir / output)]
    if fault == "stray":
        stray = draw(st.sampled_from(["--bogus", "--", "-x"]) | _JUNK_TEXT)
        argv.insert(draw(st.integers(0, len(argv))), stray)
    if fault == "help":
        if draw(st.booleans()):
            return ["--help"], None, (None, None), True
        argv.insert(0, "--help")
    return [command] + argv, stdin, (workdir / "input.json", file_bytes), fault == "help"


def _run(argv, stdin_bytes):
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin_bytes or b""), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def check_invocation(invocation):
    """Run one generated invocation and check the exit-code and stderr contract."""
    argv, stdin_bytes, (path, file_bytes), help_wins = invocation
    if file_bytes is not None:
        path.write_bytes(file_bytes)
    code, out, err = _run(argv, stdin_bytes)
    if help_wins:
        assert code == ("exit", 0)
        assert out.startswith("usage: drazinkit")
        return
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err
    if code in (2, 3):
        assert out == ""
        lines = err.splitlines()
        assert sum(line.startswith('{"error"') for line in lines) == 1
        obj = json.loads(lines[-1])
        assert lines[-1] == json.dumps(obj, sort_keys=True, separators=(",", ":"))
        assert list(obj) == ["error"]
        error = obj["error"]
        assert sorted(error) == ["code", "detail", "message"]
        assert isinstance(error["message"], str) and isinstance(error["detail"], dict)
        assert (error["code"] == "malformed-input") == (code == 2), (argv, error)
        assert error["detail"], (argv, error)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@pytest.mark.parametrize("command", sorted(_FLAGS) + ["selftest"])
def test_cli_contract_holds_for_generated_invocations(workdir, command):
    SETTINGS(given(_invocations(workdir, command))(check_invocation))()
