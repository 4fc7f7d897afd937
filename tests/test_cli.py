"""CLI contract: canonical JSON, exit codes, determinism."""

import ast
import dataclasses
import io
import json
import os
import subprocess
import sys
from random import Random

import pytest

import drazinkit.cli as cli
import drazinkit.matrices as matrices
import drazinkit.pairs as pairs
import drazinkit.relations as relations
from drazinkit.cli import main, parse_family
from drazinkit import (
    QQ,
    Conjugated,
    CorpusPair,
    CrossCube,
    DiagTripotents,
    DirectSum,
    ExhaustiveHit,
    IdentityItem,
    IdentityReport,
    InternalCertificationFailure,
    LambdaCommute,
    Matrix,
    NotNilpotentWithinBound,
    ParseError,
    PrimeField,
    ScalarTimesIdentity,
    SearchSpec,
    SwappedCube,
    TrivialZeroB,
    WeightedShift,
    corpus_to_json_obj,
    describe_family,
    exhaustive_search,
    gen_pair,
)

SHIFT2 = {
    "field": "Q",
    "rows": 2,
    "cols": 2,
    "entries": [["0", "1"], ["0", "0"]],
}
DIAG12 = {
    "field": "Q",
    "rows": 2,
    "cols": 2,
    "entries": [["1", "0"], ["0", "2"]],
}

# A lambda-commuting pair with its relation embedded.
LAMBDA_PAIR = {"a": SHIFT2, "b": DIAG12, "relation": "lambda-commute", "lambda": "2"}


def _run(monkeypatch, capsys, argv, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_worked_example(monkeypatch, capsys):
    code, out, _ = _run(
        monkeypatch, capsys, ["compute"], stdin_text=json.dumps(SHIFT2)
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["index"] == 2
    assert obj["is_group"] is False
    assert obj["d"]["entries"] == [["0", "0"], ["0", "0"]]
    assert obj["pi"]["entries"] == [["1", "0"], ["0", "1"]]
    # canonical form: sorted keys, compact separators, one trailing newline
    assert out == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_compute_byte_identical_reruns(monkeypatch, capsys):
    text = json.dumps(SHIFT2)
    _, out1, _ = _run(monkeypatch, capsys, ["compute"], stdin_text=text)
    _, out2, _ = _run(monkeypatch, capsys, ["compute"], stdin_text=text)
    assert out1 == out2


def test_compute_output_file(monkeypatch, capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = _run(
        monkeypatch,
        capsys,
        ["compute", "--output", str(target)],
        stdin_text=json.dumps(SHIFT2),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["index"] == 2


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_exit_2(monkeypatch, capsys, tmp_path, where):
    target = str(tmp_path / "no" / "out.json" if where == "missing-dir" else tmp_path)
    code, out, err = _run(
        monkeypatch, capsys, ["gen", "--count", "1", "--output", target]
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "malformed-input"
    assert error["message"].startswith(f"cannot write {target}: ")
    assert error["detail"] == {"path": target}


def test_compute_malformed_json_exit_2(monkeypatch, capsys):
    code, out, err = _run(
        monkeypatch, capsys, ["compute"], stdin_text='{"field": "Q", '
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["code"] == "malformed-input"
    assert payload["error"]["detail"]["line"] == 1
    assert "column" in payload["error"]["detail"]


def test_compute_deeply_nested_json_exit_2(monkeypatch, capsys):
    code, out, err = _run(monkeypatch, capsys, ["compute"], stdin_text="[" * 100000)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["code"] == "malformed-input"
    assert payload["error"]["detail"] == {"path": "<stdin>"}


def test_compute_bad_entry_position_reported(monkeypatch, capsys):
    bad = dict(SHIFT2, entries=[["0", "1"], ["0", "zzz"]])
    code, _, err = _run(monkeypatch, capsys, ["compute"], stdin_text=json.dumps(bad))
    assert code == 2
    assert "input.entries[1][1]" in json.loads(err)["error"]["message"]


@pytest.fixture
def default_digit_limit():
    """CPython's default int/str conversion limit, whatever the environment set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def test_compute_result_past_digit_limit_exit_3(monkeypatch, capsys, default_digit_limit):
    # A valid input: 1,500-digit entries print fine, but the inverse's
    # denominators have about 4,500 digits, too many to print.
    rng = Random(1)
    entries = [[str(rng.randrange(10**1499, 10**1500)) for _ in range(3)] for _ in range(3)]
    big = dict(SHIFT2, rows=3, cols=3, entries=entries)
    code, out, err = _run(monkeypatch, capsys, ["compute"], stdin_text=json.dumps(big))
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "output-too-large"
    assert error["detail"] == {"limit": default_digit_limit}


def test_compute_input_entry_past_digit_limit_exit_2(monkeypatch, capsys, default_digit_limit):
    # A numerator or a denominator past the limit.
    for text in ("7" * 5000, "1/" + "7" * 5000):
        bad = dict(SHIFT2, entries=[["0", "1"], [text, "0"]])
        code, out, err = _run(monkeypatch, capsys, ["compute"], stdin_text=json.dumps(bad))
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "malformed-input"
        assert error["detail"] == {"at": "input.entries[1][0]"}
        assert error["message"] == (
            "input.entries[1][0]: rational with more than 4300 digits"
            " (the interpreter's int/str conversion limit)"
        )


@pytest.mark.parametrize(
    "field, entry, message",
    [
        ("Q", "1/0", "invalid rational '1/0': expected 'n' or 'n/d' with d > 0"),
        ("Q", "01", "invalid rational '01': expected 'n' or 'n/d' with d > 0"),
        ("Q", "+1", "invalid rational '+1': expected 'n' or 'n/d' with d > 0"),
        ("Q", "1.5", "invalid rational '1.5': expected 'n' or 'n/d' with d > 0"),
        ("Q", 1, "entries must be strings"),
        ({"Fp": 5}, "5", "residue 5 out of range for F_5"),
        ({"Fp": 5}, "1/2", "invalid residue '1/2': expected decimal digits"),
    ],
)
def test_compute_malformed_entry_message(monkeypatch, capsys, field, entry, message):
    bad = dict(SHIFT2, field=field, entries=[["0", "1"], [entry, "0"]])
    code, out, err = _run(monkeypatch, capsys, ["compute"], stdin_text=json.dumps(bad))
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": {
            "code": "malformed-input",
            "detail": {"at": "input.entries[1][0]"},
            "message": f"input.entries[1][0]: {message}",
        }
    }


def test_compute_missing_file_exit_2(monkeypatch, capsys):
    code, _, err = _run(
        monkeypatch, capsys, ["compute", "--input", "/nonexistent/x.json"]
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "malformed-input"


def test_check_relation_holds_exit_0(monkeypatch, capsys):
    pair = {"a": SHIFT2, "b": DIAG12}
    code, out, _ = _run(
        monkeypatch,
        capsys,
        ["check-relation", "--relation", "lambda-commute", "--lambda", "2"],
        stdin_text=json.dumps(pair),
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["holds"] is True
    assert obj["relation"] == "lambda-commute"
    assert obj["lambda"] == "2"
    # one member is singular, so determinants give no constraint
    assert obj["det_diagnostic"] is None


def test_check_relation_fails_exit_1(monkeypatch, capsys):
    pair = {"a": SHIFT2, "b": DIAG12}
    code, out, _ = _run(
        monkeypatch,
        capsys,
        ["check-relation", "--relation", "lambda-commute", "--lambda", "3"],
        stdin_text=json.dumps(pair),
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["holds"] is False
    assert obj["first_violation"] == {
        "equation": "a*b = lam*(b*a)",
        "row": 0,
        "col": 1,
        "lhs": "2",
        "rhs": "3",
    }


def test_check_relation_evaluates_the_equations_once(monkeypatch, capsys):
    calls = []
    equations = relations._defining_equations

    def counted(*args):
        calls.append(args)
        return equations(*args)

    monkeypatch.setattr(relations, "_defining_equations", counted)
    code, out, _ = _run(
        monkeypatch,
        capsys,
        ["check-relation", "--relation", "lambda-commute", "--lambda", "3"],
        stdin_text=json.dumps({"a": SHIFT2, "b": DIAG12}),
    )
    assert code == 1
    assert json.loads(out)["holds"] is False
    assert len(calls) == 1


def test_check_relation_embedded_relation(monkeypatch, capsys):
    pair = {
        "a": SHIFT2,
        "b": DIAG12,
        "relation": "lambda-commute",
        "lambda": "2",
    }
    code, out, _ = _run(
        monkeypatch, capsys, ["check-relation"], stdin_text=json.dumps(pair)
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_check_relation_flag_overrides_embedded(monkeypatch, capsys):
    pair = {
        "a": SHIFT2,
        "b": DIAG12,
        "relation": "lambda-commute",
        "lambda": "2",
    }
    code, _, _ = _run(
        monkeypatch,
        capsys,
        ["check-relation", "--relation", "cross-cube"],
        stdin_text=json.dumps(pair),
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv, text, at",
    [
        (["check-relation"], json.dumps({**LAMBDA_PAIR, "lambda": "zz"}), "input.lambda"),
        (
            ["lemmas", "--which", "section-2"],
            json.dumps([LAMBDA_PAIR, {**LAMBDA_PAIR, "lambda": "zz"}]),
            "input[1].lambda",
        ),
    ],
    ids=["pair", "corpus"],
)
def test_bad_lambda_is_located(monkeypatch, capsys, argv, text, at):
    code, out, err = _run(monkeypatch, capsys, argv, stdin_text=text)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "malformed-input"
    assert error["message"].startswith(f"{at}: invalid rational 'zz'")
    assert error["detail"] == {"at": at}


def test_check_relation_no_relation_given_exit_2(monkeypatch, capsys):
    pair = {"a": SHIFT2, "b": DIAG12}
    code, _, err = _run(
        monkeypatch, capsys, ["check-relation"], stdin_text=json.dumps(pair)
    )
    assert code == 2
    assert "no relation" in json.loads(err)["error"]["message"]


def test_thm23_worked_instance(monkeypatch, capsys):
    pair = {"a": SHIFT2, "b": DIAG12}
    code, out, _ = _run(
        monkeypatch,
        capsys,
        ["thm23", "--lambda", "2"],
        stdin_text=json.dumps(pair),
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True
    assert obj["x"]["entries"] == [["-1", "-1/2"], ["0", "-1/2"]]
    assert obj["residual_nilpotency_degree"] == 1


def test_thm23_missing_lambda_exit_2(monkeypatch, capsys):
    pair = {"a": SHIFT2, "b": DIAG12}
    code, _, err = _run(monkeypatch, capsys, ["thm23"], stdin_text=json.dumps(pair))
    assert code == 2
    assert "lambda" in json.loads(err)["error"]["message"]


def test_thm23_relation_violation_exit_3(monkeypatch, capsys):
    pair = {"a": SHIFT2, "b": DIAG12}
    code, _, err = _run(
        monkeypatch,
        capsys,
        ["thm23", "--lambda", "3"],
        stdin_text=json.dumps(pair),
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["error"]["code"] == "precondition-violated"
    assert payload["error"]["detail"]["equation"] == "a*b = lam*(b*a)"


def test_thm23_wrong_embedded_relation_exit_3(monkeypatch, capsys):
    pair = {"a": SHIFT2, "b": DIAG12, "relation": "cross-cube"}
    code, _, err = _run(monkeypatch, capsys, ["thm23"], stdin_text=json.dumps(pair))
    assert code == 3
    error = json.loads(err)["error"]
    assert error["code"] == "precondition-violated"
    assert error["detail"] == {"relation": "cross-cube", "expected": "lambda-commute"}


def test_thm36_wrong_embedded_relation_exit_3(monkeypatch, capsys):
    pair = {"a": SHIFT2, "b": DIAG12, "relation": "lambda-commute", "lambda": "2"}
    code, out, err = _run(monkeypatch, capsys, ["thm36"], stdin_text=json.dumps(pair))
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["message"] == "the sum formula needs a cross-cube pair"
    assert error["detail"] == {"relation": "lambda-commute", "expected": "cross-cube"}


def _diag(values):
    n = len(values)
    return {
        "field": "Q",
        "rows": n,
        "cols": n,
        "entries": [
            [str(values[i]) if i == j else "0" for j in range(n)] for i in range(n)
        ],
    }


def test_thm36_worked_instances(monkeypatch, capsys):
    pair = {"a": _diag([1, -1, 0]), "b": _diag([-1, 1, 1])}
    code, out, _ = _run(monkeypatch, capsys, ["thm36"], stdin_text=json.dumps(pair))
    assert code == 0
    obj = json.loads(out)
    assert obj["match"] is True
    assert obj["projectors_orthogonal"] is True
    assert obj["direct"]["d"]["entries"] == [
        ["0", "0", "0"],
        ["0", "0", "0"],
        ["0", "0", "1"],
    ]

    pair2 = {"a": _diag([1, 1, 1]), "b": _diag([1, -1, 0])}
    code2, out2, _ = _run(
        monkeypatch, capsys, ["thm36"], stdin_text=json.dumps(pair2)
    )
    assert code2 == 0
    assert json.loads(out2)["direct"]["d"]["entries"] == [
        ["1/2", "0", "0"],
        ["0", "0", "0"],
        ["0", "0", "1"],
    ]


def test_thm36_characteristic_two_exit_3(monkeypatch, capsys):
    zero2 = {
        "field": {"Fp": 2},
        "rows": 2,
        "cols": 2,
        "entries": [["0", "0"], ["0", "0"]],
    }
    pair = {"a": zero2, "b": zero2}
    code, _, err = _run(monkeypatch, capsys, ["thm36"], stdin_text=json.dumps(pair))
    assert code == 3
    error = json.loads(err)["error"]
    assert error["code"] == "characteristic-two"
    assert error["detail"] == {"field": {"Fp": 2}}


def test_lemmas_section2_small_corpus(monkeypatch, capsys):
    corpus = [
        {
            "a": SHIFT2,
            "b": DIAG12,
            "relation": "lambda-commute",
            "lambda": "2",
            "provenance": "hand",
        }
    ]
    code, out, _ = _run(
        monkeypatch,
        capsys,
        ["lemmas", "--which", "section-2"],
        stdin_text=json.dumps(corpus),
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert obj["pairs"] == 1
    suites = {r["suite"] for r in obj["results"]}
    assert suites == {"L2.1", "L2.2"}


def test_lemmas_section3_and_exponent_grid(monkeypatch, capsys):
    corpus = [
        {
            "a": _diag([1, -1, 0]),
            "b": _diag([-1, 1, 1]),
            "relation": "cross-cube",
            "provenance": "hand",
        }
    ]
    code, out, _ = _run(
        monkeypatch,
        capsys,
        ["lemmas", "--which", "section-3"],
        stdin_text=json.dumps(corpus),
    )
    assert code == 0
    obj = json.loads(out)
    suites = [r["suite"] for r in obj["results"]]
    assert suites == [
        "L3.1",
        "L3.2",
        "L3.4",
        "L3.5[i=0,j=0]",
        "L3.5[i=1,j=2]",
        "L3.5[i=2,j=1]",
    ]


def test_lemmas_accepts_single_object(monkeypatch, capsys):
    entry = {
        "a": _diag([1, 0]),
        "b": _diag([0, 1]),
        "relation": "swapped-cube",
        "provenance": "hand",
    }
    code, out, _ = _run(
        monkeypatch,
        capsys,
        ["lemmas", "--which", "lemma-3.3"],
        stdin_text=json.dumps(entry),
    )
    assert code == 0
    assert json.loads(out)["results"][0]["suite"] == "L3.3"


def test_lemmas_kind_mismatch_exit_3(monkeypatch, capsys):
    corpus = [
        {
            "a": _diag([1, 0]),
            "b": _diag([0, 1]),
            "relation": "cross-cube",
            "provenance": "hand",
        }
    ]
    code, _, err = _run(
        monkeypatch,
        capsys,
        ["lemmas", "--which", "section-2"],
        stdin_text=json.dumps(corpus),
    )
    assert code == 3
    error = json.loads(err)["error"]
    assert error["code"] == "precondition-violated"
    assert error["detail"] == {"relation": "cross-cube", "expected": "lambda-commute"}


def _failing_report(a, b, ws=None):
    """Stand-in for lemma32_suite: one failed identity with a, b as witnesses."""
    return IdentityReport.build(CrossCube(), [IdentityItem("L3.2.x", a, b, False)])


def test_lemmas_failure_layout_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "lemma32_suite", _failing_report)
    a, b = _diag([1, -1, 0]), _diag([-1, 1, 1])
    corpus = [{"a": a, "b": b, "relation": "cross-cube", "provenance": "hand"}]
    code, out, _ = _run(
        monkeypatch,
        capsys,
        ["lemmas", "--which", "section-3"],
        stdin_text=json.dumps(corpus),
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["all_pass"] is False
    by_suite = {r["suite"]: r for r in obj["results"]}
    assert by_suite["L3.2"] == {
        "pair": 0,
        "provenance": "hand",
        "suite": "L3.2",
        "all_pass": False,
        "report": {
            "relation": "cross-cube",
            "items": [{"id": "L3.2.x", "pass": False}],
            "all_pass": False,
            "witnesses": {"L3.2.x": {"lhs": a, "rhs": b}},
        },
    }
    assert by_suite["L3.1"] == {
        "pair": 0,
        "provenance": "hand",
        "suite": "L3.1",
        "all_pass": True,
    }


def test_gen_family_worked_pair_and_determinism(monkeypatch, capsys):
    argv = [
        "gen",
        "--family",
        "weighted-shift(2)",
        "--relation",
        "lambda-commute",
        "--lambda",
        "2",
        "--seed",
        "5",
    ]
    code, out1, _ = _run(monkeypatch, capsys, argv)
    assert code == 0
    arr = json.loads(out1)
    assert len(arr) == 1
    assert arr[0]["a"]["entries"] == [["0", "1"], ["0", "0"]]
    assert arr[0]["b"]["entries"] == [["1", "0"], ["0", "2"]]
    assert arr[0]["provenance"] == "weighted-shift(n=2)"
    assert arr[0]["relation"] == "lambda-commute"
    _, out2, _ = _run(monkeypatch, capsys, argv)
    assert out1 == out2


def test_gen_count_seeds_vary(monkeypatch, capsys):
    code, out, _ = _run(
        monkeypatch,
        capsys,
        [
            "gen",
            "--family",
            "zero-b(2)",
            "--relation",
            "cross-cube",
            "--count",
            "3",
            "--seed",
            "11",
        ],
    )
    assert code == 0
    arr = json.loads(out)
    assert len(arr) == 3
    assert any(arr[0]["a"] != item["a"] for item in arr[1:])


def test_gen_default_corpus_truncated(monkeypatch, capsys):
    for relation in ("lambda-commute", "cross-cube", "swapped-cube"):
        argv = ["gen", "--relation", relation]
        _, full, _ = _run(monkeypatch, capsys, argv)
        code, out, _ = _run(monkeypatch, capsys, argv + ["--count", "4"])
        assert code == 0
        assert json.loads(out) == json.loads(full)[:4]


def test_gen_swapped_cube_family(monkeypatch, capsys):
    family = "conjugated(diag-tripotents(2);3)"
    argv = ["gen", "--relation", "swapped-cube", "--family", family]
    code, out, _ = _run(monkeypatch, capsys, argv + ["--count", "2", "--seed", "3"])
    assert code == 0
    fam, rel = parse_family(family), SwappedCube()
    expected = [
        CorpusPair(*gen_pair(fam, rel, QQ, seed), rel, describe_family(fam))
        for seed in (3, 4)
    ]
    assert json.loads(out) == corpus_to_json_obj(expected)
    for pair in json.loads(out):
        code, holds, _ = _run(monkeypatch, capsys, ["check-relation"], json.dumps(pair))
        assert (code, json.loads(holds)["holds"]) == (0, True)


def test_gen_incompatible_family_exit_3(monkeypatch, capsys):
    code, _, err = _run(
        monkeypatch,
        capsys,
        [
            "gen",
            "--family",
            "weighted-shift(2)",
            "--relation",
            "cross-cube",
        ],
    )
    assert code == 3
    assert json.loads(err)["error"]["code"] == "incompatible-family"


def test_gen_fp_field_flag(monkeypatch, capsys):
    code, out, _ = _run(
        monkeypatch,
        capsys,
        [
            "gen",
            "--field",
            "Fp",
            "--mod",
            "5",
            "--family",
            "weighted-shift(3)",
            "--lambda",
            "2",
        ],
    )
    assert code == 0
    assert json.loads(out)[0]["a"]["field"] == {"Fp": 5}


def test_gen_default_corpus_over_f2(monkeypatch, capsys):
    # 2 is 0 in F_2, so the lambda corpus scales I by 1 there.
    code, out, err = _run(monkeypatch, capsys, ["gen", "--field", "Fp", "--mod", "2"])
    assert (code, err) == (0, "")
    assert len(json.loads(out)) == 31


def test_gen_mod_with_q_exit_2(monkeypatch, capsys):
    code, _, err = _run(monkeypatch, capsys, ["gen", "--mod", "5"])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "malformed-input"


def test_search_n1_frozen(monkeypatch, capsys):
    code, out, _ = _run(
        monkeypatch,
        capsys,
        [
            "search",
            "--mod",
            "3",
            "--dim",
            "1",
            "--relation",
            "cross-cube",
            "--nontrivial",
        ],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 4
    assert obj["nontrivial"] is True
    got = [
        (p["a"]["entries"][0][0], p["b"]["entries"][0][0]) for p in obj["pairs"]
    ]
    assert got == [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]


def test_search_jobs_byte_identical(monkeypatch, capsys):
    # Any attempt to start a worker pool fails the import.
    monkeypatch.setitem(sys.modules, "multiprocessing", None)
    base = [
        "search",
        "--mod",
        "3",
        "--dim",
        "2",
        "--relation",
        "cross-cube",
        "--nontrivial",
    ]
    code1, out1, _ = _run(monkeypatch, capsys, base + ["--jobs", "1"])
    code2, out2, _ = _run(monkeypatch, capsys, base + ["--jobs", "8"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["count"] == 340


# (argv after "search", p, n, relation, entry bound, nontrivial)
_SEARCH_TEXT_SPECS = [
    ("--mod 3 --dim 1 --relation lambda-commute --lambda 2 --nontrivial",
     3, 1, LambdaCommute(PrimeField(3).scalar(2)), None, True),
    ("--mod 5 --dim 2 --relation lambda-commute --lambda 3",
     5, 2, LambdaCommute(PrimeField(5).scalar(3)), None, False),
    ("--mod 3 --dim 2 --relation cross-cube", 3, 2, CrossCube(), None, False),
    ("--mod 3 --dim 2 --relation swapped-cube --nontrivial",
     3, 2, SwappedCube(), None, True),
    ("--mod 3 --dim 3 --relation cross-cube --entry-bound 2,0 --nontrivial",
     3, 3, CrossCube(), (0, 2), True),
    ("--mod 11 --dim 1 --relation cross-cube", 11, 1, CrossCube(), None, False),
    ("--mod 11 --dim 1 --relation swapped-cube --nontrivial",
     11, 1, SwappedCube(), None, True),
]


@pytest.mark.parametrize(
    "argv,p,n,rel,bound,nontrivial",
    _SEARCH_TEXT_SPECS,
    ids=[spec[0] for spec in _SEARCH_TEXT_SPECS],
)
def test_search_text_is_the_canonical_dump(
    monkeypatch, capsys, tmp_path, argv, p, n, rel, bound, nontrivial
):
    # The search writes its "pairs" array as text; it must be the canonical
    # dump of the object with one {"a", "b"} matrix object per hit.
    hits = exhaustive_search(SearchSpec(p, n, rel, bound, nontrivial))
    expected = dict(relations.relation_to_json_fields(rel))
    expected.update(
        {
            "p": p,
            "n": n,
            "nontrivial": nontrivial,
            "count": len(hits),
            "pairs": [{"a": a.to_json_obj(), "b": b.to_json_obj()} for a, b in hits],
        }
    )
    if bound is not None:
        expected["entry_bound"] = list(bound)
    code, out, _ = _run(monkeypatch, capsys, ["search"] + argv.split())
    assert code == 0
    # Compared hit by hit: a failure then names the first hit that differs
    # instead of diffing one line of up to half a megabyte.
    assert out.split('{"a":') == cli._canonical(expected).split('{"a":')
    target = tmp_path / "hits.json"
    code, to_file, _ = _run(
        monkeypatch, capsys, ["search"] + argv.split() + ["--output", str(target)]
    )
    assert code == 0
    assert to_file == ""
    assert target.read_text(encoding="utf-8").split('{"a":') == out.split('{"a":')


def test_search_entry_bound_normalized_in_output(monkeypatch, capsys):
    code, out, _ = _run(
        monkeypatch,
        capsys,
        [
            "search",
            "--mod",
            "5",
            "--dim",
            "1",
            "--relation",
            "cross-cube",
            "--entry-bound",
            "2,0,2",
        ],
    )
    assert code == 0
    assert json.loads(out)["entry_bound"] == [0, 2]


def test_search_budget_exceeded_exit_3(monkeypatch, capsys):
    code, _, err = _run(
        monkeypatch,
        capsys,
        ["search", "--mod", "5", "--dim", "3", "--relation", "cross-cube"],
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["error"]["code"] == "budget-exceeded"
    assert payload["error"]["detail"]["size"] == 5**18


def test_search_hits_past_cap_exit_3(monkeypatch, capsys):
    # Under lambda-commute with lambda 1 at n = 1 every pair is a hit: 5
    # for each a over F_5, so a cap of 12 is crossed at a = 2, with 15.
    monkeypatch.setattr(pairs, "_MAX_HITS", 12)
    code, out, err = _run(monkeypatch, capsys, ["search", "--mod", "5", "--dim", "1"])
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["code"] == "budget-exceeded"
    assert error["detail"] == {"hits": 15, "cap": 12}


@pytest.mark.parametrize("mod", [18446744073709551557, 1000000007])
def test_search_large_modulus_budget_exceeded_exit_3(monkeypatch, capsys, mod):
    # The space is sized from p alone; range(p) is never built.
    code, out, err = _run(
        monkeypatch, capsys, ["search", "--mod", str(mod), "--dim", "1"]
    )
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["code"] == "budget-exceeded"
    assert payload["error"]["detail"] == {"size": mod**2, "budget": 10000000}


def test_search_bad_dim_exit_2(monkeypatch, capsys):
    code, _, err = _run(
        monkeypatch,
        capsys,
        ["search", "--mod", "3", "--dim", "4", "--relation", "cross-cube"],
    )
    assert code == 2
    assert json.loads(err) == {
        "error": {
            "code": "malformed-input",
            "message": "search dimension must be 1..3, got 4",
            "detail": {"n": 4},
        }
    }


_BAD_UTF8_MESSAGE = (
    "'utf-8' codec can't decode byte 0xff in position 1: invalid start byte"
)

# One digit past the interpreter's int/str conversion limit, which json.loads
# enforces with a plain ValueError.
_DIGIT_LIMIT = sys.get_int_max_str_digits()
_LONG_INT = "1" * (_DIGIT_LIMIT + 1)


def _long_int_message(source):
    return (
        f"{source}: JSON integer with more than {_DIGIT_LIMIT} digits "
        "(the interpreter's int/str conversion limit)"
    )


@pytest.mark.parametrize(
    "argv, stdin_text, message, detail",
    [
        (
            ["lemmas", "--which", "section-2", "--i-max", "0"],
            json.dumps(LAMBDA_PAIR),
            "i_max must be a positive integer, got 0",
            {"i_max": 0},
        ),
        (
            ["search", "--mod", "3", "--dim", "2", "--entry-bound", "0,7"],
            None,
            "entry_bound value 7 is not a residue mod 3",
            {"entry_bound": 7, "modulus": 3},
        ),
        (
            ["gen", "--field", "Fp", "--mod", "3", "--family", "exhaustive(3;5;0)"],
            None,
            "search dimension must be 1..3, got 5",
            {"n": 5},
        ),
        (
            ["compute", "--input", "undecodable.json"],
            None,
            _BAD_UTF8_MESSAGE,
            {"path": "undecodable.json"},
        ),
        (
            ["check-relation"],
            json.dumps({**LAMBDA_PAIR, "relation": "zz"}),
            "input.relation: unknown relation 'zz' "
            "(expected lambda-commute, cross-cube or swapped-cube)",
            {"at": "input.relation"},
        ),
        (
            ["check-relation"],
            json.dumps({"a": SHIFT2, "b": DIAG12, "relation": "lambda-commute"}),
            "input.relation: lambda-commute needs a lambda value",
            {"at": "input.relation"},
        ),
        (
            ["lemmas", "--which", "section-2"],
            json.dumps([{**LAMBDA_PAIR, "relation": "zz"}]),
            "input[0].relation: unknown relation 'zz' "
            "(expected lambda-commute, cross-cube or swapped-cube)",
            {"at": "input[0].relation"},
        ),
        (
            ["lemmas", "--which", "section-2"],
            json.dumps([{"a": SHIFT2, "b": DIAG12, "relation": "lambda-commute"}]),
            "input[0].relation: lambda-commute needs a lambda value",
            {"at": "input[0].relation"},
        ),
        (
            ["compute"],
            _LONG_INT,
            _long_int_message("<stdin>"),
            {"limit": _DIGIT_LIMIT, "path": "<stdin>"},
        ),
        (
            ["thm36", "--input", "long.json"],
            None,
            _long_int_message("long.json"),
            {"limit": _DIGIT_LIMIT, "path": "long.json"},
        ),
        (
            ["compute", "--input", "in\0put.json"],
            None,
            "cannot read in\0put.json: embedded null byte",
            {"path": "in\0put.json"},
        ),
        (
            ["compute", "--output", "out\0put.json"],
            json.dumps(SHIFT2),
            "cannot write out\0put.json: embedded null byte",
            {"path": "out\0put.json"},
        ),
        (
            ["gen", "--family", "conjugated(weighted-shift(2;7)"],
            None,
            "unbalanced parentheses in family 'weighted-shift(2;7'",
            {"family": "weighted-shift(2;7"},
        ),
        (
            ["gen", "--family", "direct-sum(zero-b(1));zero-b(1))"],
            None,
            "unbalanced parentheses in family 'zero-b(1));zero-b(1)'",
            {"family": "zero-b(1));zero-b(1)"},
        ),
        (
            ["compute"],
            json.dumps(dict(SHIFT2, entries=[["0", "1"]])),
            "input.entries: expected 2 rows",
            {"at": "input.entries"},
        ),
        (
            ["compute"],
            json.dumps({"field": {"Fp": 5}, "rows": 1, "cols": 1, "entries": [[_LONG_INT]]}),
            f"input.entries[0][0]: residue with more than {_DIGIT_LIMIT} digits "
            "(the interpreter's int/str conversion limit)",
            {"at": "input.entries[0][0]"},
        ),
        (
            ["check-relation"],
            json.dumps({**LAMBDA_PAIR, "relation": []}),
            "input.relation: unknown relation [] "
            "(expected lambda-commute, cross-cube or swapped-cube)",
            {"at": "input.relation"},
        ),
        (
            ["check-relation"],
            json.dumps({**LAMBDA_PAIR, "relation": {"x": 1}}),
            "input.relation: unknown relation {'x': 1} "
            "(expected lambda-commute, cross-cube or swapped-cube)",
            {"at": "input.relation"},
        ),
        (
            ["gen", "--lambda", "5", "--count", "200"],
            None,
            "--lambda is only meaningful with --family",
            {"lambda": "5", "family": None},
        ),
        (
            ["gen", "--relation", "cross-cube", "--seed", "99"],
            None,
            "--seed is only meaningful with --family",
            {"seed": 99, "family": None},
        ),
        (
            ["gen", "--seed", "0"],
            None,
            "--seed is only meaningful with --family",
            {"seed": 0, "family": None},
        ),
        (
            ["gen", "--field", "Q", "--mod", "3"],
            None,
            "--mod is only meaningful with --field Fp",
            {"field": "Q", "mod": 3},
        ),
        (
            ["gen", "--field", "Fp"],
            None,
            "--field Fp requires --mod p",
            {"field": "Fp", "mod": None},
        ),
        (
            ["gen", "--relation", "swapped-cube", "--lambda", "2"],
            None,
            "--lambda is only meaningful with --relation lambda-commute",
            {"lambda": "2", "relation": "swapped-cube"},
        ),
        (
            ["gen", "--family", "weighted-shift(x)"],
            None,
            "n must be an integer, got 'x'",
            {"n": "x"},
        ),
        (
            ["search", "--mod", "3", "--dim", "1", "--entry-bound", "0,,1"],
            None,
            "entry bound must be an integer, got ''",
            {"entry_bound": ""},
        ),
        (
            ["gen", "--family", "direct-sum(zero-b(1);weighted-shift(0))"],
            None,
            "n must be positive, got 0",
            {"n": 0},
        ),
        (
            ["gen", "--family", "weighted-shift"],
            None,
            "family descriptor 'weighted-shift' must look like name(args)",
            {"family": "weighted-shift"},
        ),
        (
            ["gen", "--family", "conjugated(zero-b(1))"],
            None,
            "unknown family descriptor 'conjugated(zero-b(1))'",
            {"family": "conjugated(zero-b(1))"},
        ),
        (
            ["check-relation"],
            json.dumps({"a": SHIFT2, "b": DIAG12}),
            "no relation given: pass --relation or embed one in the input",
            {"relation": None},
        ),
        (
            ["thm23"],
            json.dumps({"a": SHIFT2, "b": DIAG12}),
            "no lambda given: pass --lambda or embed relation/lambda in the input",
            {"lambda": None},
        ),
        (
            ["gen", "--count", "-2"],
            None,
            "--count must be positive, got -2",
            {"count": -2},
        ),
        (
            ["search", "--mod", "3", "--dim", "1", "--jobs", "0"],
            None,
            "--jobs must be positive, got 0",
            {"jobs": 0},
        ),
        (
            ["gen", "--field", "Fp", "--mod", "1"],
            None,
            "modulus must be an integer >= 2, got 1",
            {"modulus": 1},
        ),
        (
            ["search", "--mod", str(2**64 + 13), "--dim", "1"],
            None,
            f"modulus {2**64 + 13} too large (must be < 2**64)",
            {"modulus": 2**64 + 13},
        ),
        (
            ["selftest", "--field", "Fp", "--mod", "4"],
            None,
            "modulus 4 is not prime",
            {"modulus": 4},
        ),
        (
            ["compute"],
            json.dumps({"field": "Q", "rows": 10**8, "cols": 1, "entries": []}),
            "input.rows 100000000 exceeds the dimension cap of 64",
            {"n": 10**8, "cap": 64},
        ),
        (
            ["thm36"],
            json.dumps({"a": SHIFT2, "b": dict(SHIFT2, cols=65)}),
            "input.b.cols 65 exceeds the dimension cap of 64",
            {"n": 65, "cap": 64},
        ),
        (
            ["gen", "--family", "weighted-shift(100000000)"],
            None,
            "family size 100000000 exceeds the dimension cap of 64",
            {"n": 10**8, "cap": 64},
        ),
        (
            ["gen", "--family", "conjugated(direct-sum(weighted-shift(40);zero-b(25));3)"],
            None,
            "family size 65 exceeds the dimension cap of 64",
            {"n": 65, "cap": 64},
        ),
    ],
    ids=[
        "i-max",
        "entry-bound",
        "exhaustive-dim",
        "undecodable-file",
        "relation",
        "relation-lambda",
        "corpus-relation",
        "corpus-relation-lambda",
        "long-int-stdin",
        "long-int-file",
        "nul-input-path",
        "nul-output-path",
        "family-unclosed",
        "family-overclosed",
        "entries-rows",
        "long-residue",
        "relation-list",
        "relation-object",
        "gen-lambda-without-family",
        "gen-seed-without-family",
        "gen-seed-0-without-family",
        "mod-with-field-q",
        "field-fp-without-mod",
        "lambda-with-cube-relation",
        "family-n-not-an-integer",
        "entry-bound-not-an-integer",
        "family-n-below-one",
        "family-without-args",
        "family-unknown",
        "no-relation",
        "no-lambda",
        "count-below-one",
        "jobs-below-one",
        "modulus-below-two",
        "modulus-too-large",
        "modulus-not-prime",
        "matrix-rows-past-cap",
        "matrix-cols-past-cap",
        "family-past-cap",
        "direct-sum-past-cap",
    ],
)
def test_rejected_arguments_are_located(
    monkeypatch, capsys, tmp_path, argv, stdin_text, message, detail
):
    monkeypatch.setattr(cli, "exhaustive_search", _no_search)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "undecodable.json").write_bytes(b"[\xff]")
    (tmp_path / "long.json").write_text(f'{{"a": {{"rows": {_LONG_INT}}}}}')
    code, out, err = _run(monkeypatch, capsys, argv, stdin_text)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": {"code": "malformed-input", "message": message, "detail": detail}
    }


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _child_env(**extra):
    """``os.environ`` plus ``extra``, with this checkout's ``src`` first on
    ``PYTHONPATH``: a child interpreter imports the package under test, not
    an installed copy."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **extra, "PYTHONPATH": path}


def test_undecodable_stdin_exit_2():
    proc = subprocess.run(
        [sys.executable, "-m", "drazinkit.cli", "compute"],
        input=b"[\xff]",
        capture_output=True,
        env=_child_env(PYTHONIOENCODING="utf-8:strict"),
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert json.loads(proc.stderr) == {
        "error": {
            "code": "malformed-input",
            "message": _BAD_UTF8_MESSAGE,
            "detail": {"path": "<stdin>"},
        }
    }


_CLOSED_STDIN = {
    "error": {
        "code": "malformed-input",
        "message": "cannot read <stdin>: standard input is closed",
        "detail": {"path": "<stdin>"},
    }
}


def test_closed_stdin_exit_2():
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m drazinkit.cli compute <&-', sys.executable],
        capture_output=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert json.loads(proc.stderr) == _CLOSED_STDIN


@pytest.mark.parametrize("closed", ["none", "closed"])
def test_closed_stdin_in_process_exit_2(monkeypatch, capsys, closed):
    stdin = None
    if closed == "closed":
        stdin = io.StringIO(json.dumps(SHIFT2))
        stdin.close()
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = _run(monkeypatch, capsys, ["compute"])
    assert code == 2
    assert out == ""
    assert json.loads(err) == _CLOSED_STDIN


def test_search_nonprime_mod_exit_2(monkeypatch, capsys):
    code, _, err = _run(
        monkeypatch,
        capsys,
        ["search", "--mod", "6", "--dim", "1", "--relation", "cross-cube"],
    )
    assert code == 2
    assert "not prime" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_search_nonpositive_jobs_exit_2(monkeypatch, capsys, jobs):
    code, out, err = _run(
        monkeypatch,
        capsys,
        ["search", "--mod", "3", "--dim", "1", "--relation", "cross-cube", "--jobs", jobs],
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "malformed-input"


def _no_search(spec, budget=None):
    raise AssertionError("the search must not start")


def test_search_jobs_past_cap_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "exhaustive_search", _no_search)
    cap = cli._MAX_JOBS
    argv = ["search", "--mod", "3", "--dim", "1", "--relation", "cross-cube"]
    code, out, err = _run(monkeypatch, capsys, argv + ["--jobs", str(cap + 1)])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "malformed-input"
    assert error["detail"] == {"jobs": cap + 1, "cap": cap}
    # The cap itself is accepted; a stand-in takes the search's place.
    monkeypatch.setattr(cli, "exhaustive_search", lambda spec, budget: [])
    code, out, _ = _run(monkeypatch, capsys, argv + ["--jobs", str(cap)])
    assert code == 0
    assert json.loads(out)["count"] == 0


@pytest.mark.parametrize("budget", [-5, 0])
def test_search_budget_below_1_exit_2(monkeypatch, capsys, budget):
    monkeypatch.setattr(cli, "exhaustive_search", _no_search)
    argv = ["search", "--mod", "3", "--dim", "1", "--budget", str(budget)]
    code, out, err = _run(monkeypatch, capsys, argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "malformed-input"
    assert error["detail"] == {"budget": budget}


def test_search_budget_past_cap_exit_2(monkeypatch, capsys):
    # p**2 is under the budget, so without the cap the search would try to
    # list the 2**61 - 1 residues of the modulus.
    monkeypatch.setattr(cli, "exhaustive_search", _no_search)
    cap = 1_000_000_000
    budget = 10**38
    argv = ["search", "--mod", str(2**61 - 1), "--dim", "1", "--relation", "cross-cube"]
    code, out, err = _run(monkeypatch, capsys, argv + ["--budget", str(budget)])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["code"] == "malformed-input"
    assert error["detail"] == {"budget": budget, "cap": cap}
    # The cap itself is accepted; a stand-in takes the search's place.
    monkeypatch.setattr(cli, "exhaustive_search", lambda spec, budget: [])
    argv = ["search", "--mod", "3", "--dim", "1", "--budget", str(cap)]
    code, out, _ = _run(monkeypatch, capsys, argv)
    assert code == 0
    assert json.loads(out)["count"] == 0


@pytest.mark.parametrize(
    "argv, command",
    [
        (["compute", "--bogus"], "drazinkit"),
        (["search", "--dim", "x", "--mod", "3"], "drazinkit search"),
        (["search", "--dim", "2"], "drazinkit search"),
        (["lemmas", "--which", "section-9"], "drazinkit lemmas"),
        (["no-such-command"], "drazinkit"),
        ([], "drazinkit"),
    ],
)
def test_flag_errors_are_one_error_json_exit_2(monkeypatch, capsys, argv, command):
    monkeypatch.setattr(cli, "exhaustive_search", _no_search)
    code, out, err = _run(monkeypatch, capsys, argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "malformed-input"
    assert error["detail"] == {"command": command}
    assert error["message"].startswith(command + ": ")


@pytest.mark.parametrize("argv", [["--help"], ["search", "--help"]])
def test_help_prints_usage_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: drazinkit")


def test_cached_parser_leaks_no_state_between_calls(monkeypatch, capsys):
    commands = [
        (["compute", "--no-such-flag"], None),
        (["--help"], None),
        (["gen", "--relation", "cross-cube", "--count", "1"], None),
        (["gen", "--count", "1"], None),
        (["compute"], json.dumps(SHIFT2)),
    ]
    alone = []
    for argv, stdin_text in commands:
        cli._build_parser.cache_clear()
        alone.append(_run(monkeypatch, capsys, argv, stdin_text))
    cli._build_parser.cache_clear()
    together = [
        _run(monkeypatch, capsys, argv, stdin_text)
        for argv, stdin_text in commands
    ]
    assert together == alone
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(commands) - 1)
    assert [code for code, _, _ in alone] == [2, 0, 0, 0, 0]
    # The second gen still defaults to lambda-commute.
    assert json.loads(together[3][1])[0]["relation"] == "lambda-commute"


def test_parser_is_not_built_at_import():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import drazinkit.cli as c; print(c._build_parser.cache_info().misses)",
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.stdout == "0\n"


@pytest.mark.parametrize(
    "family",
    [
        "weighted-shift(0)",
        "weighted-shift(-1)",
        "conjugated(weighted-shift(0);3)",
        "direct-sum(weighted-shift(2);zero-b(0))",
        "zero-b(0)",
        "diag-tripotents(0)",
        "scalar-identity(0;-1)",
        "exhaustive(3;0;0)",
    ],
)
def test_gen_family_size_below_one_exit_2(monkeypatch, capsys, family):
    code, out, err = _run(
        monkeypatch,
        capsys,
        ["gen", "--relation", "lambda-commute", "--lambda", "2", "--family", family],
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "malformed-input"
    with pytest.raises(ParseError):
        parse_family(family)


@pytest.mark.parametrize("relation", ["cross-cube", "swapped-cube"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gen"],
        ["search", "--mod", "3", "--dim", "1"],
        ["check-relation"],
    ],
)
def test_lambda_with_cube_relation_exit_2(monkeypatch, capsys, argv, relation):
    code, out, err = _run(
        monkeypatch,
        capsys,
        argv + ["--relation", relation, "--lambda", "foo"],
        stdin_text=json.dumps({"a": SHIFT2, "b": DIAG12}),
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["code"] == "malformed-input"
    assert "--lambda" in payload["error"]["message"]


def test_check_relation_lambda_without_relation_exit_2(monkeypatch, capsys):
    pair = {"a": SHIFT2, "b": DIAG12, "relation": "lambda-commute", "lambda": "2"}
    code, out, err = _run(
        monkeypatch, capsys, ["check-relation", "--lambda", "3"], stdin_text=json.dumps(pair)
    )
    assert code == 2
    assert out == ""
    assert "--lambda" in json.loads(err)["error"]["message"]


def test_lambda_defaults_to_one(monkeypatch, capsys):
    code, out, _ = _run(
        monkeypatch,
        capsys,
        ["gen", "--relation", "lambda-commute", "--family", "weighted-shift(2)"],
    )
    assert code == 0
    assert json.loads(out)[0]["lambda"] == "1"


def test_lemmas_section2_i_max_cap_exit_3(monkeypatch, capsys):
    pair = {"a": SHIFT2, "b": DIAG12, "relation": "lambda-commute", "lambda": "2"}
    code, out, err = _run(
        monkeypatch,
        capsys,
        ["lemmas", "--which", "section-2", "--i-max", "33"],
        stdin_text=json.dumps(pair),
    )
    assert code == 3
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["code"] == "exponent-overflow"
    assert payload["error"]["detail"] == {"i_max": 33, "cap": 32}


def _refuses_i_max(argv, stdin_text, i_max, monkeypatch, capsys):
    """``argv`` exits 2 on its ``--i-max`` before any suite runs."""

    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    for k in (21, 22, 31, 32, 33, 34, 35):
        monkeypatch.setattr(cli, f"lemma{k}_suite", no_suite)
    code, out, err = _run(monkeypatch, capsys, argv, stdin_text)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": {
            "code": "malformed-input",
            "message": f"i_max must be a positive integer, got {i_max}",
            "detail": {"i_max": i_max},
        }
    }


def test_lemmas_i_max_refused_where_no_suite_reads_it(monkeypatch, capsys):
    # L3.3, the only lemma-3.3 suite, takes no exponent bound.
    corpus = corpus_to_json_obj(cli.default_cube_corpus(QQ, SwappedCube())[:2])
    argv = ["lemmas", "--which", "lemma-3.3", "--i-max", "-5"]
    _refuses_i_max(argv, json.dumps(corpus), -5, monkeypatch, capsys)


def test_lemmas_i_max_refused_on_an_empty_corpus(monkeypatch, capsys):
    argv = ["lemmas", "--which", "section-2", "--i-max", "0"]
    _refuses_i_max(argv, "[]", 0, monkeypatch, capsys)


def _count_gen_calls(monkeypatch):
    """Count the pairs ``gen`` builds, from a family or a default corpus."""
    calls = []
    for name in ("gen_pair", "default_lambda_corpus", "default_cube_corpus"):
        real = getattr(cli, name)

        def counted(*args, real=real, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return calls


def test_gen_count_cap(monkeypatch, capsys):
    cap = cli._MAX_COUNT
    calls = _count_gen_calls(monkeypatch)
    argv = ["gen", "--family", "weighted-shift(2)", "--count"]
    code, out, _ = _run(monkeypatch, capsys, argv + [str(cap)])
    assert code == 0 and len(json.loads(out)) == len(calls) == cap
    del calls[:]
    for argv in (argv, ["gen", "--relation", "cross-cube", "--count"]):
        code, out, err = _run(monkeypatch, capsys, argv + [str(cap + 1)])
        assert (code, out, calls) == (2, "", [])
        assert json.loads(err) == {
            "error": {
                "code": "malformed-input",
                "message": f"--count {cap + 1} exceeds the cap of {cap}",
                "detail": {"count": cap + 1, "cap": cap},
            }
        }


def test_gen_work_cap(monkeypatch, capsys):
    # count * (n**2 + m**3 per conjugation of an m x m pair), checked before
    # any pair is made.  Accepted pairs come from a stub, so no 64x64 pair is
    # built: at the cap the test would take seconds.
    cap = cli._MAX_GEN_WORK
    made = []

    def stub(family, rel, field, seed):
        made.append(seed)
        return Matrix.identity(field, 1), Matrix.identity(field, 1)

    monkeypatch.setattr(cli, "gen_pair", stub)
    once = "conjugated(weighted-shift(64);1)"
    deep = "weighted-shift(64)"
    for k in range(16):
        deep = f"conjugated({deep};{k})"
    mixed = "conjugated(direct-sum(conjugated(zero-b(63);1);zero-b(1));2)"
    cases = [
        ("weighted-shift(64)", cli._MAX_COUNT, 0, None),
        (once, 15, 0, None),
        (mixed, 7, 0, None),
        (once, 16, 2, 16 * (64**2 + 64**3)),
        (deep, 1, 2, 64**2 + 16 * 64**3),
        (mixed, 8, 2, 8 * (64**2 + 63**3 + 64**3)),
    ]
    for family, count, want, work in cases:
        del made[:]
        argv = ["gen", "--family", family, "--count", str(count)]
        code, out, err = _run(monkeypatch, capsys, argv)
        assert code == want, (family, count, err)
        if work is None:
            assert len(made) == count and len(json.loads(out)) == count
            continue
        assert (out, made, work > cap) == ("", [], True)
        assert json.loads(err) == {
            "error": {
                "code": "malformed-input",
                "message": f"gen work estimate {work} exceeds the cap of {cap}",
                "detail": {"work": work, "cap": cap},
            }
        }


def test_parse_family_grammar():
    assert parse_family("weighted-shift(3)") == WeightedShift(3)
    assert parse_family("diag-tripotents(2)") == DiagTripotents(2)
    assert parse_family("diag-tripotents(3;1,-1,0;-1,1,1)") == DiagTripotents(
        3, ((1, -1, 0), (-1, 1, 1))
    )
    assert parse_family("scalar-identity(2;-1)") == ScalarTimesIdentity(2, -1)
    assert parse_family("scalar-identity(4)") == ScalarTimesIdentity(4, -1)
    assert parse_family("zero-b(2)") == TrivialZeroB(2)
    assert parse_family("exhaustive(3;2;0)") == ExhaustiveHit(3, 2, 0)
    assert parse_family(
        "conjugated(direct-sum(weighted-shift(2);zero-b(1));7)"
    ) == Conjugated(DirectSum(WeightedShift(2), TrivialZeroB(1)), 7)
    for bad in (
        "weighted-shift",
        "weighted-shift(x)",
        "unknown(1)",
        "conjugated(weighted-shift(2);7",
        "direct-sum(weighted-shift(2))",
    ):
        with pytest.raises(ParseError):
            parse_family(bad)


def _nested_family(levels):
    """A descriptor ``levels`` families deep: conjugations of ``zero-b(1)``."""
    return "conjugated(" * (levels - 1) + "zero-b(1)" + ";1)" * (levels - 1)


@pytest.mark.parametrize("levels", [pairs._MAX_FAMILY_DEPTH + 1, 1500])
def test_gen_family_nested_past_cap_exit_2(monkeypatch, capsys, levels):
    argv = ["gen", "--relation", "cross-cube", "--family", _nested_family(levels)]
    code, out, err = _run(monkeypatch, capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {
        "error": {
            "code": "malformed-input",
            "message": "family descriptor nests deeper than 64 levels",
            "detail": {"cap": 64},
        }
    }


def test_gen_family_nested_at_cap(monkeypatch, capsys):
    levels = pairs._MAX_FAMILY_DEPTH
    argv = ["gen", "--relation", "cross-cube", "--family", _nested_family(levels)]
    code, out, _ = _run(monkeypatch, capsys, argv)
    assert code == 0
    [pair] = json.loads(out)
    assert pair["provenance"].count("conjugated(") == levels - 1


def test_dimension_cap_itself_is_accepted():
    # Parsing builds no matrix; the one matrix built here is a single row.
    cap = matrices._MAX_DIMENSION
    assert parse_family(f"weighted-shift({cap})") == WeightedShift(cap)
    assert parse_family(f"conjugated(direct-sum(weighted-shift(40);zero-b({cap - 40}));3)") == (
        Conjugated(DirectSum(WeightedShift(40), TrivialZeroB(cap - 40)), 3)
    )
    row = {"field": {"Fp": 5}, "rows": 1, "cols": cap, "entries": [["1"] * cap]}
    assert Matrix.from_json_obj(row).cols == cap


def test_cli_spells_no_relation_name():
    """The relation classes are the one place a wire name is spelled: no
    string constant in the CLI's source equals one.  A message that merely
    contains a name is allowed."""
    names = {cls.name for cls in relations._RELATIONS}
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    spelled = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names
    ]
    assert spelled == []


def test_cli_knows_no_family():
    """The families, their descriptor grammar and their walks live in
    ``pairs``: the CLI's source names no family type, spells no family wire
    name, and no module of the package keeps a second walk over a family."""
    types = {
        "WeightedShift",
        "DiagTripotents",
        "ScalarTimesIdentity",
        "DirectSum",
        "Conjugated",
        "TrivialZeroB",
        "ExhaustiveHit",
        "PairFamily",
    }
    wire = {
        "weighted-shift",
        "diag-tripotents",
        "scalar-identity",
        "zero-b",
        "conjugated",
        "direct-sum",
        "exhaustive",
    }
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    named = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }
    spelled = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert (named & types, spelled & wire) == (set(), set())
    src = os.path.dirname(cli.__file__)
    for module in sorted(os.listdir(src)):
        if module.endswith(".py"):
            with open(os.path.join(src, module), encoding="utf-8") as fh:
                text = fh.read()
            assert "_family_size" not in text and "_conjugation_work" not in text, module


def test_compute_internal_failure_exit_1(monkeypatch, capsys):
    # A certificate that fails is a bug: exit 1, one error JSON, no stdout.
    def fail(m):
        raise InternalCertificationFailure("certificate failed", {"check": "AXA = A"})

    monkeypatch.setattr(cli, "drazin_inverse", fail)
    code, out, err = _run(monkeypatch, capsys, ["compute"], stdin_text=json.dumps(SHIFT2))
    assert (code, out) == (1, "")
    assert err == (
        '{"error":{"code":"internal-certification-failure",'
        '"detail":{"check":"AXA = A"},"message":"certificate failed"}}\n'
    )


def test_thm23_not_nilpotent_exit_1(monkeypatch, capsys):
    def fail(a, b, lam):
        raise NotNilpotentWithinBound("residual not nilpotent", {"bound": 2})

    monkeypatch.setattr(cli, "evaluate_thm23", fail)
    code, out, err = _run(monkeypatch, capsys, ["thm23"], stdin_text=json.dumps(LAMBDA_PAIR))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["code"] == "not-nilpotent-within-bound"


def test_gen_pair_breaking_its_relation_exit_1(monkeypatch, capsys):
    # gen_pair re-checks each pair against its relation before handing it out.
    def broken(family, rel, field, seed):
        return Matrix.from_rows(field, [[0, 1], [0, 0]]), Matrix.diagonal(field, [1, 2])

    monkeypatch.setattr(pairs, "_gen_pair", broken)
    code, out, err = _run(monkeypatch, capsys, ["gen", "--family", "weighted-shift(2)"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": {
            "code": "internal-certification-failure",
            "message": "family weighted-shift(n=2) emitted a pair violating its relation",
            "detail": {},
        }
    }


def test_selftest_runs_green(monkeypatch, capsys):
    code, out, err = _run(monkeypatch, capsys, ["selftest"])
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    assert obj["field"] == "Q"
    labels = [s["suite"] for s in obj["suites"]]
    assert labels == [
        "L2.1",
        "L2.2",
        "T2.3",
        "L3.1",
        "L3.2",
        "L3.3",
        "L3.4",
        "L3.5[i=0,j=0]",
        "L3.5[i=1,j=2]",
        "L3.5[i=2,j=1]",
        "T3.6",
    ]
    assert all(s["passed"] for s in obj["suites"])
    # progress notes go to stderr, one per suite
    assert len([ln for ln in err.splitlines() if ": " in ln]) == len(labels)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_selftest_passes_over_small_primes(monkeypatch, capsys, p):
    # Over F_3 the lambda = 1 block scales I by 2, since 3 is 0 there.
    code, out, _ = _run(monkeypatch, capsys, ["selftest", "--field", "Fp", "--mod", str(p)])
    assert code == 0
    obj = json.loads(out)
    assert obj["field"] == {"Fp": p}
    assert obj["all_pass"] is True


def test_selftest_characteristic_two_exit_3(monkeypatch, capsys):
    code, _, err = _run(
        monkeypatch, capsys, ["selftest", "--field", "Fp", "--mod", "2"]
    )
    assert code == 3
    error = json.loads(err)["error"]
    assert error["code"] == "characteristic-two"
    assert error["detail"] == {"field": {"Fp": 2}}


def _small_selftest_corpora(monkeypatch):
    """Cut every selftest corpus to its first two pairs so a run is quick."""
    lam_corpus, cube_corpus = cli.default_lambda_corpus, cli.default_cube_corpus
    monkeypatch.setattr(cli, "default_lambda_corpus", lambda field: lam_corpus(field)[:2])
    monkeypatch.setattr(
        cli,
        "default_cube_corpus",
        lambda field, relation=CrossCube(): cube_corpus(field, relation)[:2],
    )
    monkeypatch.setattr(cli, "exhaustive_hits_corpus", lambda relation: [])
    return [cp.provenance for cp in cube_corpus(QQ)[:2]]


def test_selftest_failure_layout_exit_1(monkeypatch, capsys):
    provenances = _small_selftest_corpora(monkeypatch)
    thm36 = cli.evaluate_thm36
    monkeypatch.setattr(cli, "lemma32_suite", _failing_report)
    monkeypatch.setattr(
        cli,
        "evaluate_thm36",
        lambda a, b, ws=None: dataclasses.replace(thm36(a, b), match=False),
    )
    code, out, err = _run(monkeypatch, capsys, ["selftest"])
    assert code == 1
    obj = json.loads(out)
    assert obj["all_pass"] is False
    suites = {s["suite"]: s for s in obj["suites"]}
    assert [s["suite"] for s in obj["suites"] if not s["passed"]] == ["L3.2", "T3.6"]
    assert suites["L3.2"] == {
        "suite": "L3.2",
        "pairs": 2,
        "passed": False,
        "failures": [
            {"pair": i, "provenance": prov, "failing": ["L3.2.x"]}
            for i, prov in enumerate(provenances)
        ],
    }
    assert suites["T3.6"] == {
        "suite": "T3.6",
        "pairs": 2,
        "passed": False,
        "failures": [
            {"pair": i, "provenance": prov, "match": False}
            for i, prov in enumerate(provenances)
        ],
    }
    assert suites["L3.1"] == {"suite": "L3.1", "pairs": 2, "passed": True, "failures": []}
    assert "L3.2: 2 pairs, FAIL" in err.splitlines()


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "drazinkit.cli", "compute"],
        input=json.dumps(SHIFT2),
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["index"] == 2
