"""Acceptance gate: the seven library-level criteria, one test each.

Every check is exact (zero tolerance); each test prints one line
``criterion N: PASS/FAIL (elapsed, budget) - description`` so a plain
``pytest tests/test_acceptance.py -s`` reads as a checklist.  The elapsed
time is asserted against the stated budget.
"""

import contextlib
import io
import json
import time
from random import Random

import pytest

from drazinkit import (
    CharacteristicTwo,
    CrossCube,
    LambdaCommute,
    Matrix,
    PrimeField,
    QQ,
    SearchSpec,
    SwappedCube,
    certify,
    compute_index,
    default_cube_corpus,
    default_lambda_corpus,
    drazin_inverse,
    evaluate_thm23,
    evaluate_thm36,
    exhaustive_hits_corpus,
    exhaustive_search,
    lemma22_suite,
    lemma31_suite,
    lemma32_suite,
    lemma33_suite,
    lemma34_suite,
    lemma35_suite,
)
from drazinkit.cli import main

from _naive import drazin_from_inner_inverse, from_matrix

F5 = PrimeField(5)
F7 = PrimeField(7)


def _report(num: int, desc: str, budget_s: float, fn) -> None:
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(
            f"criterion {num}: FAIL ({elapsed:.2f}s, budget {budget_s:g}s) - {desc}"
        )
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num}: PASS ({elapsed:.2f}s, budget {budget_s:g}s) - {desc}")
    assert elapsed < budget_s, f"criterion {num} overran: {elapsed:.2f}s"


def _random_square(field, n: int, rng: Random) -> Matrix:
    kind = rng.randrange(4)
    if kind == 0:
        pool = (
            [-2, -1, 0, 0, 1, 2]
            if field.characteristic == 0
            else list(range(field.characteristic))
        )
        return Matrix.from_rows(
            field, [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        )
    if kind == 1:
        pool = [0, 0, 1, 2, -1] if field.characteristic == 0 else [0, 0, 1, 2]
        return Matrix.diagonal(field, [rng.choice(pool) for _ in range(n)])
    if kind == 2:
        k = rng.randint(1, n)
        rows = [[1 if j == i + 1 else 0 for j in range(k)] for i in range(k)]
        m = Matrix.from_rows(field, rows)
        if k < n:
            m = m.direct_sum(
                Matrix.diagonal(
                    field, [rng.choice([1, 2, 3]) for _ in range(n - k)]
                )
            )
        return m
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(0)
            elif j == i:
                row.append(rng.choice([0, 1, 2]))
            else:
                row.append(rng.choice([0, 1]))
        rows.append(row)
    return Matrix.from_rows(field, rows)


def test_criterion_1_axioms_uniqueness_determinism():
    # Uniqueness: d equals a**k * G * a**k for an inner inverse G of
    # a**(2k + 1) built by the naive oracle and perturbed at random, so the
    # package computed neither G nor the product.
    def body():
        for field, seed in ((QQ, 1001), (F5, 1005)):
            rng, perturb = Random(seed), Random(seed + 1)
            p = field.characteristic or None
            for _ in range(300):
                a = _random_square(field, rng.randint(1, 6), rng)
                data = drazin_inverse(a)
                assert certify(a, data.d, data.index)
                assert data.index == compute_index(a)
                assert from_matrix(data.d) == drazin_from_inner_inverse(
                    from_matrix(a), data.index, perturb, p
                )
                assert drazin_inverse(a).d.to_json_obj() == data.d.to_json_obj()

    _report(
        1,
        "certify + rank-plateau index + d equal to a^k G a^k for a perturbed "
        "inner inverse G built outside the package + identical d on a second "
        "call, 300 random matrices (n <= 6) over Q and over F_5",
        10.0,
        body,
    )


def test_criterion_2_lambda_commute_drazin_identities():
    def body():
        for field in (QQ, F5):
            corpus = default_lambda_corpus(field)
            assert len(corpus) >= 100
            lams = {str(cp.relation.lam) for cp in corpus}
            if field is QQ:
                assert {"2", "3", "1/2"} <= lams
            else:
                assert lams == {"1", "2", "3", "4"}
            for cp in corpus:
                assert lemma22_suite(cp.a, cp.b, cp.relation.lam).all_pass

    _report(
        2,
        "L2.2 identity suite exact on >= 100 lambda-commuting pairs "
        "per field (Q and F_5)",
        10.0,
        body,
    )


def test_criterion_3_difference_formula_equivalence():
    def body():
        a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
        b = Matrix.diagonal(QQ, [1, 2])
        rep = evaluate_thm23(a, b, QQ.scalar(2))
        assert rep.match
        assert rep.x == Matrix.from_rows(QQ, [["-1", "-1/2"], ["0", "-1/2"]])
        for field in (QQ, F5):
            for cp in default_lambda_corpus(field):
                r = evaluate_thm23(cp.a, cp.b, cp.relation.lam)
                assert r.match, cp.provenance
                deg = r.residual_nilpotency_degree
                assert deg is not None and deg <= cp.a.rows

    _report(
        3,
        "difference formula == oracle (a-b)^D on the lambda corpora, "
        "residual nilpotent with degree <= n, worked instance frozen",
        15.0,
        body,
    )


def test_criterion_4_cube_identity_suites():
    def body():
        cross_corpus = default_cube_corpus(QQ) + exhaustive_hits_corpus(CrossCube())
        for cp in cross_corpus:
            assert lemma31_suite(cp.a, cp.b, 3).all_pass, cp.provenance
            assert lemma32_suite(cp.a, cp.b).all_pass, cp.provenance
            assert lemma34_suite(cp.a, cp.b).all_pass, cp.provenance
            for i, j in ((0, 0), (1, 2), (2, 1)):
                assert lemma35_suite(cp.a, cp.b, i, j).all_pass, cp.provenance
        # the high-exponent product identity and the annihilation identity
        # are members of the suites just verified
        first = cross_corpus[0]
        ids31 = {it.identity_id for it in lemma31_suite(first.a, first.b, 3).items}
        assert "L3.1-3a-i01" in ids31
        ids35 = {it.identity_id for it in lemma35_suite(first.a, first.b, 0, 0).items}
        assert "L3.5-7" in ids35
        swapped_corpus = default_cube_corpus(QQ, SwappedCube()) + exhaustive_hits_corpus(
            SwappedCube()
        )
        for cp in swapped_corpus:
            assert lemma33_suite(cp.a, cp.b).all_pass, cp.provenance

    _report(
        4,
        "L3.1/L3.2/L3.4/L3.5 exact on the cube corpus plus every "
        "nontrivial F_3 hit (n <= 2), L3.3 on the swapped corpus, i_max = 3",
        20.0,
        body,
    )


def test_criterion_5_sum_formula_equivalence():
    def body():
        a = Matrix.diagonal(QQ, [1, -1, 0])
        b = Matrix.diagonal(QQ, [-1, 1, 1])
        rep = evaluate_thm36(a, b)
        assert rep.match
        assert rep.direct.d == Matrix.diagonal(QQ, [0, 0, 1])
        rep2 = evaluate_thm36(Matrix.identity(QQ, 3), Matrix.diagonal(QQ, [1, -1, 0]))
        assert rep2.match
        assert rep2.direct.d == Matrix.diagonal(QQ, ["1/2", "0", "1"])
        for field in (QQ, F5, F7):
            for cp in default_cube_corpus(field):
                r = evaluate_thm36(cp.a, cp.b)
                assert r.match and r.projectors_orthogonal, cp.provenance
        for cp in exhaustive_hits_corpus(CrossCube()):
            r = evaluate_thm36(cp.a, cp.b)
            assert r.match and r.projectors_orthogonal, cp.provenance
        z = Matrix.zero(PrimeField(2), 2)
        with pytest.raises(CharacteristicTwo):
            evaluate_thm36(z, z)

    _report(
        5,
        "sum formula == oracle (a+b)^D on the cube corpora over Q, F_5, "
        "F_7 and the F_3 hits; F_2 raises; worked instances frozen",
        15.0,
        body,
    )


def test_criterion_6_search_determinism_completeness():
    def body():
        small = exhaustive_search(
            SearchSpec(3, 1, CrossCube(), require_nontrivial=True)
        )
        got = {(str(a.entry(0, 0)), str(b.entry(0, 0))) for a, b in small}
        assert got == {("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")}
        assert len(small) == 4
        argv = ["search", "--mod", "3", "--dim", "2", "--relation", "cross-cube"]
        outs = []
        for jobs in ("1", "8"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv + ["--nontrivial", "--jobs", jobs]) == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["count"] == 340

    _report(
        6,
        "n=1 nontrivial hits over F_3 are exactly {1,2} x {1,2}; "
        "n=2 search output identical for --jobs 1 and --jobs 8",
        60.0,
        body,
    )


def test_criterion_7_mutation_sensitivity():
    def _mutated_sum_formula(a: Matrix, b: Matrix) -> Matrix:
        # test double: the 1/8 coefficient miscoded as 1/4
        da = drazin_inverse(a)
        db = drazin_inverse(b)
        p_a = a * da.d
        p_b = b * db.d
        eye = Matrix.identity(a.field, a.rows)
        quarter = a.field.scalar(4).inverse()
        core = 3 * a**3 + 3 * b**3 - a - b
        return (
            quarter * (p_b * core * p_a)
            + da.d * (eye - p_b)
            + (eye - p_a) * db.d
        )

    def body():
        mismatches = 0
        for cp in default_cube_corpus(QQ):
            wrong = _mutated_sum_formula(cp.a, cp.b)
            if wrong != drazin_inverse(cp.a + cp.b).d:
                mismatches += 1
        assert mismatches >= 1

    _report(
        7,
        "miscoding the sum-formula coefficient 1/8 as 1/4 breaks the "
        "oracle match on at least one corpus pair",
        5.0,
        body,
    )
