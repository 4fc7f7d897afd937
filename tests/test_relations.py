"""Relation predicates, violation reporting, and identity suites."""

from fractions import Fraction

import pytest

import drazinkit.cli as cli
from drazinkit import (
    Conjugated,
    CorpusPair,
    CrossCube,
    DiagTripotents,
    ExponentOverflow,
    FieldMismatch,
    IdentityItem,
    IdentityReport,
    LambdaCommute,
    Matrix,
    ParseError,
    PreconditionViolated,
    PrimeField,
    QQ,
    ShapeMismatch,
    SwappedCube,
    WeightedShift,
    Workspace,
    ZeroLambda,
    check_relation,
    cube_exponent_cap,
    default_cube_corpus,
    default_lambda_corpus,
    det_consistency_diagnostic,
    drazin_inverse,
    exhaustive_hits_corpus,
    first_violation,
    gen_pair,
    lambda_exponent_cap,
    lemma21_suite,
    lemma22_suite,
    lemma31_suite,
    lemma32_suite,
    lemma33_suite,
    lemma34_suite,
    lemma35_suite,
    random_invertible,
    relation_from_json_fields,
    relation_to_json_fields,
    require_relation,
)

from _naive import eq, from_matrix, matmul, matpow

F3 = PrimeField(3)
F5 = PrimeField(5)

# Noncommuting cross-cube pair over F_3 found by exhaustive search; its
# transpose satisfies the swapped-cube relation.  Used as a regression
# anchor because one-sided identities are order-sensitive exactly here.
NC_A = [[0, 1], [2, 0]]
NC_B = [[1, 1], [1, 2]]


def _nc_pair():
    return Matrix.from_rows(F3, NC_A), Matrix.from_rows(F3, NC_B)


def test_relation_kinds():
    lam = QQ.scalar(2)
    rel = LambdaCommute(lam)
    assert rel.lam == lam
    with pytest.raises(ZeroLambda):
        LambdaCommute(QQ.scalar(0))
    with pytest.raises(ZeroLambda):
        LambdaCommute(F5.scalar(0))
    assert CrossCube() == CrossCube()
    assert SwappedCube() == SwappedCube()
    assert CrossCube() != SwappedCube()


def test_relation_json_fields_round_trip():
    lam = QQ.scalar(Fraction(1, 2))
    assert relation_to_json_fields(LambdaCommute(lam)) == {
        "relation": "lambda-commute",
        "lambda": "1/2",
    }
    assert relation_to_json_fields(CrossCube()) == {"relation": "cross-cube"}
    assert relation_to_json_fields(SwappedCube()) == {"relation": "swapped-cube"}
    assert relation_from_json_fields("lambda-commute", lam) == LambdaCommute(lam)
    assert relation_from_json_fields("cross-cube", None) == CrossCube()
    assert relation_from_json_fields("swapped-cube", None) == SwappedCube()
    with pytest.raises(ParseError):
        relation_from_json_fields("lambda-commute", None)
    with pytest.raises(ParseError):
        relation_from_json_fields("cube", None)


def test_check_relation_lambda():
    a = Matrix.from_rows(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    b = Matrix.diagonal(QQ, [1, 2, 4])
    assert check_relation(a, b, LambdaCommute(QQ.scalar(2)))
    assert not check_relation(a, b, LambdaCommute(QQ.scalar(3)))


def test_check_relation_cube_kinds():
    a, b = _nc_pair()
    # a**3 == -a and b**3 == -b over F_3, so both cube relations collapse
    # to the same anticommutation and the pair satisfies the two at once
    assert a * b != b * a
    assert check_relation(a, b, CrossCube())
    assert check_relation(a, b, SwappedCube())
    at, bt = a.transpose(), b.transpose()
    assert check_relation(at, bt, SwappedCube())
    # commuting tripotents satisfy both cube relations at once
    t1 = Matrix.diagonal(QQ, [1, -1, 0])
    t2 = Matrix.diagonal(QQ, [0, 1, -1])
    assert check_relation(t1, t2, CrossCube())
    assert check_relation(t1, t2, SwappedCube())


def test_cube_relations_are_distinct_predicates():
    # the two kinds check different equations: the same broken pair is
    # reported against its own defining equation under each kind
    a = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    b = Matrix.from_rows(QQ, [[1, 0], [1, 1]])
    vc = first_violation(a, b, CrossCube())
    vs = first_violation(a, b, SwappedCube())
    assert vc["equation"] in ("a^3*b = b*a", "b^3*a = a*b")
    assert vs["equation"] in ("a*b^3 = b*a", "b*a^3 = a*b")


def test_first_violation_locates_entry():
    a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    b = Matrix.diagonal(QQ, [1, 2])
    assert first_violation(a, b, LambdaCommute(QQ.scalar(2))) is None
    v = first_violation(a, b, LambdaCommute(QQ.scalar(3)))
    assert v == {
        "equation": "a*b = lam*(b*a)",
        "row": 0,
        "col": 1,
        "lhs": "2",
        "rhs": "3",
    }
    v2 = first_violation(b, a, CrossCube())
    assert v2 is not None
    assert v2["equation"] in ("a^3*b = b*a", "b^3*a = a*b")
    assert isinstance(v2["lhs"], str) and isinstance(v2["rhs"], str)


def test_require_relation_raises_with_detail():
    a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    b = Matrix.diagonal(QQ, [1, 2])
    require_relation(a, b, LambdaCommute(QQ.scalar(2)))
    with pytest.raises(PreconditionViolated) as exc:
        require_relation(a, b, LambdaCommute(QQ.scalar(3)))
    assert exc.value.code == "precondition-violated"
    assert exc.value.detail["row"] == 0
    assert exc.value.detail["col"] == 1
    assert "a*b = lam*(b*a)" in str(exc.value)


def test_validation_rejects_bad_pairs():
    a = Matrix.identity(QQ, 2)
    with pytest.raises(FieldMismatch) as exc:
        check_relation(a, Matrix.identity(F5, 2), CrossCube())
    assert exc.value.detail == {"a": "Q", "b": {"Fp": 5}}
    with pytest.raises(ShapeMismatch) as exc:
        check_relation(a, Matrix.identity(QQ, 3), CrossCube())
    assert exc.value.detail == {"a": [2, 2], "b": [3, 3]}
    with pytest.raises(ShapeMismatch) as exc:
        check_relation(Matrix.zero(QQ, 2, 3), Matrix.zero(QQ, 2, 3), CrossCube())
    assert exc.value.detail == {"a": [2, 3], "b": [2, 3]}
    with pytest.raises(FieldMismatch) as exc:
        check_relation(a, a, LambdaCommute(F5.scalar(1)))
    assert exc.value.detail == {"lambda": {"Fp": 5}, "pair": "Q"}


def test_det_consistency_diagnostic():
    # invertible pair with lam = -1: (-1)^2 == 1, so consistent
    a = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    b = Matrix.diagonal(QQ, [1, -1])
    lam = QQ.scalar(-1)
    assert check_relation(a, b, LambdaCommute(lam))
    assert det_consistency_diagnostic(a, b, lam) is True
    # lam = 2 over a 2x2 invertible pair: 2^2 != 1, ruled out
    assert det_consistency_diagnostic(a, b, QQ.scalar(2)) is False
    # singular member: determinants give no constraint
    s = Matrix.diagonal(QQ, [1, 0])
    assert det_consistency_diagnostic(a, s, lam) is None
    assert det_consistency_diagnostic(s, b, QQ.scalar(7)) is None


def test_identity_report_mechanics():
    eye = Matrix.identity(QQ, 2)
    two = Matrix.diagonal(QQ, [2, 2])
    items = [
        IdentityItem("Z-2", eye, two, False),
        IdentityItem("Z-1", eye, eye, True),
    ]
    rep = IdentityReport.build(CrossCube(), items)
    assert [it.identity_id for it in rep.items] == ["Z-1", "Z-2"]
    assert not rep.all_pass
    assert rep.failing_ids() == ["Z-2"]
    obj = rep.to_json_obj()
    assert obj["relation"] == "cross-cube"
    assert obj["all_pass"] is False
    assert obj["items"] == [
        {"id": "Z-1", "pass": True},
        {"id": "Z-2", "pass": False},
    ]
    # witnesses carry both sides, and only for failures
    assert set(obj["witnesses"]) == {"Z-2"}
    assert obj["witnesses"]["Z-2"]["lhs"] == eye.to_json_obj()
    assert obj["witnesses"]["Z-2"]["rhs"] == two.to_json_obj()
    import json

    json.dumps(obj)


def test_relations_closed_under_conjugation_and_direct_sum():
    lam = QQ.scalar(2)
    a, b = gen_pair(WeightedShift(3), LambdaCommute(lam), lam.field, 7)
    s = random_invertible(QQ, 3, 99)
    assert check_relation(s * a * s.inverse(), s * b * s.inverse(), LambdaCommute(lam))
    a2, b2 = gen_pair(WeightedShift(2), LambdaCommute(lam), lam.field, 8)
    assert check_relation(a.direct_sum(a2), b.direct_sum(b2), LambdaCommute(lam))

    c, d = _nc_pair()
    s3 = random_invertible(F3, 2, 5)
    assert check_relation(s3 * c * s3.inverse(), s3 * d * s3.inverse(), CrossCube())
    assert check_relation(c.direct_sum(c), d.direct_sum(d), CrossCube())


def test_lemma21_matches_naive_oracle():
    """Recompute the i-th power identities with plain Fraction arithmetic."""
    lam = QQ.scalar(3)
    a, b = gen_pair(WeightedShift(3), LambdaCommute(lam), lam.field, 1)
    rep = lemma21_suite(a, b, lam, 3)
    assert rep.all_pass
    an, bn = from_matrix(a), from_matrix(b)
    lam_n = Fraction(3)

    def scale(m, s):
        return [[x * s for x in row] for row in m]

    for i in range(1, 4):
        tri = i * (i - 1) // 2
        bi = matpow(bn, i)
        ai = matpow(an, i)
        assert eq(matmul(an, bi), scale(matmul(bi, an), lam_n**i))
        assert eq(matmul(ai, bn), scale(matmul(bn, ai), lam_n**i))
        ab = matmul(an, bn)
        ba = matmul(bn, an)
        assert eq(matpow(ab, i), scale(matmul(ai, bi), lam_n**-tri))
        assert eq(matpow(ba, i), scale(matmul(bi, ai), lam_n**tri))


def test_lemma21_rejects_bad_i_max():
    lam = QQ.scalar(2)
    a, b = gen_pair(WeightedShift(2), LambdaCommute(lam), lam.field, 1)
    for bad in (0, -1, True, "3"):
        with pytest.raises(ParseError) as exc:
            lemma21_suite(a, b, lam, bad)
        assert exc.value.detail == {"i_max": bad}


@pytest.mark.parametrize("field,cap", [(QQ, 32), (F5, 128)])
def test_lemma21_exponent_cap(field, cap):
    assert lambda_exponent_cap(field) == cap
    lam = field.scalar(2)
    a, b = gen_pair(WeightedShift(2), LambdaCommute(lam), lam.field, 1)
    # checked before any work: even a pair that breaks the relation gets
    # the cap error, not PreconditionViolated
    for bad_lam in (lam, field.scalar(3)):
        with pytest.raises(ExponentOverflow) as exc:
            lemma21_suite(a, b, bad_lam, cap + 1)
        assert exc.value.detail == {"i_max": cap + 1, "cap": cap}
    assert lemma21_suite(a, b, lam, cap).all_pass


def test_lemma21_requires_relation():
    lam = QQ.scalar(2)
    a, b = gen_pair(WeightedShift(2), LambdaCommute(lam), lam.field, 1)
    with pytest.raises(PreconditionViolated):
        lemma21_suite(a, b, QQ.scalar(5), 2)


def test_lemma22_identity_ids_and_pass():
    lam = QQ.scalar(2)
    a, b = gen_pair(WeightedShift(4), LambdaCommute(lam), lam.field, 3)
    rep = lemma22_suite(a, b, lam)
    assert rep.all_pass
    assert [it.identity_id for it in rep.items] == [
        "L2.2-1",
        "L2.2-2",
        "L2.2-3a",
        "L2.2-3b",
        "L2.2-4a",
        "L2.2-4b",
    ]


@pytest.mark.parametrize("field", [QQ, F5])
def test_lemma22_across_families(field):
    lam = field.scalar(2)
    for fam, seed in [
        (WeightedShift(2), 11),
        (WeightedShift(5), 12),
        (Conjugated(WeightedShift(3), 17), 13),
    ]:
        a, b = gen_pair(fam, LambdaCommute(lam), lam.field, seed)
        assert lemma22_suite(a, b, lam).all_pass


def test_lemma31_pass_and_cap():
    a, b = gen_pair(DiagTripotents(3), CrossCube(), QQ, 21)
    assert lemma31_suite(a, b, 4).all_pass
    assert cube_exponent_cap(QQ) == 4
    with pytest.raises(ExponentOverflow) as exc:
        lemma31_suite(a, b, 5)
    assert exc.value.detail == {"i_max": 5, "cap": 4}
    # residues do not grow, so the cap is looser over a prime field
    assert cube_exponent_cap(F5) == 8
    a5, b5 = gen_pair(DiagTripotents(3), CrossCube(), F5, 21)
    assert lemma31_suite(a5, b5, 5).all_pass
    c, d = _nc_pair()
    assert lemma31_suite(c, d, 5).all_pass


def test_lemma32_pass_including_noncommuting():
    a, b = gen_pair(DiagTripotents(3), CrossCube(), QQ, 22)
    rep = lemma32_suite(a, b)
    assert rep.all_pass
    assert len(rep.items) == 12
    c, d = _nc_pair()
    assert lemma32_suite(c, d).all_pass


def test_lemma32_one_sided_orientation_matters():
    # On the noncommuting pair, b*a^D == a^D*b^3 holds while the
    # other-sided product a^D*b differs, so L3.2-4b is genuinely one-sided.
    c, d = _nc_pair()
    dc = drazin_inverse(c).d
    assert d * dc == dc * d**3
    assert dc * d != dc * d**3


def test_lemma33_swapped_pairs():
    a, b = gen_pair(DiagTripotents(3), SwappedCube(), QQ, 23)
    rep = lemma33_suite(a, b)
    assert rep.all_pass
    assert len(rep.items) == 9
    c, d = _nc_pair()
    ct, dt = c.transpose(), d.transpose()
    assert lemma33_suite(ct, dt).all_pass
    # a pair off the relation must be rejected up front
    bad_a = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    bad_b = Matrix.from_rows(QQ, [[1, 0], [1, 1]])
    with pytest.raises(PreconditionViolated):
        lemma33_suite(bad_a, bad_b)


def test_lemma34_pass():
    for fam, seed in [(DiagTripotents(2), 31), (DiagTripotents(3), 32)]:
        a, b = gen_pair(fam, CrossCube(), QQ, seed)
        rep = lemma34_suite(a, b)
        assert rep.all_pass
        assert len(rep.items) == 8
    c, d = _nc_pair()
    assert lemma34_suite(c, d).all_pass


def test_lemma35_exponent_grid_and_validation():
    a, b = gen_pair(DiagTripotents(3), CrossCube(), QQ, 33)
    c, d = _nc_pair()
    for i, j in [(0, 0), (1, 2), (2, 1), (3, 3)]:
        assert lemma35_suite(a, b, i, j).all_pass
        assert lemma35_suite(c, d, i, j).all_pass
    for bad_i, bad_j, detail in [
        (-1, 0, {"i": -1}),
        (0, -2, {"j": -2}),
        (True, 1, {"i": True}),
        (1, "2", {"j": "2"}),
    ]:
        with pytest.raises(ParseError) as exc:
            lemma35_suite(a, b, bad_i, bad_j)
        assert exc.value.detail == detail


def test_suites_fail_loudly_off_relation():
    a = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    b = Matrix.from_rows(QQ, [[1, 0], [1, 1]])
    assert not check_relation(a, b, CrossCube())
    for suite in (
        lambda: lemma31_suite(a, b, 2),
        lambda: lemma32_suite(a, b),
        lambda: lemma34_suite(a, b),
        lambda: lemma35_suite(a, b, 1, 1),
    ):
        with pytest.raises(PreconditionViolated):
            suite()


def test_suites_commute_with_conjugation():
    """Metamorphic oracle: every L row of the catalog, run on ``(s a s^-1,
    s b s^-1)``, gives the same ledger with both sides conjugated by ``s``."""
    corpora = {"lambda-commute": [], "cross-cube": [], "swapped-cube": []}
    for field in (QQ, F5):
        corpora["lambda-commute"] += default_lambda_corpus(field)[:40:5]
        corpora["cross-cube"] += default_cube_corpus(field)[:40:5]
        corpora["swapped-cube"] += default_cube_corpus(field, SwappedCube())[:40:5]
    corpora["cross-cube"] += exhaustive_hits_corpus(CrossCube())[:40:5]
    corpora["swapped-cube"] += exhaustive_hits_corpus(SwappedCube())[:40:5]
    ws, ws_conj = Workspace(), Workspace()
    checked = 0
    for label, relation, runner in cli._CATALOG:
        if not label.startswith("L"):
            continue
        for seed, cp in enumerate(corpora[relation]):
            s = random_invertible(cp.a.field, cp.a.rows, seed)
            s_inv = s.inverse()
            conj = CorpusPair(s * cp.a * s_inv, s * cp.b * s_inv, cp.relation, cp.provenance)
            got = runner(cp, cli._I_MAX, ws).items
            got_conj = runner(conj, cli._I_MAX, ws_conj).items
            assert [(it.identity_id, it.passed) for it in got] == [
                (it.identity_id, it.passed) for it in got_conj
            ], (label, cp.provenance)
            for it, it_conj in zip(got, got_conj):
                assert it_conj.lhs == s * it.lhs * s_inv, (label, it.identity_id)
                assert it_conj.rhs == s * it.rhs * s_inv, (label, it.identity_id)
            checked += len(got)
    assert checked > 1000
