"""Difference and sum formulas against the direct Drazin oracle."""

import json
from random import Random

import pytest

from drazinkit import (
    CharacteristicTwo,
    Conjugated,
    CrossCube,
    DiagTripotents,
    DirectSum,
    LambdaCommute,
    Matrix,
    NotNilpotentWithinBound,
    ParseError,
    PreconditionViolated,
    PrimeField,
    QQ,
    ShapeMismatch,
    TrivialZeroB,
    WeightedShift,
    check_relation,
    drazin_inverse,
    evaluate_thm23,
    evaluate_thm36,
    gen_pair,
    invert_one_minus_nilpotent,
    nilpotency_degree,
)

from _naive import drazin_axioms_hold, from_matrix

F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)


def _shift(field, n: int) -> Matrix:
    return Matrix.from_rows(
        field, [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    )


class TestInvertOneMinusNilpotent:
    def test_worked_instance(self):
        u = _shift(QQ, 2)
        assert invert_one_minus_nilpotent(u, 2) == Matrix.from_rows(
            QQ, [[1, 1], [0, 1]]
        )

    def test_telescoping_product(self):
        for n in (1, 2, 3, 5):
            u = _shift(QQ, n)
            inv = invert_one_minus_nilpotent(u, n)
            eye = Matrix.identity(QQ, n)
            assert (eye - u) * inv == eye
            assert inv * (eye - u) == eye

    def test_bound_zero_asserts_zero(self):
        assert invert_one_minus_nilpotent(
            Matrix.zero(QQ, 2), 0
        ) == Matrix.identity(QQ, 2)
        with pytest.raises(NotNilpotentWithinBound) as exc:
            invert_one_minus_nilpotent(_shift(QQ, 2), 0)
        assert exc.value.detail == {"ranks": [1]}

    def test_loose_bound_is_fine(self):
        u = _shift(QQ, 2)
        inv = invert_one_minus_nilpotent(u, 10)
        assert (Matrix.identity(QQ, 2) - u) * inv == Matrix.identity(QQ, 2)

    def test_not_nilpotent_detail(self):
        eye = Matrix.identity(QQ, 3)
        with pytest.raises(NotNilpotentWithinBound) as exc:
            invert_one_minus_nilpotent(eye, 4)
        assert exc.value.code == "not-nilpotent-within-bound"
        assert exc.value.detail == {"ranks": [3, 3, 3, 3]}

    @pytest.mark.parametrize(
        "u, bound, products",
        [
            (_shift(QQ, 3), 3, 2),
            (_shift(QQ, 3), 10, 2),
            (Matrix.zero(QQ, 2), 0, 0),
            (_shift(QQ, 2), 0, 0),
            (Matrix.identity(QQ, 3), 4, 3),
        ],
    )
    def test_no_power_past_the_bound(self, monkeypatch, u, bound, products):
        # Both walks over the powers of ``u`` form u**2, u**3, ... up to the
        # first zero one or to u**max(bound, 1), and no product more.
        formed = []
        mul = Matrix.__mul__
        monkeypatch.setattr(Matrix, "__mul__", lambda x, y: formed.append(y) or mul(x, y))
        try:
            invert_one_minus_nilpotent(u, bound)
        except NotNilpotentWithinBound:
            pass
        assert len(formed) == products
        formed.clear()
        nilpotency_degree(u, max(bound, 1))
        assert len(formed) == products

    def test_rejects_non_square_and_bad_bound(self):
        with pytest.raises(ShapeMismatch):
            invert_one_minus_nilpotent(Matrix.zero(QQ, 2, 3), 1)
        with pytest.raises(ParseError) as exc:
            invert_one_minus_nilpotent(Matrix.zero(QQ, 2), -1)
        assert exc.value.detail == {"bound": -1}


class TestDifferenceFormula:
    def test_worked_instance_frozen(self):
        a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
        b = Matrix.diagonal(QQ, [1, 2])
        rep = evaluate_thm23(a, b, QQ.scalar(2))
        assert rep.match
        assert rep.x == Matrix.from_rows(QQ, [["-1", "-1/2"], ["0", "-1/2"]])
        # a is nilpotent and b invertible, so the cross term vanishes
        assert rep.w.is_zero()
        assert rep.residual_nilpotency_degree == 1
        assert rep.direct.d == rep.x

    def test_match_across_families_and_fields(self):
        cases = [
            (QQ, WeightedShift(2), 2, 41),
            (QQ, WeightedShift(4), 3, 42),
            (QQ, Conjugated(WeightedShift(3), 19), 2, 43),
            (QQ, DirectSum(WeightedShift(2), TrivialZeroB(2)), 2, 44),
            (QQ, TrivialZeroB(3), 5, 45),
            (F5, WeightedShift(3), 2, 46),
            (F7, Conjugated(WeightedShift(2), 23), 3, 47),
        ]
        for field, fam, lam_int, seed in cases:
            lam = field.scalar(lam_int)
            a, b = gen_pair(fam, LambdaCommute(lam), lam.field, seed)
            rep = evaluate_thm23(a, b, lam)
            assert rep.match, (field, fam, lam_int, seed)
            deg = rep.residual_nilpotency_degree
            assert deg is not None and deg <= a.rows

    def test_formula_value_satisfies_axioms_naively(self):
        # independent check: x is THE Drazin inverse of a-b per the axioms
        lam = QQ.scalar(2)
        a, b = gen_pair(WeightedShift(3), LambdaCommute(lam), lam.field, 48)
        rep = evaluate_thm23(a, b, lam)
        diff = a - b
        k = drazin_inverse(diff).index
        assert drazin_axioms_hold(from_matrix(diff), from_matrix(rep.x), k)

    def test_lambda_one_is_plain_commuting(self):
        lam = QQ.scalar(1)
        a, b = gen_pair(DiagTripotents(3), LambdaCommute(lam), lam.field, 49)
        assert evaluate_thm23(a, b, lam).match

    def test_precondition_enforced(self):
        a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
        b = Matrix.diagonal(QQ, [1, 2])
        with pytest.raises(PreconditionViolated):
            evaluate_thm23(a, b, QQ.scalar(3))

    def test_report_json_serializable(self):
        a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
        b = Matrix.diagonal(QQ, [1, 2])
        obj = evaluate_thm23(a, b, QQ.scalar(2)).to_json_obj()
        text = json.dumps(obj, sort_keys=True)
        assert '"match": true' in text
        assert obj["x"]["entries"] == [["-1", "-1/2"], ["0", "-1/2"]]


class TestSumFormula:
    def test_worked_instances_frozen(self):
        a = Matrix.diagonal(QQ, [1, -1, 0])
        b = Matrix.diagonal(QQ, [-1, 1, 1])
        rep = evaluate_thm36(a, b)
        assert rep.match
        assert rep.direct.d == Matrix.diagonal(QQ, [0, 0, 1])
        assert rep.projectors_orthogonal

        a2 = Matrix.identity(QQ, 3)
        b2 = Matrix.diagonal(QQ, [1, -1, 0])
        rep2 = evaluate_thm36(a2, b2)
        assert rep2.match
        assert rep2.direct.d == Matrix.diagonal(QQ, ["1/2", "0", "1"])
        assert rep2.projectors_orthogonal

    def test_match_across_families_and_fields(self):
        for field in (QQ, F5, F7):
            for fam, seed in [
                (DiagTripotents(2), 51),
                (DiagTripotents(3, ((1, -1, 0), (-1, 1, 1))), 52),
                (TrivialZeroB(3), 53),
                (Conjugated(DiagTripotents(3), 29), 54),
                (DirectSum(DiagTripotents(2), TrivialZeroB(1)), 55),
            ]:
                a, b = gen_pair(fam, CrossCube(), field, seed)
                rep = evaluate_thm36(a, b)
                assert rep.match, (field, fam, seed)
                assert rep.projectors_orthogonal
                deg = rep.residual_nilpotency_degree
                assert deg is not None and deg <= a.rows

    def test_noncommuting_field_pair(self):
        a = Matrix.from_rows(PrimeField(3), [[0, 1], [2, 0]])
        b = Matrix.from_rows(PrimeField(3), [[1, 1], [1, 2]])
        assert a * b != b * a
        rep = evaluate_thm36(a, b)
        assert rep.match
        assert rep.projectors_orthogonal

    def test_characteristic_two_rejected_before_relation_check(self):
        # this pair does not satisfy the relation either; the field gate
        # must fire first
        a = Matrix.from_rows(F2, [[1, 1], [0, 1]])
        b = Matrix.from_rows(F2, [[1, 0], [1, 1]])
        assert not check_relation(a, b, CrossCube())
        with pytest.raises(CharacteristicTwo):
            evaluate_thm36(a, b)
        # and for a pair that does satisfy it (zero pair), still rejected
        z = Matrix.zero(F2, 2)
        with pytest.raises(CharacteristicTwo):
            evaluate_thm36(z, z)

    def test_precondition_enforced(self):
        a = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
        b = Matrix.from_rows(QQ, [[1, 0], [1, 1]])
        with pytest.raises(PreconditionViolated):
            evaluate_thm36(a, b)

    def test_sum_formula_value_satisfies_axioms_naively(self):
        a, b = gen_pair(DiagTripotents(3, ((1, -1, 0), (-1, 1, 1))), CrossCube(), QQ, 56)
        rep = evaluate_thm36(a, b)
        total = a + b
        k = drazin_inverse(total).index
        assert drazin_axioms_hold(from_matrix(total), from_matrix(rep.m), k)

    def test_report_json_serializable(self):
        a = Matrix.diagonal(QQ, [1, -1, 0])
        b = Matrix.diagonal(QQ, [-1, 1, 1])
        obj = evaluate_thm36(a, b).to_json_obj()
        text = json.dumps(obj, sort_keys=True)
        assert '"projectors_orthogonal": true' in text
        assert obj["direct"]["d"]["entries"] == [
            ["0", "0", "0"],
            ["0", "0", "0"],
            ["0", "0", "1"],
        ]


class TestMutationSensitivity:
    """A deliberately miscoded formula must be caught by the oracle."""

    def _mutated_thm36_value(self, a: Matrix, b: Matrix) -> Matrix:
        # same shape as the real formula but with the leading 1/8
        # replaced by 1/4: a plausible transcription slip
        da = drazin_inverse(a)
        db = drazin_inverse(b)
        p_a = a * da.d
        p_b = b * db.d
        eye = Matrix.identity(a.field, a.rows)
        quarter = a.field.scalar(4).inverse()
        core = 3 * a**3 + 3 * b**3 - a - b
        return quarter * (p_b * core * p_a) + da.d * (eye - p_b) + (eye - p_a) * db.d

    def test_quarter_mutation_detected(self):
        mismatches = 0
        for fam, seed in [
            (DiagTripotents(2), 61),
            (DiagTripotents(3, ((1, -1, 0), (-1, 1, 1))), 62),
            (Conjugated(DiagTripotents(3), 29), 63),
        ]:
            a, b = gen_pair(fam, CrossCube(), QQ, seed)
            wrong = self._mutated_thm36_value(a, b)
            right = drazin_inverse(a + b).d
            if wrong != right:
                mismatches += 1
        assert mismatches >= 1


def test_random_commuting_pairs_both_formulas():
    """Commuting diagonal pairs satisfy both hypotheses; both must match."""
    rng = Random(6061)
    pool_q = [0, 1, -1]
    for _ in range(20):
        n = rng.randint(1, 4)
        av = [rng.choice(pool_q) for _ in range(n)]
        bv = [rng.choice(pool_q) for _ in range(n)]
        a = Matrix.diagonal(QQ, av)
        # tripotent diagonals satisfy the cube hypothesis
        assert evaluate_thm36(a, Matrix.diagonal(QQ, bv)).match
        # any commuting pair satisfies the lam = 1 hypothesis
        c = Matrix.diagonal(QQ, [rng.randint(-3, 3) for _ in range(n)])
        d = Matrix.diagonal(QQ, [rng.randint(-3, 3) for _ in range(n)])
        assert evaluate_thm23(c, d, QQ.scalar(1)).match
