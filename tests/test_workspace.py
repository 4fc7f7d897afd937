"""Workspace: reuse across a run is invisible in every result."""

import io
from contextlib import redirect_stderr, redirect_stdout
from random import Random

import pytest

import drazinkit.cli as cli
from drazinkit import (
    QQ,
    CrossCube,
    LambdaCommute,
    Matrix,
    PreconditionViolated,
    PrimeField,
    SwappedCube,
    WeightedShift,
    Workspace,
    certify,
    default_cube_corpus,
    default_lambda_corpus,
    drazin_inverse,
    evaluate_thm23,
    evaluate_thm36,
    exhaustive_hits_corpus,
    gen_pair,
    lemma22_suite,
    lemma32_suite,
    require_relation,
)

from _naive import drazin_from_inner_inverse, from_matrix

F5 = PrimeField(5)
SLICE = 4


def _corpora():
    """Slices of the QQ and F_5 default corpora plus the F_3 hits."""
    out = {"lambda-commute": [], "cross-cube": [], "swapped-cube": []}
    for field in (QQ, F5):
        out["lambda-commute"] += default_lambda_corpus(field)[:SLICE]
        out["cross-cube"] += default_cube_corpus(field)[:SLICE]
        out["swapped-cube"] += default_cube_corpus(field, SwappedCube())[:SLICE]
    out["cross-cube"] += exhaustive_hits_corpus(CrossCube())[:SLICE]
    out["swapped-cube"] += exhaustive_hits_corpus(SwappedCube())[:SLICE]
    return out


def _row_result(label, runner, cp, ws):
    """Everything one catalog row computes on one pair, as comparable data."""
    if label == "T2.3":
        return evaluate_thm23(cp.a, cp.b, cp.relation.lam, ws=ws).to_json_obj()
    if label == "T3.6":
        return evaluate_thm36(cp.a, cp.b, ws=ws).to_json_obj()
    report = runner(cp, cli._I_MAX, ws)
    return report.to_json_obj(), report.items


def test_shared_workspace_gives_the_same_results():
    corpora = _corpora()
    shared = Workspace()
    for label, relation, runner in cli._CATALOG:
        for cp in corpora[relation]:
            got = _row_result(label, runner, cp, shared)
            assert got == _row_result(label, runner, cp, None), (label, cp.provenance)
    assert shared.drazin_reused > 0


class _Rechecking(Workspace):
    """A workspace that re-forms every product step it finds stored."""

    def __init__(self):
        super().__init__()
        self.rechecked = 0

    def prod(self, *factors):
        p = factors[0]
        for f in factors[1:]:
            reused = self.products_reused
            q = super().prod(p, f)
            if self.products_reused > reused:
                assert q == p * f
                self.rechecked += 1
            p = q
        return p


def test_every_reused_product_equals_a_fresh_one():
    corpora = _corpora()
    ws = _Rechecking()
    for label, relation, runner in cli._CATALOG:
        for cp in corpora[relation]:
            _row_result(label, runner, cp, ws)
    assert ws.rechecked == ws.products_reused > ws.products_computed > 0


def test_prod_forms_each_step_once():
    ws = Workspace()
    x = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    y = Matrix.from_rows(QQ, [["1/2", 0], [0, -1]])
    assert ws.prod(x) is x
    xyx = ws.prod(x, y, x)
    assert xyx == x * y * x
    assert (ws.products_computed, ws.products_reused) == (2, 0)
    # Equal values, other objects: found, and the stored matrix comes back.
    again = ws.prod(Matrix.from_rows(QQ, [[1, 2], [3, 4]]), y, x)
    assert again is xyx
    assert (ws.products_computed, ws.products_reused) == (2, 2)
    # Only the steps of prod are kept; a plain product is formed afresh.
    assert ws.prod(x, y) * x is not xyx
    assert ws.prod(y, x) == y * x
    assert (ws.products_computed, ws.products_reused) == (3, 3)


def test_workspace_hands_out_the_first_object_of_each_value():
    ws = Workspace()

    def fresh(rows):
        return Matrix.from_rows(QQ, rows)

    x = fresh([[1, 2], [3, 4]])
    assert ws.intern(x) is x and ws.intern(fresh([[1, 2], [3, 4]])) is x
    assert ws.power(fresh([[1, 2], [3, 4]]), 1) is x
    xy = ws.prod(x, fresh([[0, 1], [0, 0]]))
    assert ws.intern(fresh([[0, 1], [0, 3]])) is xy
    data = ws.drazin(fresh([[0, 1], [0, 3]]))
    (key,) = ws._drazin
    assert key is xy and ws._drazin[key] is data
    assert ws.intern(fresh([[0, "1/9"], [0, "1/3"]])) is data.d
    assert ws.intern(fresh([[1, "-1/3"], [0, 0]])) is data.pi
    # a suite's operands are the stored objects, whatever the caller passed
    a, b = ws.intern(fresh([[1, 0], [0, 2]])), ws.intern(fresh([[3, 0], [0, 4]]))
    lemma22_suite(fresh([[1, 0], [0, 2]]), fresh([[3, 0], [0, 4]]), QQ.scalar(1), ws=ws)
    computed = ws.products_computed
    ab = ws.prod(a, b)
    assert ws.products_computed == computed
    assert ws.intern(fresh([[3, 0], [0, 8]])) is ab
    assert ws.intern(fresh([[1, 0], [0, 2]])) is a


@pytest.mark.parametrize("field", [QQ, F5])
def test_workspace_order_is_the_only_order(field):
    # Whichever inner inverse builds it, and whichever call comes first, a
    # matrix has one Drazin inverse: the stored one.
    ws = Workspace()
    cps = default_cube_corpus(field)[:SLICE]
    mats = [m for cp in cps for m in (cp.a, cp.b, cp.a + cp.b)]
    perturb = Random(141)
    for m in mats:
        data = ws.drazin(m)
        assert from_matrix(data.d) == drazin_from_inner_inverse(
            from_matrix(m), data.index, perturb, field.characteristic or None
        )
        assert certify(m, data.d, data.index)
        assert ws.drazin(m) is data
    assert ws.drazin_computed == len(set(mats))
    assert ws.drazin_computed + ws.drazin_reused == 2 * len(mats)


def test_power_table():
    ws = Workspace()
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    for e in range(6):
        assert ws.power(a, e) == a**e
    assert ws.power(Matrix.from_rows(QQ, [[1, 2], [3, 4]]), 5) is ws.power(a, 5)


def _violation(fn):
    with pytest.raises(PreconditionViolated) as exc:
        fn()
    return str(exc.value), exc.value.detail


def test_failing_pair_still_raises_in_a_used_workspace():
    ws = Workspace()
    good = default_cube_corpus(QQ)[:SLICE]
    for cp in good:
        assert lemma32_suite(cp.a, cp.b, ws=ws).all_pass
    a, b = good[2].a, good[2].b  # diag(1, -1) and the identity
    bad_b = b + Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    alone = _violation(lambda: lemma32_suite(a, bad_b))
    for _ in range(2):  # failures are not remembered
        assert _violation(lambda: lemma32_suite(a, bad_b, ws=ws)) == alone
    # A pair that passed one relation has not passed another.
    lam = QQ.scalar(2)
    assert _violation(lambda: lemma22_suite(a, b, lam, ws=ws)) == _violation(
        lambda: require_relation(a, b, LambdaCommute(lam))
    )


def test_lambda_suites_share_drazin_data():
    lam = QQ.scalar(2)
    a, b = gen_pair(WeightedShift(3), LambdaCommute(lam), lam.field, 4)
    ws = Workspace()
    lemma22_suite(a, b, lam, ws=ws)
    evaluate_thm23(a, b, lam, ws=ws)
    # L2.2 computes a, b, a*b; T2.3 reuses a, b and adds w and a - b.
    assert (ws.drazin_computed, ws.drazin_reused) == (5, 2)
    assert ws.drazin(a).d == drazin_inverse(a).d


def _selftest_workspace(monkeypatch, argv):
    seen = []

    class Spy(Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self)

    monkeypatch.setattr(cli, "Workspace", Spy)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    (ws,) = seen
    return ws


@pytest.mark.parametrize(
    "argv, computed",
    [(["selftest", "--field", "Fp", "--mod", "5"], 380), (["selftest"], 390)],
)
def test_selftest_computes_each_drazin_inverse_once(monkeypatch, argv, computed):
    """A count gate that does not depend on machine speed: the catalog asks
    for 6,217 Drazin inverses, of which only ``computed`` are distinct."""
    ws = _selftest_workspace(monkeypatch, argv)
    assert ws.drazin_computed == computed
    assert ws.drazin_computed + ws.drazin_reused == 6217


def test_selftest_forms_each_product_once(monkeypatch):
    """A count gate that does not depend on machine speed: one selftest over
    F_5 asks for 99,970 product steps, of which only 3,069 are distinct.

    The relation checks take their products from the workspace too, so each
    check of a pair that the run has seen before is lookups only: that adds
    12,316 reused steps and no computed one."""
    ws = _selftest_workspace(monkeypatch, ["selftest", "--field", "Fp", "--mod", "5"])
    assert (ws.products_computed, ws.products_reused) == (3069, 96901)
    assert ws.products_computed + ws.products_reused == 99970


@pytest.mark.parametrize(
    "argv, products",
    [(["selftest", "--field", "Fp", "--mod", "5"], 6607), (["selftest"], 7157)],
    ids=["F5", "Q"],
)
def test_selftest_matrix_products(monkeypatch, argv, products):
    """A count gate that does not depend on machine speed: every product of
    two matrices that one selftest forms, in the workspace or outside it
    (corpus generation, Drazin inverses, the formulas' oracles)."""
    seen = []
    mul = Matrix.__mul__

    def counting(self, other):
        if isinstance(other, Matrix):
            seen.append(1)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    assert len(seen) == products


def test_a_second_check_in_one_workspace_forms_no_product():
    ws = Workspace()
    cp = default_cube_corpus(QQ)[3]
    require_relation(cp.a, cp.b, CrossCube(), ws=ws)
    computed, reused = ws.products_computed, ws.products_reused
    assert computed > 0
    require_relation(cp.a, cp.b, CrossCube(), ws=ws)
    assert ws.products_computed == computed
    assert ws.products_reused > reused
