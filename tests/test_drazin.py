"""Drazin inverse: worked instances, certification, index, determinism."""

import ast
from pathlib import Path
from random import Random

import pytest

from drazinkit import (
    InternalCertificationFailure,
    Matrix,
    PrimeField,
    QQ,
    ShapeMismatch,
    certify,
    compute_index,
    drazin_inverse,
)
from drazinkit import drazin

from _naive import (
    drazin_axioms_hold,
    drazin_from_inner_inverse,
    from_matrix,
    matmul,
    matpow,
)

F5 = PrimeField(5)


def test_invertible_matrix():
    a = Matrix.diagonal(QQ, [2, 3])
    data = drazin_inverse(a)
    assert data.index == 0
    assert data.is_group
    assert data.d == Matrix.diagonal(QQ, ["1/2", "1/3"])
    assert data.pi.is_zero()


def test_diagonal_with_zero():
    # diag(2, 0): invertible core plus a vanished direction.
    a = Matrix.diagonal(QQ, [2, 0])
    data = drazin_inverse(a)
    assert data.index == 1
    assert data.is_group
    assert data.d == Matrix.diagonal(QQ, ["1/2", "0"])
    assert data.pi == Matrix.diagonal(QQ, [0, 1])


def test_nilpotent_shift():
    a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    data = drazin_inverse(a)
    assert data.index == 2
    assert data.d.is_zero()
    assert data.pi == Matrix.identity(QQ, 2)
    assert not data.is_group


def test_zero_matrix_convention():
    data = drazin_inverse(Matrix.zero(QQ, 3))
    assert data.index == 1
    assert data.d.is_zero()
    assert data.pi == Matrix.identity(QQ, 3)
    assert data.is_group


def test_one_by_one():
    assert drazin_inverse(Matrix.from_rows(QQ, [[5]])).d == Matrix.from_rows(
        QQ, [["1/5"]]
    )
    assert drazin_inverse(Matrix.from_rows(QQ, [[0]])).index == 1


def test_certify_contract():
    a = Matrix.diagonal(QQ, [2, 0])
    good = Matrix.diagonal(QQ, ["1/2", "0"])
    bad = Matrix.diagonal(QQ, ["1/2", "1"])
    assert certify(a, good, 1)
    assert not certify(a, bad, 1)
    assert not certify(a, good, -1)
    with pytest.raises(ShapeMismatch):
        certify(a, Matrix.zero(QQ, 3), 1)
    with pytest.raises(ShapeMismatch):
        certify(Matrix.zero(QQ, 2, 3), good, 1)


@pytest.mark.parametrize(
    "a, d, k",
    [
        # a*d != d*a only
        (Matrix.from_rows(QQ, [[0, 1], [0, 0]]), Matrix.from_rows(QQ, [[0, 0], [1, 0]]), 2),
        # d*a*d != d only
        (Matrix.zero(QQ, 2), Matrix.identity(QQ, 2), 1),
        # a**k != a**(k + 1) * d only
        (Matrix.identity(QQ, 2), Matrix.zero(QQ, 2), 0),
    ],
)
def test_certify_checks_each_equation(a, d, k):
    assert not drazin_axioms_hold(from_matrix(a), from_matrix(d), k)
    assert not certify(a, d, k)


@pytest.mark.parametrize(
    "a, k",
    [
        (Matrix.diagonal(QQ, [1, 2]), 0),
        (Matrix.diagonal(QQ, [2, 0]), 1),
        (Matrix.from_rows(QQ, [[0, 1], [0, 0]]).direct_sum(Matrix.diagonal(QQ, [2])), 2),
    ],
)
def test_constructed_inverse_is_certified(monkeypatch, a, k):
    """A wrong inner inverse yields d = 0, which commutes with a and has
    d*a*d == d but breaks a**k == a**(k + 1) * d: the build must refuse it."""
    assert compute_index(a) == k
    monkeypatch.setattr(
        Matrix,
        "inner_inverse",
        lambda self: Matrix.zero(self.field, self.cols, self.rows),
    )
    with pytest.raises(InternalCertificationFailure):
        drazin_inverse(a)


def test_certify_rejects_wrong_field():
    a = Matrix.diagonal(QQ, [2, 0])
    assert not certify(a, Matrix.diagonal(F5, [3, 0]), 1)


def _shift(field, n: int) -> Matrix:
    return Matrix.from_rows(
        field, [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    )


def test_index_examples():
    assert compute_index(Matrix.identity(QQ, 4)) == 0
    for n in range(1, 6):
        assert compute_index(_shift(QQ, n)) == n
    blk = _shift(QQ, 3).direct_sum(Matrix.diagonal(QQ, [2, 5]))
    assert compute_index(blk) == 3
    with pytest.raises(ShapeMismatch):
        compute_index(Matrix.zero(QQ, 2, 3))


def _naive_index_is_minimal(a, d, k, p=None) -> bool:
    # a**(k - 1) * (I - a*d) != 0, written as a**(k - 1) != a**k * d.
    return k == 0 or matpow(a, k - 1, p) != matmul(matpow(a, k, p), d, p)


@pytest.mark.parametrize(
    "a, d, k",
    [
        (
            _shift(QQ, 3).direct_sum(Matrix.diagonal(QQ, [2])),
            Matrix.zero(QQ, 3).direct_sum(Matrix.diagonal(QQ, ["1/2"])),
            3,
        ),
        (Matrix.zero(QQ, 3), Matrix.zero(QQ, 3), 1),
        (Matrix.identity(QQ, 2), Matrix.identity(QQ, 2), 0),
        (Matrix.diagonal(F5, [2, 0]), Matrix.diagonal(F5, [3, 0]), 1),
        (
            _shift(F5, 2).direct_sum(Matrix.diagonal(F5, [3])),
            Matrix.zero(F5, 2).direct_sum(Matrix.diagonal(F5, [2])),
            2,
        ),
    ],
)
def test_certify_requires_the_least_index(a, d, k):
    """The equations hold at every exponent from the index on; certify
    accepts the index alone."""
    p = a.field.characteristic or None
    na, nd = from_matrix(a), from_matrix(d)
    for j in range(k + 4):
        holds = drazin_axioms_hold(na, nd, j, p)
        assert holds == (j >= k)
        assert _naive_index_is_minimal(na, nd, j, p) == (j <= k)
        assert certify(a, d, j) == (j == k)
    assert not certify(a, d, k + 1)


def test_drazin_inverse_refuses_an_index_past_the_least(monkeypatch):
    """The construction's own certificate covers the index: handed one too
    large and the ladder it would need, it raises instead of returning it."""
    a = _shift(QQ, 2).direct_sum(Matrix.diagonal(QQ, [2]))
    assert drazin_inverse(a).index == 2

    def one_past(m, ladder):
        k = compute_index(m, ladder)
        ladder.append(ladder[-1] * m)
        return k + 1

    monkeypatch.setattr(drazin, "compute_index", one_past)
    with pytest.raises(InternalCertificationFailure):
        drazin_inverse(a)


def test_only_drazin_inverse_builds_drazin_data():
    # One construction: no other function of the library calls
    # ``DrazinData(...)``.
    src = Path(__file__).resolve().parent.parent / "src" / "drazinkit"
    builders = set()
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(), path.name).body:
            top = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    if name == "DrazinData":
                        builders.add((path.name, top))
    assert builders == {("drazin.py", "drazin_inverse")}


def _random_square(field, n: int, rng: Random) -> Matrix:
    kind = rng.randrange(4)
    if kind == 0:
        pool = [-2, -1, 0, 0, 1, 2] if field.characteristic == 0 else list(
            range(field.characteristic)
        )
        return Matrix.from_rows(
            field, [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        )
    if kind == 1:
        pool = [0, 0, 1, 2, -1] if field.characteristic == 0 else [0, 0, 1, 2]
        return Matrix.diagonal(field, [rng.choice(pool) for _ in range(n)])
    if kind == 2:
        k = rng.randint(1, n)
        m = _shift(field, k)
        if k < n:
            m = m.direct_sum(
                Matrix.diagonal(field, [rng.choice([1, 2, 3]) for _ in range(n - k)])
            )
        return m
    # strictly upper triangular plus diagonal: index visible in structure
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


@pytest.mark.parametrize("field,p", [(QQ, None), (F5, 5)])
def test_randomized_axioms_and_determinism(field, p):
    """Certified axioms, rank-plateau index, the same d from any inner inverse.

    Also cross-checks the defining equations with the naive Fraction/int
    oracle, so the verdict does not depend on the package's own kernels,
    and builds d again from a perturbed inner inverse that oracle computes.
    """
    rng = Random(60601 if p is None else 60602)
    perturb = Random(60603 if p is None else 60604)
    for _ in range(60):
        a = _random_square(field, rng.randint(1, 5), rng)
        top = drazin_inverse(a)
        assert drazin_inverse(a).d == top.d
        assert from_matrix(top.d) == drazin_from_inner_inverse(
            from_matrix(a), top.index, perturb, p
        )
        assert top.index == compute_index(a)
        assert certify(a, top.d, top.index)
        assert not certify(a, top.d, top.index + 1)
        assert drazin_axioms_hold(from_matrix(a), from_matrix(top.d), top.index, p)
        # spectral projector: idempotent, annihilates d
        assert top.pi * top.pi == top.pi
        assert (top.pi * top.d).is_zero()
        assert top.is_group == (top.index <= 1)


def test_double_drazin_property():
    # (a^D)^D == a^2 * a^D, a closed-form consequence of the axioms.
    rng = Random(911)
    for _ in range(25):
        a = _random_square(QQ, rng.randint(1, 4), rng)
        d = drazin_inverse(a).d
        assert drazin_inverse(d).d == a * a * d


def test_drazin_commutes_with_conjugation():
    rng = Random(314)
    from drazinkit import random_invertible

    for seed in range(10):
        a = _random_square(QQ, 4, rng)
        s = random_invertible(QQ, 4, seed)
        lhs = drazin_inverse(s * a * s.inverse()).d
        rhs = s * drazin_inverse(a).d * s.inverse()
        assert lhs == rhs


def test_non_square_rejected():
    with pytest.raises(ShapeMismatch) as exc:
        drazin_inverse(Matrix.zero(QQ, 2, 3))
    assert exc.value.detail == {"rows": 2, "cols": 3}


@pytest.mark.parametrize("field", [QQ, F5])
def test_index_ladder_holds_the_powers_built(field):
    blk = _shift(field, 3).direct_sum(Matrix.diagonal(field, [2, 3]))
    for a, k in ((Matrix.identity(field, 3), 0), (_shift(field, 2), 2), (blk, 3)):
        ladder = []
        assert compute_index(a, ladder) == k
        assert ladder == [a**e for e in range(1, k + 2)]
        # drazin_inverse builds a**(2l + 1) from the ladder's top two powers.
        data = drazin_inverse(a)
        p = field.characteristic or None
        assert drazin_axioms_hold(from_matrix(a), from_matrix(data.d), k, p)


@pytest.mark.parametrize(
    "a, work",
    [
        (Matrix.from_rows(QQ, [[2, 1, 0], [1, 1, 0], [0, 1, 3]]), (3, 1, 1)),
        (Matrix.diagonal(QQ, [2, 0, 1]), (8, 2, 1)),
        (_shift(QQ, 2).direct_sum(Matrix.diagonal(QQ, [2])), (10, 3, 1)),
    ],
    ids=["invertible", "index-1", "index-2"],
)
def test_drazin_inverse_work(monkeypatch, a, work):
    """A count gate that does not depend on machine speed: the matrix
    products, ranks and eliminations of one Drazin inverse, certificate
    included.  An invertible input takes its inverse from one elimination
    of itself; its 3 products are the certificate's ``a*d``, ``d*a`` and
    ``d*(a*d)``."""
    counts = dict.fromkeys(("__mul__", "rank", "rref"), 0)

    def counting(name):
        method = getattr(Matrix, name)

        def wrapper(self, *args):
            if name != "__mul__" or isinstance(args[0], Matrix):
                counts[name] += 1
            return method(self, *args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(Matrix, name, counting(name))
    data = drazin_inverse(a)
    monkeypatch.undo()
    assert tuple(counts.values()) == work
    assert data.d * a * data.d == data.d


def test_drazin_inverse_of_an_invertible_matrix_is_its_inverse():
    for field in (QQ, F5):
        a = Matrix.from_rows(field, [[2, 1, 0], [1, 1, 0], [0, 1, 3]])
        data = drazin_inverse(a)
        assert data.index == 0 and data.d == a.inverse() and data.pi.is_zero()
