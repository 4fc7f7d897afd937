"""Drazin inverses over Q checked by reduction mod primes.

Let ``d`` be the Drazin inverse of the Q matrix ``a`` at index ``k``, and
let ``p`` divide no denominator of ``a`` or ``d``.  The three Drazin
equations at exponent ``k`` are polynomial identities in the entries, so
they hold mod ``p``, and the matrix that meets them is unique: ``d mod p``
is the Drazin inverse of ``a mod p``, whose index is at most ``k``.  This
oracle shares no method with ``tests/_naive.py``.  The files under
``perfbench/`` are only read.

The same argument makes a second oracle for the two additive formulas:
their hypotheses are polynomial identities, so a Q pair that meets one
still meets it mod ``p``, and when ``p`` divides no denominator of the
pair, of lambda or of the Q value of ``(a - b)^D`` or ``(a + b)^D`` (and
lambda stays nonzero), the formula's value over F_p is the Q value mod
``p``.
"""

import sys
from pathlib import Path

import pytest

from drazinkit import (
    QQ,
    CrossCube,
    Matrix,
    PrimeField,
    default_cube_corpus,
    default_lambda_corpus,
    drazin_inverse,
    evaluate_thm23,
    evaluate_thm36,
    gen_pair,
    random_invertible,
)
from drazinkit.pairs import parse_family

from test_index_coverage import INDEX_3_FAMILIES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PRIMES = (3, 5, 7, 2**31 - 1)


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def _residue(x, p: int):
    """The Q scalar ``x`` mod ``p``, or None when ``p`` divides its denominator."""
    num, den = x.value.numerator, x.value.denominator
    return None if den % p == 0 else num * pow(den, -1, p) % p


def reduce_mod(m: Matrix, field: PrimeField):
    """``m`` mod ``p`` over ``field``, or None when ``p`` divides a denominator."""
    p = field.characteristic
    rows = [[_residue(x, p) for x in row] for row in m.to_rows()]
    if any(None in row for row in rows):
        return None
    return Matrix.from_rows(field, rows)


def _reduction_counts(matrices):
    """For each prime, ``(agree, skipped, lower)``: the matrices whose
    reduced inverse is the reduced Q inverse, those where ``p`` divides a
    denominator, and those of the first whose index drops mod ``p``."""
    data = [drazin_inverse(a) for a in matrices]
    counts = {}
    for p in PRIMES:
        field = PrimeField(p)
        agree = skipped = lower = 0
        for a, q in zip(matrices, data):
            a_p, d_p = reduce_mod(a, field), reduce_mod(q.d, field)
            if a_p is None or d_p is None:
                skipped += 1
                continue
            got = drazin_inverse(a_p)
            assert got.d == d_p, (p, a.to_json_obj())
            assert got.index <= q.index, (p, a.to_json_obj())
            agree += 1
            lower += got.index < q.index
        counts[p] = (agree, skipped, lower)
    return counts


def test_pool_inverses_reduce_to_their_prime_field_inverses(workloads):
    pool = [
        workloads.pool_matrix(n, conjugated, k)
        for n in workloads.SIZES
        for conjugated in (False, True)
        for k in range(8)
    ]
    assert len(pool) == 128
    assert _reduction_counts(pool) == {
        3: (100, 28, 32),
        5: (115, 13, 0),
        7: (122, 6, 0),
        2**31 - 1: (128, 0, 0),
    }


def test_high_index_inverses_reduce_to_their_prime_field_inverses():
    # Conjugated N_k + diag(2, -3), of index k: the inverse of the
    # diagonal part has denominators 2 and 3, so p = 3 gives nothing.
    matrices = []
    for k in (3, 4):
        shift = Matrix.from_rows(QQ, [[int(j == i + 1) for j in range(k)] for i in range(k)])
        core = shift.direct_sum(Matrix.diagonal(QQ, [2, -3]))
        s = random_invertible(QQ, k + 2, k)
        matrices.append(s * core * s.inverse())
    assert [drazin_inverse(a).index for a in matrices] == [3, 4]
    assert _reduction_counts(matrices) == {
        3: (0, 2, 0),
        5: (2, 0, 0),
        7: (2, 0, 0),
        2**31 - 1: (2, 0, 0),
    }


def _formula_counts(cases):
    """For each prime, ``(agree, skipped)`` over ``cases`` of ``(a, b, lam,
    value)``: ``lam`` None for the sum formula, ``value`` the Q value.  A
    case is skipped when ``p`` divides a denominator of ``a``, ``b``,
    ``lam`` or ``value``, or when ``lam`` is 0 mod ``p``; every other one
    must give the reduced value over F_p."""
    counts = {}
    for p in PRIMES:
        field = PrimeField(p)
        agree = skipped = 0
        for a, b, lam, value in cases:
            a_p, b_p, v_p = (reduce_mod(m, field) for m in (a, b, value))
            lam_p = None if lam is None else _residue(lam, p)
            if None in (a_p, b_p, v_p) or (lam is not None and not lam_p):
                skipped += 1
                continue
            if lam is None:
                got = evaluate_thm36(a_p, b_p).m
            else:
                got = evaluate_thm23(a_p, b_p, field.scalar(lam_p)).x
            assert got == v_p, (p, a.to_json_obj(), b.to_json_obj())
            agree += 1
        counts[p] = (agree, skipped)
    return counts


def test_difference_formula_reduces_to_its_prime_field_value():
    cases = [
        (cp.a, cp.b, cp.relation.lam, evaluate_thm23(cp.a, cp.b, cp.relation.lam).x)
        for cp in default_lambda_corpus(QQ)
    ]
    assert len(cases) == 106
    assert _formula_counts(cases) == {
        3: (70, 36),
        5: (106, 0),
        7: (106, 0),
        2**31 - 1: (106, 0),
    }


def test_sum_formula_reduces_to_its_prime_field_value():
    pairs = [(cp.a, cp.b) for cp in default_cube_corpus(QQ)]
    assert len(pairs) == 21
    # The index-3 pairs of the cube rows' coverage test, both ways round.
    for descriptor in INDEX_3_FAMILIES:
        for seed in (2, 5):
            a, b = gen_pair(parse_family(descriptor), CrossCube(), QQ, seed)
            pairs += [(a, b), (b, a)]
    cases = [(a, b, None, evaluate_thm36(a, b).m) for a, b in pairs]
    assert _formula_counts(cases[:21]) == {
        3: (20, 1),
        5: (21, 0),
        7: (21, 0),
        2**31 - 1: (21, 0),
    }
    assert _formula_counts(cases[21:]) == {
        3: (8, 0),
        5: (6, 2),
        7: (8, 0),
        2**31 - 1: (8, 0),
    }
