"""Drazin inverses over Q checked by reduction mod primes.

Let ``d`` be the Drazin inverse of the Q matrix ``a`` at index ``k``, and
let ``p`` divide no denominator of ``a`` or ``d``.  The three Drazin
equations at exponent ``k`` are polynomial identities in the entries, so
they hold mod ``p``, and the matrix that meets them is unique: ``d mod p``
is the Drazin inverse of ``a mod p``, whose index is at most ``k``.  This
oracle shares no method with ``tests/_naive.py``.  The files under
``perfbench/`` are only read.
"""

import sys
from pathlib import Path

import pytest

from drazinkit import QQ, Matrix, PrimeField, drazin_inverse, random_invertible

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


def reduce_mod(m: Matrix, field: PrimeField):
    """``m`` mod ``p`` over ``field``, or None when ``p`` divides a denominator."""
    p = field.characteristic
    rows = []
    for row in m.to_rows():
        rows.append([])
        for x in row:
            num, den = x.value.numerator, x.value.denominator
            if den % p == 0:
                return None
            rows[-1].append(num * pow(den, -1, p) % p)
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
