"""Exhaustive search over small prime fields: complete and deterministic.

Finds every pair of n x n matrices over F_p (optionally with entries
restricted to a subset) satisfying a relation, and returns them in a
canonical order.  For each a, only the b that solve the relation's
equation that is linear in b are visited: one elimination mod p fixes
the pivot entries of b from the free ones.  With require_nontrivial,
a = 0 is skipped (0*b == 0), and the a*b != 0 filter stops at the first
nonzero entry.  Conjugating a and b by a monomial matrix whose entries
keep the domain, and scaling a by a unit (any under lambda-commute, +-1
under the cube relations), maps hits to hits, so one kernel is listed per
orbit of a and conjugated for the rest of the orbit.  Under a cube
relation, which is symmetric in a and b, that kernel is listed from a up.

Run:  python3 demos/04_search.py
"""

import time

from drazinkit import (
    CrossCube,
    LambdaCommute,
    PrimeField,
    SearchSpec,
    exhaustive_search,
)


def flat(m):
    return [[str(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def main():
    # 1x1 warmup over F_3: a**3 == a holds for every residue, so the cross
    # relation is automatic and only nontriviality (a*b != 0) filters.
    spec1 = SearchSpec(3, 1, CrossCube(), require_nontrivial=True)
    hits1 = exhaustive_search(spec1)
    print("p=3, n=1 nontrivial hits:", [
        (str(a.entry(0, 0)), str(b.entry(0, 0))) for a, b in hits1
    ])

    # The full 2x2 space over F_3: 3^8 = 6561 candidate pairs per side.
    spec2 = SearchSpec(3, 2, CrossCube(), require_nontrivial=True)
    t0 = time.perf_counter()
    hits2 = exhaustive_search(spec2)
    t1 = time.perf_counter()
    print(f"p=3, n=2: {len(hits2)} nontrivial hits ({t1 - t0:.2f}s)")

    noncommuting = [(a, b) for a, b in hits2 if a * b != b * a]
    print("of which genuinely noncommuting:", len(noncommuting))
    a, b = noncommuting[0]
    print("first noncommuting hit: a =", flat(a), " b =", flat(b))

    # Entry bounds shrink the space: 2x2 over F_5 with entries in {0, 1}.
    spec_bounded = SearchSpec(
        5, 2, CrossCube(), entry_bound=(0, 1), require_nontrivial=True
    )
    bounded = exhaustive_search(spec_bounded)
    print(f"p=5, n=2 with entries in {{0,1}}: {len(bounded)} nontrivial hits")

    # Lambda relations search too: a*b == 2*(b*a) over F_5, 2x2.
    f5 = PrimeField(5)
    spec_lam = SearchSpec(
        5, 2, LambdaCommute(f5.scalar(2)), entry_bound=(0, 1, 2),
        require_nontrivial=True,
    )
    lam_hits = exhaustive_search(spec_lam)
    print(f"p=5, n=2, a*b == 2*b*a, entries in {{0,1,2}}: {len(lam_hits)} hits")

    # Budgets protect against runaway spaces: 3x3 over F_5 is 5^18 pairs.
    try:
        exhaustive_search(SearchSpec(5, 3, CrossCube()))
    except Exception as exc:
        print("oversized space refused:", exc)


if __name__ == "__main__":
    main()
