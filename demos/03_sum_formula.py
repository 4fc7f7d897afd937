"""The sum formula for cross-cube pairs, including a noncommuting one.

For a**3*b == b*a and b**3*a == a*b over a field where 2 is invertible,
(a + b)^D is one explicit expression in a, b, a^D, b^D. Commuting
tripotents satisfy the hypothesis trivially; the interesting pairs are
the noncommuting ones the exhaustive search digs up over F_3.

Run:  python3 demos/03_sum_formula.py
"""

from drazinkit import (
    CharacteristicTwo,
    CrossCube,
    Matrix,
    PrimeField,
    QQ,
    check_relation,
    evaluate_thm36,
    exhaustive_hits_corpus,
)


def show(label, m):
    print(f"{label} =")
    for i in range(m.rows):
        print("   ", [str(m.entry(i, j)) for j in range(m.cols)])


def main():
    # Worked instance: commuting diagonal tripotents.
    a = Matrix.diagonal(QQ, [1, -1, 0])
    b = Matrix.diagonal(QQ, [-1, 1, 1])
    rep = evaluate_thm36(a, b)
    show("(a+b)^D", rep.direct.d)
    print("match:", rep.match)
    print("scaled spectral projectors orthogonal:", rep.projectors_orthogonal)

    # The three summands of the formula.
    show("m1 (1/8 core term)", rep.m1)
    show("m2 (a^D off b's core)", rep.m2)
    show("m3 (b^D off a's core)", rep.m3)

    # A genuinely noncommuting pair over F_3, found by exhaustive search:
    # a**2 == 2*I and b**2 == 2*I force a**3 == -a, b**3 == -b, and the
    # cube relation becomes anticommutation.
    f3 = PrimeField(3)
    a3 = Matrix.from_rows(f3, [[0, 1], [2, 0]])
    b3 = Matrix.from_rows(f3, [[1, 1], [1, 2]])
    print("\nnoncommuting F_3 pair:")
    print("  a*b == b*a:", a3 * b3 == b3 * a3)
    print("  cross-cube holds:", check_relation(a3, b3, CrossCube()))
    rep3 = evaluate_thm36(a3, b3)
    show("  (a+b)^D over F_3", rep3.direct.d)
    print("  match:", rep3.match)

    # All 344 nontrivial hits at p=3, n<=2 satisfy the formula.
    corpus = exhaustive_hits_corpus(CrossCube())
    ok = sum(1 for cp in corpus if evaluate_thm36(cp.a, cp.b).match)
    print(f"\nexhaustive hits verified: {ok}/{len(corpus)}")

    # The 1/8 coefficient makes characteristic 2 impossible; the library
    # refuses rather than divides by zero.
    z = Matrix.zero(PrimeField(2), 2)
    try:
        evaluate_thm36(z, z)
    except CharacteristicTwo as exc:
        print("F_2 rejected:", exc)


if __name__ == "__main__":
    main()
