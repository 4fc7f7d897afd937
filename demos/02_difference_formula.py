"""The difference formula for lambda-commuting pairs, piece by piece.

For a*b == lam*(b*a) with lam nonzero, (a - b)^D has a closed form built
from a^D, b^D, one small Drazin inverse, and two finite geometric series.
This walks the worked 2x2 instance and then a larger conjugated pair.

Run:  python3 demos/02_difference_formula.py
"""

from drazinkit import (
    Conjugated,
    Matrix,
    QQ,
    WeightedShift,
    check_relation,
    LambdaCommute,
    drazin_inverse,
    evaluate_thm23,
    gen_pair,
)


def show(label, m):
    print(f"{label} =")
    for i in range(m.rows):
        print("   ", [str(m.entry(i, j)) for j in range(m.cols)])


def main():
    lam = QQ.scalar(2)
    a = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    b = Matrix.diagonal(QQ, [1, 2])
    print("a*b == 2*(b*a):", check_relation(a, b, LambdaCommute(lam)))

    rep = evaluate_thm23(a, b, lam)

    # a is nilpotent (a^D = 0) and b invertible (b^pi = 0), so the cross
    # term w and the first two formula summands vanish; what is left is
    # -(I - b^D*a*a^pi)^-1 * b^D, a finite geometric series.
    show("w (core cross term)", rep.w)
    show("Neumann factor for the a-side", rep.neumann_a)
    show("formula value x", rep.x)
    show("oracle (a-b)^D", rep.direct.d)
    print("match:", rep.match)
    print("residual nilpotency degree:", rep.residual_nilpotency_degree)

    # A bigger pair: a weighted shift conjugated by a random invertible
    # matrix. The hypothesis and the formula survive conjugation.
    a2, b2 = gen_pair(Conjugated(WeightedShift(4), 17), LambdaCommute(lam), QQ, 5)
    rep2 = evaluate_thm23(a2, b2, lam)
    print("\n4x4 conjugated weighted shift:")
    print("  ind(a) =", drazin_inverse(a2).index, " ind(b) =", drazin_inverse(b2).index)
    print("  match:", rep2.match)
    print("  residual degree:", rep2.residual_nilpotency_degree)

    # The formula is certified, not trusted: tamper with one entry of x
    # and the entrywise comparison against the oracle breaks.
    tampered = rep2.x + Matrix.identity(QQ, 4)
    print("  tampered value still equals oracle:", tampered == rep2.direct.d)


if __name__ == "__main__":
    main()
