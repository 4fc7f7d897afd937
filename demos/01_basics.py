"""Drazin inverse basics: axioms, index, projector, certification.

Run:  python3 demos/01_basics.py
"""

from drazinkit import Matrix, PrimeField, QQ, certify, drazin_inverse


def show(label, m):
    print(f"{label} =")
    for i in range(m.rows):
        print("   ", [str(m.entry(i, j)) for j in range(m.cols)])


def main():
    # A matrix with an invertible core and a nilpotent part: diag block 2, 3
    # glued to a size-2 shift.
    a = Matrix.diagonal(QQ, [2, 3]).direct_sum(
        Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    )
    show("a", a)

    data = drazin_inverse(a)
    show("a^D", data.d)
    print("index:", data.index)  # 2, from the shift block
    print("group-invertible:", data.is_group)

    # The three axioms, stated directly:
    d, k = data.d, data.index
    print("d*a*d == d:", d * a * d == d)
    print("a*d == d*a:", a * d == d * a)
    print("a^k == a^(k+1)*d:", a**k == a ** (k + 1) * d)

    # The spectral projector splits the space: pi annihilates the core and
    # is the identity on the nilpotent directions.
    show("a^pi", data.pi)
    print("pi idempotent:", data.pi * data.pi == data.pi)
    print("pi*d == 0:", (data.pi * d).is_zero())

    # certify re-checks any candidate against the axioms.
    wrong = d + Matrix.identity(QQ, 4)
    print("certify(correct):", certify(a, d, k))
    print("certify(tampered):", certify(a, wrong, k))

    # d is a^k * G * a^k for G an inner inverse of m = a^(2k+1), and any
    # inner inverse gives the same d.  G + (I - G*m)*Y + Z*(I - m*G) is
    # another inner inverse of m for every Y and Z.
    m = a ** (2 * k + 1)
    g = m.inner_inverse()
    eye = Matrix.identity(QQ, 4)
    y = Matrix.from_rows(QQ, [[1, 2, 0, -1], [0, 1, 3, 0], [2, 0, 0, 1], [1, 1, 1, 1]])
    z = y.transpose()
    g2 = g + (eye - g * m) * y + z * (eye - m * g)
    print("G2 inner inverse of a^(2k+1):", m * g2 * m == m, "| G2 != G:", g2 != g)
    print("a^k * G2 * a^k == d:", a**k * g2 * a**k == d)

    # Everything works identically over a prime field.
    f5 = PrimeField(5)
    m = Matrix.from_rows(f5, [[2, 1, 0], [0, 0, 1], [0, 0, 0]])
    data5 = drazin_inverse(m)
    show("over F_5: m^D", data5.d)
    print("index over F_5:", data5.index)


if __name__ == "__main__":
    main()
