"""Drazin index, Drazin inverse and spectral projector.

The Drazin inverse of a square matrix ``a`` is the unique ``d`` with::

    d * a * d == d        a * d == d * a        a**k == a**(k + 1) * d

where ``k`` is the Drazin index of ``a``: the smallest ``k >= 0`` with
``rank(a**k) == rank(a**(k + 1))`` (``a**0`` is the identity, so ``k == 0``
exactly when ``a`` is invertible, and ``d`` is then the ordinary inverse).

Construction (Campbell & Meyer, ch. 7): with ``l = k`` and ``G`` any inner
inverse of ``a**(2l + 1)``, the product ``a**l * G * a**l`` is the Drazin
inverse.  At ``k == 0`` that is ``G`` itself, an inner inverse of the
invertible ``a``, hence its inverse, from one elimination and no product.
The result does not depend on which inner inverse was used, and every
computed inverse and its index are certified (see :func:`certify`) before
it is returned; a failed certificate raises
:class:`~drazinkit.errors.InternalCertificationFailure` since it can only
mean a bug, never bad input.

A :class:`Workspace` lets a run that asks for the same inverses and powers
again and again (the identity catalog over a corpus) compute each once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Dict, List, Optional, Tuple

from .errors import InternalCertificationFailure, ShapeMismatch
from .matrices import Matrix

__all__ = [
    "DrazinData",
    "Workspace",
    "compute_index",
    "certify",
    "drazin_inverse",
]


@dataclass(frozen=True)
class DrazinData:
    """A certified Drazin inverse bundle.

    ``pi`` is the spectral projector ``I - a * d`` (idempotent, commutes
    with ``a``, and ``a * pi`` is nilpotent of degree ``max(index, 1)``).
    ``is_group`` records whether ``d`` is a group inverse, i.e. ``index <= 1``.
    """

    d: Matrix
    index: int
    pi: Matrix
    is_group: bool

    def to_json_obj(self) -> dict:
        return {
            "d": self.d.to_json_obj(),
            "index": self.index,
            "pi": self.pi.to_json_obj(),
            "is_group": self.is_group,
        }


def _require_square(a: Matrix, what: str) -> None:
    if not a.is_square():
        raise ShapeMismatch(
            f"{what} requires a square matrix, got {a.rows}x{a.cols}",
            {"rows": a.rows, "cols": a.cols},
        )


def compute_index(a: Matrix, ladder: Optional[List[Matrix]] = None) -> int:
    """Drazin index: where the rank sequence ``rank(a**k)`` plateaus.

    The sequence ``n = rank(I) >= rank(a) >= rank(a**2) >= ...`` strictly
    decreases until it stabilizes, so the loop terminates within ``n``
    steps.  The zero matrix has index 1; the identity (any invertible
    matrix) has index 0.

    If ``ladder`` is a list, the powers ``a, a**2, ..., a**(k + 1)`` built
    on the way are appended to it, so a caller that needs them does not
    power again.
    """
    _require_square(a, "the Drazin index")
    n = a.rows
    power = a
    r_prev = n
    for k in range(n + 1):
        if ladder is not None:
            ladder.append(power)
        r_next = power.rank()
        if r_next == r_prev:
            return k
        r_prev = r_next
        power = power * a
    raise InternalCertificationFailure(
        "rank sequence failed to stabilize; this cannot happen"
    )


def certify(a: Matrix, candidate: Matrix, index: int) -> bool:
    """Check the three Drazin equations for ``candidate`` at ``index``, and
    that ``index`` is the least exponent at which they hold.

    The equations hold at every exponent from the Drazin index on, so they
    alone do not certify the index.  With ``pi = I - a*candidate``,
    ``a**(index - 1) * pi`` (that is ``a**(index - 1) - a**index *
    candidate``) is nonzero exactly when ``index`` is minimal.

    Pure predicate, no exceptions for a wrong candidate: returns False.
    """
    _require_square(a, "certification")
    if (candidate.rows, candidate.cols) != (a.rows, a.cols):
        raise ShapeMismatch(
            "candidate shape differs from the source matrix",
            {"candidate": [candidate.rows, candidate.cols], "matrix": [a.rows, a.cols]},
        )
    if candidate.field != a.field or index < 0:
        return False
    return _certified(a, candidate, a * candidate, index, cache(a.__pow__))


def _certified(a: Matrix, d: Matrix, ad: Matrix, k: int, power) -> bool:
    # The three Drazin equations at exponent ``k`` and, for k >= 1,
    # ``a**(k - 1) != a**k * d``, so that no smaller exponent passes; given
    # ``ad = a*d`` and ``power(j) = a**j``.
    def times_d(j):  # ``a**j * d``, which is ``ad`` at j = 1
        return ad if j == 1 else power(j) * d

    if not (ad == d * a and d * ad == d and power(k) == times_d(k + 1)):
        return False
    return k == 0 or power(k - 1) != times_d(k)


def drazin_inverse(a: Matrix) -> DrazinData:
    """Compute and certify the Drazin inverse of ``a``.

    The intermediate inner inverse is :meth:`Matrix.inner_inverse`'s, from
    the one pivot rule; any other inner inverse gives the same result.
    """
    _require_square(a, "the Drazin inverse")
    # ``ladder`` holds a**1 .. a**(index + 1) from compute_index, so the
    # certificate powers nothing again, and its ``a*d`` also gives ``pi``.
    # At index 0, a**index is I and the sandwich is the inner inverse of a.
    ladder: List[Matrix] = []
    index = compute_index(a, ladder)
    if index == 0:
        d = a.inner_inverse()
    else:
        al = ladder[index - 1]
        d = al * (al * ladder[index]).inner_inverse() * al
    ad = a * d
    eye = Matrix.identity(a.field, a.rows)
    if not _certified(a, d, ad, index, [eye, *ladder].__getitem__):
        raise InternalCertificationFailure(
            "constructed Drazin inverse failed its own certificate"
        )
    return DrazinData(d=d, index=index, pi=eye - ad, is_group=index <= 1)


class Workspace:
    """Certified Drazin data, products and powers of one run.

    A run that evaluates the identity catalog over a corpus asks for the
    same few Drazin inverses, powers and products many times; a workspace
    computes each once, keyed by matrix value.  Every inverse comes from
    :func:`drazin_inverse`, so it is certified.  :meth:`prod` forms a
    product of matrices left to right and looks each step up by its
    ``(left, right)`` operand values; exact arithmetic makes the stored
    product equal to a fresh one.

    Every matrix a workspace stores is interned (:meth:`intern`): it keeps
    the first object of each value and hands that one out, so its lookups,
    and the suites' comparisons of what it hands out, mostly compare by
    identity.  A workspace keeps every matrix it has seen alive, so it
    should live for one run (one CLI invocation) and no longer.
    ``drazin_computed`` and ``drazin_reused`` count the :meth:`drazin` calls that computed an
    inverse and those that found one; ``products_computed`` and
    ``products_reused`` count the steps of :meth:`prod` (the squarings of
    :meth:`power` included) likewise.
    """

    def __init__(self):
        self.drazin_computed = 0
        self.drazin_reused = 0
        self.products_computed = 0
        self.products_reused = 0
        self._drazin: Dict[Matrix, DrazinData] = {}
        self._powers: Dict[Tuple[Matrix, int], Matrix] = {}
        self._products: Dict[Tuple[Matrix, Matrix], Matrix] = {}
        self._interned: Dict[Matrix, Matrix] = {}

    def intern(self, m: Matrix) -> Matrix:
        """The first matrix of ``m``'s value this workspace was given."""
        return self._interned.setdefault(m, m)

    def drazin(self, a: Matrix) -> DrazinData:
        """The certified Drazin data of ``a``."""
        data = self._drazin.get(a)
        if data is None:
            data = drazin_inverse(a)
            intern = self.intern
            data = self._drazin[intern(a)] = replace(data, d=intern(data.d), pi=intern(data.pi))
            self.drazin_computed += 1
        else:
            self.drazin_reused += 1
        return data

    def prod(self, *factors: Matrix) -> Matrix:
        """``factors[0] * factors[1] * ...``, each step formed once per
        ``(left, right)`` value.

        A step found in the workspace returns the stored matrix, so a
        later step keyed by it compares by identity.
        """
        products = self._products
        p = factors[0]
        for f in factors[1:]:
            key = (p, f)
            q = products.get(key)
            if q is None:
                q = products[key] = self.intern(p * f)
                self.products_computed += 1
            else:
                self.products_reused += 1
            p = q
        return p

    def power(self, a: Matrix, e: int) -> Matrix:
        """``a**e``, computed once per (matrix, exponent).

        ``a**e`` is the square of ``a**(e // 2)``, times ``a`` when ``e`` is
        odd, so the powers on the way are kept too and the squarings go
        through :meth:`prod`.
        """
        key = (a, e)
        p = self._powers.get(key)
        if p is None:
            if e < 2:
                p = self.intern(a**e)
            else:
                h = self.power(a, e >> 1)
                p = self.prod(h, h, a) if e & 1 else self.prod(h, h)
            self._powers[key] = p
        return p
