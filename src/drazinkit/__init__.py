"""drazinkit: exact Drazin inverses and additive-formula verification.

Everything runs over exact scalar domains (the rationals, or a prime field
F_p), so every comparison in the library is exact equality; there are no
tolerances anywhere.  The core surface:

* :func:`drazin_inverse` / :func:`certify` - the inverse itself, with
  post-hoc certification of the defining equations; ``is_group`` on the
  result says whether it is the group inverse (index <= 1).
* :class:`Workspace` - certified Drazin data, powers and products
  computed once per matrix value, shared by the suites and formulas of
  one run through their ``ws`` keyword.
* ``lemma*_suite`` functions - itemized identity checks for pairs
  satisfying a commutation relation (``a*b == lam*b*a``) or one of the two
  cube relations (``a**3*b == b*a, b**3*a == a*b`` and its swapped form).
* :func:`evaluate_thm23` / :func:`evaluate_thm36` - the closed-form
  difference and sum formulas, each compared entrywise against a directly
  computed Drazin inverse.
* :mod:`drazinkit.pairs` - deterministic pair generators and the
  exhaustive finite-field search.
"""

from .errors import *
from .fields import *
from .matrices import *
from .drazin import *
from .relations import *
from .theorems import *
from .pairs import *
from . import errors, fields, matrices, drazin, relations, theorems, pairs

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *fields.__all__,
    *matrices.__all__,
    *drazin.__all__,
    *relations.__all__,
    *theorems.__all__,
    *pairs.__all__,
]
