"""drazinkit: exact Drazin inverses and additive-formula verification.

Everything runs over exact scalar domains (the rationals, or a prime field
F_p), so every comparison in the library is exact equality; there are no
tolerances anywhere.  The core surface:

* :func:`drazin_inverse` / :func:`group_inverse` / :func:`certify` - the
  inverse itself, with post-hoc certification of the defining equations.
* :class:`Workspace` - certified Drazin data, powers and passed relation
  checks computed once per matrix value, shared by the suites and
  formulas of one run through their ``ws`` keyword.
* ``lemma*_suite`` functions - itemized identity checks for pairs
  satisfying a commutation relation (``a*b == lam*b*a``) or one of the two
  cube relations (``a**3*b == b*a, b**3*a == a*b`` and its swapped form).
* :func:`evaluate_thm23` / :func:`evaluate_thm36` - the closed-form
  difference and sum formulas, each compared entrywise against a directly
  computed Drazin inverse.
* :mod:`drazinkit.pairs` - deterministic pair generators and the
  exhaustive finite-field search.
"""

from .errors import (
    BudgetExceeded,
    CharacteristicTwo,
    DivisionByZero,
    DrazinKitError,
    ExponentOverflow,
    FieldMismatch,
    IncompatibleFamily,
    IndexTooLarge,
    InternalCertificationFailure,
    NotNilpotentWithinBound,
    OutputTooLarge,
    ParseError,
    PreconditionViolated,
    ShapeMismatch,
    SingularMatrix,
    ZeroLambda,
)
from .fields import Field, FieldScalar, PrimeField, QQ, RationalField, is_prime
from .matrices import Matrix, PivotOrder, RrefResult, nilpotency_degree
from .drazin import (
    DrazinData,
    Workspace,
    certify,
    compute_index,
    drazin_inverse,
    group_inverse,
)
from .relations import (
    CrossCube,
    IdentityItem,
    IdentityReport,
    LambdaCommute,
    RelationKind,
    SwappedCube,
    check_relation,
    cube_exponent_cap,
    det_consistency_diagnostic,
    first_violation,
    lambda_exponent_cap,
    lemma21_suite,
    lemma22_suite,
    lemma31_suite,
    lemma32_suite,
    lemma33_suite,
    lemma34_suite,
    lemma35_suite,
    relation_from_json_fields,
    relation_to_json_fields,
    require_relation,
)
from .theorems import (
    Theorem23Report,
    Theorem36Report,
    evaluate_thm23,
    evaluate_thm36,
    invert_one_minus_nilpotent,
)
from .pairs import (
    DEFAULT_SEARCH_BUDGET,
    Conjugated,
    CorpusPair,
    DiagTripotents,
    DirectSum,
    ExhaustiveHit,
    PairFamily,
    ScalarTimesIdentity,
    SearchSpec,
    TrivialZeroB,
    WeightedShift,
    cached_hits,
    corpus_from_json_obj,
    corpus_to_json_obj,
    default_cube_corpus,
    default_lambda_corpus,
    default_lambda_values,
    describe_family,
    exhaustive_hits_corpus,
    exhaustive_search,
    gen_cube_pair,
    gen_lambda_pair,
    gen_swapped_pair,
    random_invertible,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DrazinKitError",
    "ParseError",
    "FieldMismatch",
    "ShapeMismatch",
    "DivisionByZero",
    "SingularMatrix",
    "IndexTooLarge",
    "PreconditionViolated",
    "ZeroLambda",
    "ExponentOverflow",
    "OutputTooLarge",
    "NotNilpotentWithinBound",
    "CharacteristicTwo",
    "BudgetExceeded",
    "IncompatibleFamily",
    "InternalCertificationFailure",
    # fields
    "Field",
    "RationalField",
    "PrimeField",
    "FieldScalar",
    "QQ",
    "is_prime",
    # matrices
    "Matrix",
    "PivotOrder",
    "RrefResult",
    "nilpotency_degree",
    # drazin
    "DrazinData",
    "Workspace",
    "compute_index",
    "certify",
    "drazin_inverse",
    "group_inverse",
    # relations
    "LambdaCommute",
    "CrossCube",
    "SwappedCube",
    "RelationKind",
    "check_relation",
    "first_violation",
    "relation_from_json_fields",
    "relation_to_json_fields",
    "require_relation",
    "det_consistency_diagnostic",
    "IdentityItem",
    "IdentityReport",
    "cube_exponent_cap",
    "lambda_exponent_cap",
    "lemma21_suite",
    "lemma22_suite",
    "lemma31_suite",
    "lemma32_suite",
    "lemma33_suite",
    "lemma34_suite",
    "lemma35_suite",
    # theorems
    "Theorem23Report",
    "Theorem36Report",
    "evaluate_thm23",
    "evaluate_thm36",
    "invert_one_minus_nilpotent",
    # pairs
    "WeightedShift",
    "DiagTripotents",
    "ScalarTimesIdentity",
    "DirectSum",
    "Conjugated",
    "TrivialZeroB",
    "ExhaustiveHit",
    "PairFamily",
    "SearchSpec",
    "CorpusPair",
    "describe_family",
    "gen_lambda_pair",
    "gen_cube_pair",
    "gen_swapped_pair",
    "random_invertible",
    "exhaustive_search",
    "cached_hits",
    "DEFAULT_SEARCH_BUDGET",
    "default_lambda_values",
    "default_lambda_corpus",
    "default_cube_corpus",
    "exhaustive_hits_corpus",
    "corpus_to_json_obj",
    "corpus_from_json_obj",
]
