"""The package re-exports each submodule's public names, once."""

import drazinkit
from drazinkit import drazin, errors, fields, matrices, pairs, relations, theorems

SUBMODULES = (errors, fields, matrices, drazin, relations, theorems, pairs)

# The public surface, pinned: adding or dropping a name is a change to it.
PUBLIC_NAMES = {
    "__version__",
    # errors
    "DrazinKitError", "ParseError", "FieldMismatch", "ShapeMismatch",
    "DivisionByZero", "SingularMatrix", "PreconditionViolated",
    "ZeroLambda", "ExponentOverflow", "OutputTooLarge", "NotNilpotentWithinBound",
    "CharacteristicTwo", "BudgetExceeded", "IncompatibleFamily",
    "InternalCertificationFailure",
    # fields
    "Field", "RationalField", "PrimeField", "FieldScalar", "QQ", "is_prime",
    "field_from_json_obj",
    # matrices
    "Matrix", "PivotOrder", "RrefResult", "nilpotency_degree",
    # drazin
    "DrazinData", "Workspace", "compute_index", "certify", "drazin_inverse",
    # relations
    "LambdaCommute", "CrossCube", "SwappedCube", "RelationKind", "IdentityItem",
    "IdentityReport", "check_relation", "first_violation", "require_relation",
    "relation_to_json_fields", "relation_from_json_fields",
    "det_consistency_diagnostic", "cube_exponent_cap", "lambda_exponent_cap",
    "lemma21_suite", "lemma22_suite", "lemma31_suite", "lemma32_suite",
    "lemma33_suite", "lemma34_suite", "lemma35_suite",
    # theorems
    "Theorem23Report", "Theorem36Report", "invert_one_minus_nilpotent",
    "evaluate_thm23", "evaluate_thm36",
    # pairs
    "WeightedShift", "DiagTripotents", "ScalarTimesIdentity", "DirectSum",
    "Conjugated", "TrivialZeroB", "ExhaustiveHit", "PairFamily", "SearchSpec",
    "CorpusPair", "describe_family", "gen_pair", "random_invertible",
    "exhaustive_search", "cached_hits",
    "default_lambda_values", "default_lambda_corpus", "default_cube_corpus",
    "exhaustive_hits_corpus", "corpus_to_json_obj", "corpus_from_json_obj",
    "pair_from_json_obj", "DEFAULT_SEARCH_BUDGET",
}


def test_public_names_are_pinned_and_unique():
    assert set(drazinkit.__all__) == PUBLIC_NAMES
    assert len(drazinkit.__all__) == len(PUBLIC_NAMES) == 81


def test_each_name_is_its_submodule_object():
    owners = {}
    for mod in SUBMODULES:
        for name in mod.__all__:
            assert name not in owners, (name, owners.get(name), mod.__name__)
            owners[name] = mod
            assert getattr(drazinkit, name) is getattr(mod, name), name
    assert set(owners) == set(drazinkit.__all__) - {"__version__"}
