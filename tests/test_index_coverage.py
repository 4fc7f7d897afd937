"""The Drazin indices the identity catalog meets, and the cube rows at index 3.

Every pair of ``selftest``'s cube corpora is group-invertible (both indices
at most 1), so the cube rows and T3.6 never meet a Drazin inverse of index
2 or more there.  The ledger below pins what each corpus holds, so that a
change to the corpora shows here, and the second test runs every cube row
on pairs with ``ind(a) = 3`` built from the family grammar, with no change
to ``selftest``.
"""

from collections import Counter

import pytest

import drazinkit.cli as cli
from drazinkit import (
    QQ,
    CorpusPair,
    CrossCube,
    IdentityReport,
    LambdaCommute,
    Matrix,
    PrimeField,
    SwappedCube,
    Workspace,
    check_relation,
    default_cube_corpus,
    default_lambda_corpus,
    exhaustive_hits_corpus,
    gen_pair,
)
from drazinkit.pairs import parse_family

F5 = PrimeField(5)


def _label(field):
    return "Q" if field == QQ else f"F{field.characteristic}"


# (ind(a), ind(b), a*b == b*a, field of the pair) -> pairs, for each corpus
# selftest builds over Q and over F_5.  The two lambda corpora differ in
# two cells.  The cube corpora add 344 F_3 search hits to their family
# pairs, whatever the selftest's field.
_LAMBDA_LEDGER = {
    (0, 0, True): 3, (1, 1, True): 7,
    (2, 0, False): 15, (2, 0, True): 5, (2, 1, False): 6,
    (3, 0, False): 18, (3, 0, True): 6, (3, 1, False): 3, (3, 1, True): 2,
    (4, 0, False): 6, (4, 0, True): 2, (4, 1, False): 6, (4, 1, True): 2,
    (5, 0, False): 6, (5, 0, True): 2,
}
_F3_HITS = {(0, 0, False): 24, (0, 0, True): 80, (0, 1, True): 96, (1, 0, True): 96, (1, 1, True): 48}
LEDGERS = {
    (QQ, LambdaCommute.name): {
        **_LAMBDA_LEDGER, (0, 1, True): 13, (2, 1, True): 4,
    },
    (F5, LambdaCommute.name): {
        **_LAMBDA_LEDGER, (0, 1, True): 12, (2, 1, True): 5,
    },
    (QQ, "cube"): {(0, 0, True): 2, (0, 1, True): 7, (1, 0, True): 3, (1, 1, True): 9},
    (F5, "cube"): {(0, 0, True): 2, (0, 1, True): 8, (1, 0, True): 3, (1, 1, True): 8},
}


def _ledger(corpus, ws):
    return Counter(
        (ws.drazin(cp.a).index, ws.drazin(cp.b).index, cp.a * cp.b == cp.b * cp.a, _label(cp.a.field))
        for cp in corpus
    )


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_selftest_corpora_ledger(field):
    ws = Workspace()
    label = _label(field)
    lam = _ledger(default_lambda_corpus(field), ws)
    assert lam == {key + (label,): n for key, n in LEDGERS[field, LambdaCommute.name].items()}
    for rel in (CrossCube(), SwappedCube()):
        cube = _ledger(default_cube_corpus(field, rel) + exhaustive_hits_corpus(rel), ws)
        expected = {key + (label,): n for key, n in LEDGERS[field, "cube"].items()}
        expected.update({key + ("F3",): n for key, n in _F3_HITS.items()})
        assert cube == expected
        assert max(max(a, b) for a, b, _, _ in cube) == 1


INDEX_3_FAMILIES = [
    "direct-sum(diag-tripotents(2);zero-b(3))",
    "conjugated(direct-sum(diag-tripotents(2);zero-b(4));7)",
]


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("descriptor", INDEX_3_FAMILIES)
def test_cube_rows_hold_at_index_3(field, descriptor):
    # Both cube relations are kept by swapping a and b, and a zero-b block
    # meets both, so each pair runs every cube row and T3.6 both ways round.
    ws = Workspace()
    family = parse_family(descriptor)
    relations = {CrossCube.name: CrossCube(), SwappedCube.name: SwappedCube()}
    rows = [(label, kind, runner) for label, kind, runner in cli._CATALOG if kind in relations]
    assert [label for label, _, _ in rows] == [
        "L3.1", "L3.2", "L3.3", "L3.4",
        "L3.5[i=0,j=0]", "L3.5[i=1,j=2]", "L3.5[i=2,j=1]", "T3.6",
    ]
    for seed in (2, 5):
        a, b = gen_pair(family, CrossCube(), field, seed)
        assert ws.drazin(a).index == 3 and a * b != Matrix.zero(field, a.rows)
        for x, y in ((a, b), (b, a)):
            assert all(check_relation(x, y, rel) for rel in relations.values())
            for label, kind, runner in rows:
                cp = CorpusPair(x, y, relations[kind], f"{descriptor}@{seed}")
                result = runner(cp, cli._I_MAX, ws)
                if isinstance(result, IdentityReport):
                    assert result.all_pass, (label, seed, result.failing_ids())
                else:
                    assert result, (label, seed)
