"""Every row of the identity catalog against an evaluator outside the package.

``tests/_naive.py`` reads each row of the package's row table as data and
evaluates its two words with its own product, powers and Drazin inverses
(the latter from an inner inverse the package did not compute).  The
library's items must carry exactly those two sides, and pass exactly when
they are equal, so a fault in the plan that runs the rows (a step taken in
the wrong order, a value shared between two different words) shows here.
The pairs are a fixed sample of each ``selftest`` corpus and the index-3
pairs of ``tests/test_index_coverage.py``, run both ways round under both
cube relations.
"""

from collections import Counter
from fractions import Fraction
from random import Random

import pytest

import drazinkit.cli as cli
from drazinkit import (
    QQ,
    CorpusPair,
    CrossCube,
    PrimeField,
    SwappedCube,
    Workspace,
    default_cube_corpus,
    default_lambda_corpus,
    exhaustive_hits_corpus,
    gen_pair,
    relations,
)
from drazinkit.pairs import parse_family

from _naive import catalog_letters, from_matrix, scale, word_value
from test_index_coverage import INDEX_3_FAMILIES

F5 = PrimeField(5)


def _pairs(field):
    """Every 12th lambda pair and every 41st cube pair of the selftest
    corpora over ``field``, then the index-3 pairs at seed 2."""
    out = default_lambda_corpus(field)[::12]
    for rel in (CrossCube(), SwappedCube()):
        out += (default_cube_corpus(field, rel) + exhaustive_hits_corpus(rel))[::41]
    for descriptor in INDEX_3_FAMILIES:
        a, b = gen_pair(parse_family(descriptor), CrossCube(), field, 2)
        for x, y in ((a, b), (b, a)):
            for rel in (CrossCube(), SwappedCube()):
                out.append(CorpusPair(x, y, rel, descriptor))
    return out


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_every_row_matches_the_naive_evaluator(field):
    ws, rng = Workspace(), Random(46)
    checked = Counter()
    for cp in _pairs(field):
        p = cp.a.field.characteristic or None  # the F_3 search hits over either field
        rows = [row for row in cli._CATALOG if row[1] == cp.relation.name and row[2] is not None]
        reports = cli._pair_reports(cp, rows, cli._I_MAX, ws)
        letters = catalog_letters(from_matrix(cp.a), from_matrix(cp.b), rng, p)
        lam = getattr(cp.relation, "lam", None)
        lam = None if lam is None else Fraction(str(lam)) if p is None else int(str(lam))
        for label, _, suite in rows:
            table = relations._rows(suite, cli._I_MAX)
            items = reports[label].items
            assert [item.identity_id for item in items] == [row.id for row in table]
            for row, item in zip(table, items):
                lhs = word_value(row.lhs, letters, p)
                rhs = word_value(row.rhs, letters, p)
                if row.lam_power:
                    factor = lam**row.lam_power if p is None else pow(lam, row.lam_power, p)
                    rhs = scale(factor, rhs, p)
                got = (from_matrix(item.lhs), from_matrix(item.rhs), item.passed)
                assert got == (lhs, rhs, lhs == rhs), (cp.provenance, row.id)
                checked[label] += 1
    # Every row of every suite, the L3.5 exponent pairs each on their own.
    assert set(checked) == {label for label, _, suite in cli._CATALOG if suite is not None}
    assert sum(checked.values()) == 1085
