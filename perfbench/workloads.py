"""What each workload sends to drazinkit, derived from the workload seed.

A pass is the unit of timed work: one fresh worker interpreter issues the
pass's commands one after another, each through ``drazinkit.cli.main``.
A command is ``(key, argv, stdin)``; ``key`` names its golden output in
``goldens.json``.

Only the drazin-q commands need drazinkit to build (:func:`pool_matrix`
imports it), so the client process can use the rest without loading it.
"""

from __future__ import annotations

import json
from random import Random
from typing import List, Optional, Tuple

Command = Tuple[str, List[str], Optional[str]]

CATALOG_ARGV = {
    "catalog-q": ["selftest"],
    "catalog-f5": ["selftest", "--field", "Fp", "--mod", "5"],
}

# Corpus pairs one selftest takes through the catalog: the lambda corpus
# (106), and the cube and swapped-cube corpora (365 each, p=3 hits included).
CATALOG_PAIRS = 106 + 365 + 365

SEARCH_LAMBDAS = (2, 3, 4)
# Both bounds contain 0 and give isomorphic spaces (x -> 2x maps one onto
# the other), so the seed changes the inputs but hardly the cost; {1,2}
# would make a seed's search about 12% cheaper than another's.
SEARCH_ENTRY_BOUNDS = ("0,1", "0,2")
SEARCH_RELATIONS = (
    ["--relation", "lambda-commute", "--lambda", "{lam}"],
    ["--relation", "cross-cube"],
    ["--relation", "swapped-cube"],
)
# Search-space pairs per search pass: 5**8 per relation at p=5 n=2 and
# 2**18 per relation at p=3 n=3 with a two-residue entry bound.
SEARCH_SPACE = 3 * 5**8 + 3 * 2**18

# The drazin-q request pool: for each size n and each of the two kinds
# (plain, conjugated) POOL_PER_CLASS matrices, of which a seed picks
# PICK_PER_CLASS.  Goldens cover the whole pool, so any seed is checked.
SIZES = range(1, 9)
POOL_PER_CLASS = 32
PICK_PER_CLASS = 15
REQUESTS = len(SIZES) * 2 * PICK_PER_CLASS


def search_commands(lam: int, bound: str) -> List[Command]:
    """The six searches of one pass: three relations at two settings."""
    cmds: List[Command] = []
    for rel in SEARCH_RELATIONS:
        argv = ["search", "--mod", "5", "--dim", "2"]
        argv += [x.format(lam=lam) for x in rel]
        argv += ["--nontrivial", "--jobs", "1"]
        cmds.append((" ".join(argv), argv, None))
    for rel in SEARCH_RELATIONS:
        # lambda must be a nonzero residue mod 3; 2 is the one that is not 1.
        argv = ["search", "--mod", "3", "--dim", "3"]
        argv += [x.format(lam=2) for x in rel]
        argv += ["--entry-bound", bound, "--nontrivial", "--jobs", "1"]
        cmds.append((" ".join(argv), argv, None))
    return cmds


def search_pass(seed: int) -> List[Command]:
    return search_commands(
        SEARCH_LAMBDAS[seed % len(SEARCH_LAMBDAS)],
        SEARCH_ENTRY_BOUNDS[seed // len(SEARCH_LAMBDAS) % len(SEARCH_ENTRY_BOUNDS)],
    )


def pool_key(n: int, conjugated: bool, k: int) -> str:
    return f"compute n={n} {'conj' if conjugated else 'plain'} #{k}"


def pick_requests(seed: int) -> List[Tuple[int, bool, int]]:
    """The pool entries a seed sends, in the order it sends them."""
    rng = Random(seed)
    picked = [
        (n, conj, k)
        for n in SIZES
        for conj in (False, True)
        for k in sorted(rng.sample(range(POOL_PER_CLASS), PICK_PER_CLASS))
    ]
    rng.shuffle(picked)
    return picked


def pool_matrix(n: int, conjugated: bool, k: int):
    """Pool entry: a random integer core block beside a nilpotent block.

    The nilpotent part is a random strictly upper triangular block, so the
    Drazin index ranges from 0 to n.  A
    conjugated entry is ``P * M * P**-1`` with ``P = random_invertible``,
    which makes every entry dense and the inverse's entries long rationals.
    """
    from drazinkit import QQ, Matrix, random_invertible

    rng = Random(1_000_003 * n + 7_919 * k + int(conjugated))
    core = rng.randint(0, n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < core and j < core:
                rows[i][j] = rng.randint(-3, 3)
            elif core <= i < j:
                rows[i][j] = rng.randint(-3, 3)
    m = Matrix.from_rows(QQ, rows)
    if conjugated:
        p = random_invertible(QQ, n, rng.randrange(2**31))
        m = p * m * p.inverse()
    return m


def compute_command(n: int, conjugated: bool, k: int) -> Command:
    text = json.dumps(pool_matrix(n, conjugated, k).to_json_obj())
    return (pool_key(n, conjugated, k), ["compute"], text)


def compute_requests(seed: int) -> List[Command]:
    return [compute_command(*entry) for entry in pick_requests(seed)]


def pass_size(workload: str) -> int:
    """How many commands one pass sends."""
    if workload in CATALOG_ARGV:
        return 1
    return len(SEARCH_RELATIONS) * 2 if workload == "search" else REQUESTS


def pass_commands(workload: str, seed: int) -> List[Command]:
    """The commands of one pass; every pass of a run sends the same ones."""
    if workload in CATALOG_ARGV:
        argv = CATALOG_ARGV[workload]
        return [(" ".join(argv), argv, None)]
    if workload == "search":
        return search_pass(seed)
    return compute_requests(seed)
