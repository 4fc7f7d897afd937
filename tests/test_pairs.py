"""Pair generators, corpora, and the exhaustive finite-field search."""

import itertools
import json

import pytest

import _naive
import drazinkit.pairs as pairs
from drazinkit import (
    BudgetExceeded,
    Conjugated,
    CorpusPair,
    CrossCube,
    DEFAULT_SEARCH_BUDGET,
    DiagTripotents,
    DirectSum,
    ExhaustiveHit,
    FieldMismatch,
    IncompatibleFamily,
    LambdaCommute,
    Matrix,
    ParseError,
    PrimeField,
    QQ,
    ScalarTimesIdentity,
    SearchSpec,
    ShapeMismatch,
    SwappedCube,
    TrivialZeroB,
    WeightedShift,
    cached_hits,
    check_relation,
    compute_index,
    corpus_from_json_obj,
    corpus_to_json_obj,
    default_cube_corpus,
    default_lambda_corpus,
    default_lambda_values,
    describe_family,
    exhaustive_hits_corpus,
    exhaustive_search,
    gen_pair,
    random_invertible,
)

F3 = PrimeField(3)
F5 = PrimeField(5)


def _orbit_candidates(p, n, relation, nontrivial):
    """Pairs ``(a, b)`` over F_p with ``a`` the first of an orbit of the
    search's group and ``b >= a`` in row-major order that meet the cube
    relation's equation linear in ``b``: ``a**3*b == b*a`` (cross-cube) or
    ``b*a**3 == a*b`` (swapped-cube)."""
    firsts = _naive.search_orbit_firsts(p, n, relation.name, range(p), nontrivial)
    flats = list(itertools.product(range(p), repeat=n * n))
    rows = {f: [list(f[i * n : (i + 1) * n]) for i in range(n)] for f in flats}
    count = 0
    for fa in firsts:
        a = rows[fa]
        a3 = _naive.matpow(a, 3, p)
        for fb in flats[flats.index(fa) :]:
            b = rows[fb]
            if isinstance(relation, CrossCube):
                count += _naive.matmul(a3, b, p) == _naive.matmul(b, a, p)
            else:
                count += _naive.matmul(b, a3, p) == _naive.matmul(a, b, p)
    return count


def _line(a, p):
    """The multiple of row-major ``a`` whose first nonzero entry is 1."""
    lead = next(filter(None, a), 1)
    return tuple(v * pow(lead, -1, p) % p for v in a)


def _note_unrolled_calls(monkeypatch, name, note):
    """Have the search call ``note(*args)`` before each call of its function
    ``name`` of ``pairs._Unrolled``, which a search binds once."""
    build = pairs._unrolled

    def patched(n):
        unrolled = build(n)
        inner = getattr(unrolled, name)

        def noted(*args):
            note(*args)
            return inner(*args)

        return unrolled._replace(**{name: noted})

    monkeypatch.setattr(pairs, "_unrolled", patched)


def _entries(m: Matrix):
    return tuple(tuple(str(m.entry(i, j)) for j in range(m.cols)) for i in range(m.rows))


class TestFamilies:
    def test_describe_family_strings(self):
        assert describe_family(WeightedShift(3)) == "weighted-shift(n=3)"
        assert (
            describe_family(DiagTripotents(2, ((1, 0), (-1, 0))))
            == "diag-tripotents(n=2, a=[1,0], b=[-1,0])"
        )
        assert describe_family(DiagTripotents(4)) == "diag-tripotents(n=4, seeded)"
        assert (
            describe_family(ScalarTimesIdentity(3, -1))
            == "scalar-identity(n=3, scale=-1)"
        )
        assert describe_family(TrivialZeroB(2)) == "zero-b(n=2)"
        assert (
            describe_family(Conjugated(WeightedShift(2), 9))
            == "conjugated(weighted-shift(n=2), seed=9)"
        )
        assert (
            describe_family(DirectSum(WeightedShift(2), TrivialZeroB(1)))
            == "direct-sum(weighted-shift(n=2), zero-b(n=1))"
        )
        assert (
            describe_family(ExhaustiveHit(3, 2, 5))
            == "exhaustive(p=3, n=2, ordinal=5)"
        )

    def test_weighted_shift_worked_instance(self):
        a, b = gen_pair(WeightedShift(2), LambdaCommute(QQ.scalar(2)), QQ, 1)
        assert _entries(a) == (("0", "1"), ("0", "0"))
        assert b == Matrix.diagonal(QQ, [1, 2])

    def test_generation_deterministic(self):
        lam = QQ.scalar(3)
        for fam in [
            WeightedShift(4),
            TrivialZeroB(3),
            Conjugated(TrivialZeroB(2), 12),
            DirectSum(WeightedShift(2), TrivialZeroB(1)),
        ]:
            p1 = gen_pair(fam, LambdaCommute(lam), lam.field, 77)
            p2 = gen_pair(fam, LambdaCommute(lam), lam.field, 77)
            assert p1 == p2
        c1 = gen_pair(DiagTripotents(4), CrossCube(), QQ, 55)
        c2 = gen_pair(DiagTripotents(4), CrossCube(), QQ, 55)
        assert c1 == c2

    def test_seed_changes_seeded_families(self):
        lam = QQ.scalar(2)
        a1, _ = gen_pair(TrivialZeroB(3), LambdaCommute(lam), lam.field, 1)
        a2, _ = gen_pair(TrivialZeroB(3), LambdaCommute(lam), lam.field, 2)
        assert a1 != a2

    def test_all_outputs_certified(self):
        lam5 = F5.scalar(3)
        a, b = gen_pair(WeightedShift(3), LambdaCommute(lam5), lam5.field, 4)
        assert check_relation(a, b, LambdaCommute(lam5))
        c, d = gen_pair(Conjugated(DiagTripotents(3), 13), CrossCube(), F5, 5)
        assert check_relation(c, d, CrossCube())
        e, f = gen_pair(ScalarTimesIdentity(2, 1), SwappedCube(), QQ, 6)
        assert check_relation(e, f, SwappedCube())

    def test_scalar_identity_cube_scale_is_a_field_value(self):
        # Over F_5, 4 and 6 name -1 and 1: the cube condition holds of the
        # matrix, whatever integer spells it.
        for rel in (CrossCube(), SwappedCube()):
            for spellings in ((-1, 4), (1, 6)):
                made = {gen_pair(ScalarTimesIdentity(2, s), rel, F5, 3) for s in spellings}
                assert len(made) == 1
            with pytest.raises(IncompatibleFamily):
                gen_pair(ScalarTimesIdentity(2, 2), rel, F5, 3)

    @pytest.mark.parametrize(
        "family",
        [WeightedShift(2), Conjugated(WeightedShift(2), 3), DiagTripotents(2), TrivialZeroB(2)],
    )
    @pytest.mark.parametrize("lam_field, field", [(QQ, F5), (F5, QQ)])
    def test_lambda_over_another_field_raises(self, family, lam_field, field):
        with pytest.raises(FieldMismatch):
            gen_pair(family, LambdaCommute(lam_field.scalar(1)), field, 0)

    def test_conjugated_preserves_relation_not_matrices(self):
        rel = LambdaCommute(QQ.scalar(2))
        plain_a, plain_b = gen_pair(WeightedShift(3), rel, QQ, 9)
        conj_a, conj_b = gen_pair(Conjugated(WeightedShift(3), 8), rel, QQ, 9)
        assert (conj_a, conj_b) != (plain_a, plain_b)
        assert check_relation(conj_a, conj_b, rel)
        # conjugation preserves the index profile
        assert compute_index(conj_a) == compute_index(plain_a)

    def test_incompatible_family_paths(self):
        lam2 = QQ.scalar(2)
        with pytest.raises(IncompatibleFamily):
            gen_pair(WeightedShift(2), CrossCube(), QQ, 1)
        with pytest.raises(IncompatibleFamily):
            gen_pair(DiagTripotents(2), LambdaCommute(lam2), lam2.field, 1)
        with pytest.raises(IncompatibleFamily):
            gen_pair(ScalarTimesIdentity(2, 2), LambdaCommute(lam2), lam2.field, 1)
        with pytest.raises(IncompatibleFamily):
            # scale 5 vanishes mod 5
            gen_pair(ScalarTimesIdentity(2, 5), LambdaCommute(F5.scalar(1)), F5, 1)
        with pytest.raises(IncompatibleFamily):
            # cube relations need scale**3 == scale
            gen_pair(ScalarTimesIdentity(2, 2), CrossCube(), QQ, 1)
        with pytest.raises(IncompatibleFamily):
            gen_pair(DiagTripotents(3, ((1, 0), (0, 1))), CrossCube(), QQ, 1)
        with pytest.raises(IncompatibleFamily):
            gen_pair(DiagTripotents(2, ((2, 0), (0, 1))), CrossCube(), QQ, 1)
        with pytest.raises(IncompatibleFamily):
            # hits live over F_3, not the rationals
            gen_pair(ExhaustiveHit(3, 1, 0), CrossCube(), QQ, 1)
        with pytest.raises(IncompatibleFamily) as exc:
            gen_pair(ExhaustiveHit(3, 1, 99), CrossCube(), F3, 1)
        assert "out of range" in str(exc.value)

    def test_unknown_family_refused(self):
        family = object()
        with pytest.raises(IncompatibleFamily) as exc:
            gen_pair(family, CrossCube(), QQ, 0)
        assert exc.value.detail == {"family": repr(family)}

    def test_refusals_name_what_they_refused(self):
        cases = [
            (
                lambda: SearchSpec(3, 1, LambdaCommute(QQ.scalar(2))),
                FieldMismatch,
                {"lambda": "Q", "search": {"Fp": 3}},
            ),
            (
                lambda: default_cube_corpus(F5, LambdaCommute(F5.scalar(2))),
                IncompatibleFamily,
                {"relation": "lambda-commute", "expected": ["cross-cube", "swapped-cube"]},
            ),
            (lambda: describe_family("shift"), IncompatibleFamily, {"family": "'shift'"}),
        ]
        for call, error, detail in cases:
            with pytest.raises(error) as exc:
                call()
            assert exc.value.detail == detail

    def test_exhaustive_hit_family_indexes_canonical_order(self):
        a, b = gen_pair(ExhaustiveHit(3, 1, 0), CrossCube(), F3, 0)
        hits = cached_hits(3, 1, CrossCube())
        assert (a, b) == hits[0]

    def test_random_invertible(self):
        for field in (QQ, F5):
            for seed in range(25):
                m = random_invertible(field, 4, seed)
                assert m.rank() == 4
            assert random_invertible(field, 4, 7) == random_invertible(field, 4, 7)

    def test_random_invertible_refuses_a_size_below_one(self):
        # Refused before any matrix is built, as ``Matrix.identity`` refuses.
        for n in (0, -2):
            with pytest.raises(ShapeMismatch) as got:
                random_invertible(QQ, n, 1)
            with pytest.raises(ShapeMismatch) as want:
                Matrix.identity(QQ, n)
            assert str(got.value) == str(want.value)
            assert got.value.detail == want.value.detail == {"shape": [n, n]}


class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(ParseError):
            SearchSpec(4, 1, CrossCube())
        for kwargs, detail in [
            ({"n": 0}, {"n": 0}),
            ({"n": 4}, {"n": 4}),
            ({"n": 1, "entry_bound": ()}, {"entry_bound": []}),
            ({"n": 1, "entry_bound": (0, 3)}, {"entry_bound": 3, "modulus": 3}),
            # A bool is refused, not read as 0 or 1: its hits would carry
            # bool entries and encode as "True" and "False".
            ({"n": True}, {"n": True}),
            ({"n": 1, "entry_bound": (True, False)}, {"entry_bound": True, "modulus": 3}),
            ({"n": 1, "entry_bound": (0, 1, False)}, {"entry_bound": False, "modulus": 3}),
            ({"n": 1, "entry_bound": ("1", 0)}, {"entry_bound": "1", "modulus": 3}),
        ]:
            with pytest.raises(ParseError) as exc:
                SearchSpec(3, relation=CrossCube(), **kwargs)
            assert exc.value.detail == detail
        # still a ValueError, for callers that catch that
        with pytest.raises(ValueError):
            SearchSpec(3, 0, CrossCube())
        with pytest.raises(FieldMismatch):
            SearchSpec(3, 1, LambdaCommute(QQ.scalar(2)))
        # Anything but the three relation kinds is refused, not run as the
        # swapped-cube search, and so is a flag that is not a bool.
        for args, detail in [
            ((3, 1, None), {"relation": "None"}),
            ((3, 2, "cross-cube"), {"relation": "'cross-cube'"}),
            ((3, 2, CrossCube, None, False), {"relation": repr(CrossCube)}),
            ((3, 2, CrossCube(), None, "no"), {"require_nontrivial": "'no'"}),
            ((3, 2, CrossCube(), None, 1), {"require_nontrivial": "1"}),
            ((3, 2, CrossCube(), None, None), {"require_nontrivial": "None"}),
        ]:
            with pytest.raises(ParseError) as exc:
                SearchSpec(*args)
            assert exc.value.detail == detail
        # the smallest field is legitimate for searching
        assert SearchSpec(2, 2, CrossCube()).space_size() == 2**8

    def test_entry_bound_normalized(self):
        spec = SearchSpec(5, 1, CrossCube(), entry_bound=(2, 0, 2))
        assert spec.entry_bound == (0, 2)
        assert spec.domain() == (0, 2)
        assert spec.space_size() == 4

    def test_space_size(self):
        assert SearchSpec(3, 2, CrossCube()).space_size() == 3**8
        assert SearchSpec(5, 3, CrossCube()).space_size() == 5**18
        # sized without building the domain, which for this p would not fit
        assert SearchSpec(1000000007, 1, CrossCube()).space_size() == 1000000007**2


class TestExhaustiveSearch:
    def test_n1_p3_cross_nontrivial_frozen(self):
        # 1x1 cross-cube over F_3: a**3 == a for every residue, so the
        # relation always holds and only nontriviality filters; the four
        # hits are exactly the nonzero pairs, in lexicographic order.
        spec = SearchSpec(3, 1, CrossCube(), require_nontrivial=True)
        hits = exhaustive_search(spec)
        got = [(str(a.entry(0, 0)), str(b.entry(0, 0))) for a, b in hits]
        assert got == [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]

    def test_n1_p3_lambda2_nontrivial_empty(self):
        # a*b == 2*b*a over F_3 forces a*b == 0 for scalars
        spec = SearchSpec(
            3, 1, LambdaCommute(F3.scalar(2)), require_nontrivial=True
        )
        assert exhaustive_search(spec) == []

    def test_n2_p3_cross_counts_frozen(self):
        nontrivial = exhaustive_search(
            SearchSpec(3, 2, CrossCube(), require_nontrivial=True)
        )
        assert len(nontrivial) == 340
        noncommuting = [(a, b) for a, b in nontrivial if a * b != b * a]
        assert len(noncommuting) == 24

    def test_results_certified_and_ordered(self):
        spec = SearchSpec(3, 2, CrossCube(), require_nontrivial=True)
        hits = exhaustive_search(spec)
        keys = []
        for a, b in hits:
            assert check_relation(a, b, CrossCube())
            flat_a = tuple(
                int(str(a.entry(i, j))) for i in range(2) for j in range(2)
            )
            flat_b = tuple(
                int(str(b.entry(i, j))) for i in range(2) for j in range(2)
            )
            keys.append((flat_a, flat_b))
        assert keys == sorted(keys)

    def test_entry_bound_honored(self):
        spec = SearchSpec(5, 1, CrossCube(), entry_bound=(0, 1))
        hits = exhaustive_search(spec)
        values = {
            (str(a.entry(0, 0)), str(b.entry(0, 0))) for a, b in hits
        }
        assert values == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}

    def test_budget_exceeded(self):
        spec = SearchSpec(5, 3, CrossCube())
        with pytest.raises(BudgetExceeded) as exc:
            exhaustive_search(spec)
        assert exc.value.detail == {
            "size": 5**18,
            "budget": DEFAULT_SEARCH_BUDGET,
        }
        with pytest.raises(BudgetExceeded):
            # the 1x1 space over F_3 holds 9 pairs; a budget of 8 is short
            exhaustive_search(SearchSpec(3, 1, CrossCube()), budget=8)

    @pytest.mark.parametrize(
        "nontrivial,calls",
        [
            (False, {"cross-cube": 225, "swapped-cube": 221}),
            (True, {"cross-cube": 144, "swapped-cube": 140}),
        ],
        ids=["False", "True"],
    )
    @pytest.mark.parametrize(
        "relation", [CrossCube(), SwappedCube()], ids=["cross-cube", "swapped-cube"]
    )
    def test_second_cube_equation_once_per_unordered_pair(
        self, monkeypatch, relation, calls, nontrivial
    ):
        # The other equation of (a, b) is the linear one of (b, a), so it
        # is evaluated only for the candidates b >= a of the kernel of the
        # first a of each orbit of the search's group.  At p = 3, n = 2
        # the group has 8 elements (2 permutations, u_2 and the scale c in
        # {1, 2}).  By Burnside's lemma the 81 a fall in 17 orbits: the
        # identity fixes all 81, a == -a only a = 0, and each of the 6
        # others the 9 a with two entries set by the other two, so
        # (81 + 1 + 6*9)/8 = 17, as the naive orbits count.  Their first a
        # have 225 such candidates by brute force under cross-cube and 221
        # under swapped-cube.  Under --nontrivial the orbit {0} is skipped,
        # whose equation 0 == 0 holds for all 3**4 = 81 b >= 0: 144 and
        # 140.
        seen = []
        _note_unrolled_calls(monkeypatch, "products_equal", lambda *args: seen.append(None))
        exhaustive_search(SearchSpec(3, 2, relation, require_nontrivial=nontrivial))
        assert len(seen) == calls[relation.name]
        assert len(seen) == _orbit_candidates(3, 2, relation, nontrivial)

    @pytest.mark.parametrize(
        "p,nontrivial,members",
        [
            (3, False, {"cross-cube": 225, "swapped-cube": 221}),
            (3, True, {"cross-cube": 144, "swapped-cube": 140}),
            (5, True, {"cross-cube": 905, "swapped-cube": 904}),
        ],
        ids=["p3", "p3-nontrivial", "p5-nontrivial"],
    )
    @pytest.mark.parametrize("relation", [CrossCube(), SwappedCube()])
    def test_cube_kernel_members_listed_from_a_up(
        self, monkeypatch, relation, p, nontrivial, members
    ):
        # Under a cube relation one kernel is listed per orbit of the
        # search's group, from its first a up, so only its members b >= a
        # are formed.  At p = 3, n = 2 the group's 8 elements put the 81 a
        # in 17 orbits, whose first a have 225 (cross-cube) and 221
        # (swapped-cube) members b >= a by brute force; 945 members over
        # every whole kernel.  Under --nontrivial the orbit {0}, whose
        # kernel is all p**4 matrices b >= 0, is skipped: 144 and 140 at
        # p = 3, and 905 and 904 at p = 5, where 16 elements (2
        # permutations, 4 units u_2, c = +-1) fix 928 a in all, so the 625
        # a fall in 928/16 = 58 orbits, 57 of them nonzero (7,825 members
        # over every whole kernel).
        built = []
        inner = pairs._kernel

        def counted(*args):
            out = inner(*args)
            built.append(len(out))
            return out

        monkeypatch.setattr(pairs, "_kernel", counted)
        exhaustive_search(SearchSpec(p, 2, relation, require_nontrivial=nontrivial))
        firsts = _naive.search_orbit_firsts(p, 2, relation.name, range(p), nontrivial)
        assert len(built) == len(firsts) == {3: 17, 5: 58}[p] - nontrivial
        assert sum(built) == members[relation.name]
        if p == 3:
            assert sum(built) == _orbit_candidates(3, 2, relation, nontrivial)

    @pytest.mark.parametrize(
        "relation,kernels,products",
        [
            (CrossCube(), 17, 81),
            (SwappedCube(), 17, 81),
            (LambdaCommute(F3.scalar(2)), 17, 80),
        ],
        ids=["cross-cube", "swapped-cube", "lambda-commute-2"],
    )
    def test_nontrivial_filter_once_per_kept_pair(
        self, monkeypatch, relation, kernels, products
    ):
        # One kernel is listed per orbit of the search's group: its 8
        # elements at p = 3, n = 2 put the 81 a in 17 orbits (see the
        # Burnside count above), as the naive orbits count.  The filter
        # runs once per relation hit (a, b) with a the first of an orbit
        # but {0}, and under a cube relation, where a*b == 0 exactly when
        # b*a == 0, only for b >= a: 81 of the 306 cube hits and 80 of the
        # 417 lambda hits by brute force.  Under --nontrivial the orbit {0}
        # lists no kernel.
        calls = {"product_nonzero": 0, "_kernel": 0}
        inner = pairs._kernel

        def counted(*args):
            calls["_kernel"] += 1
            return inner(*args)

        monkeypatch.setattr(pairs, "_kernel", counted)

        def count_filter(*args):
            calls["product_nonzero"] += 1

        _note_unrolled_calls(monkeypatch, "product_nonzero", count_filter)
        filtered = []
        for nontrivial in (False, True):
            calls.update(dict.fromkeys(calls, 0))
            exhaustive_search(SearchSpec(3, 2, relation, require_nontrivial=nontrivial))
            assert calls["_kernel"] == kernels - nontrivial
            filtered.append(calls["product_nonzero"])
        assert filtered == [0, products]
        lam = relation.lam.value if isinstance(relation, LambdaCommute) else None
        firsts = _naive.search_orbit_firsts(3, 2, relation.name, range(3), True)
        assert len(firsts) == kernels - 1
        hits = _naive.search_hits(3, 2, relation.name, lam, range(3), False)
        kept = [
            (a, b)
            for a, b in hits
            if tuple(v for row in a for v in row) in firsts and (lam is not None or b >= a)
        ]
        assert len(kept) == products

    @pytest.mark.parametrize(
        "p,lines,orbits", [(3, 40, 16), (5, 156, 29)], ids=["3-40", "5-156"]
    )
    def test_lambda_kernel_listed_once_per_line(self, monkeypatch, p, lines, orbits):
        # The map b -> (s*a)*b - lam*b*(s*a) is s times the map of a, and
        # the search's group holds every scale s of a, so each line
        # {s*a : s a unit} of nonzero a lies in one orbit and no line lists
        # two kernels: one per orbit of nonzero a, 16 at p = 3 (8
        # elements) and 29 at p = 5, where 32 elements (2 permutations, 4
        # units u_2, 4 scales) fix 960 a in all, so 960/32 = 30 orbits
        # with {0}.  There (p**4 - 1)/(p - 1) lines are 40 and 156.  One
        # more kernel is listed for a = 0 without --nontrivial.
        assert lines == (p**4 - 1) // (p - 1)
        listed = []

        def counted(x, *rest):
            listed.append(x)  # x is a under lambda-commute

        _note_unrolled_calls(monkeypatch, "sylvester_rows", counted)
        relation = LambdaCommute(PrimeField(p).scalar(2))
        for nontrivial in (False, True):
            listed.clear()
            exhaustive_search(SearchSpec(p, 2, relation, require_nontrivial=nontrivial))
            assert len(listed) == orbits + (not nontrivial)
            assert listed == _naive.search_orbit_firsts(
                p, 2, relation.name, range(p), nontrivial
            )
            assert len({_line(a, p) for a in listed}) == len(listed)

    @pytest.mark.parametrize("lam,bound", [(2, (0, 1)), (4, (0, 2))])
    def test_benchmark_search_pass_lists_452_kernels(self, monkeypatch, lam, bound):
        # A search pass of the benchmark runs the three relations with
        # --nontrivial at p = 5, n = 2 and at p = 3, n = 3 under a
        # two-residue bound with 0.  One kernel is listed per orbit of
        # nonzero a: 29 under lambda-commute at p = 5 (group of 32) and 57
        # under each cube relation (group of 16), and 103 for each
        # relation at p = 3, n = 3, where only the 6 permutations keep the
        # bound: the 104 3 x 3 zero-one matrices up to simultaneous
        # permutation of rows and columns, less 0.  29 + 2*57 + 3*103 is
        # 452, where one kernel per a (and per line of multiples under
        # lambda-commute) made 156 + 2*624 + 3*511 = 2,937.
        built = []
        inner = pairs._kernel

        def counted(*args):
            built.append(None)
            return inner(*args)

        monkeypatch.setattr(pairs, "_kernel", counted)
        for p, n, entry_bound, lam_value in ((5, 2, None, lam), (3, 3, bound, 2)):
            lambda_commute = LambdaCommute(PrimeField(p).scalar(lam_value))
            for relation in (lambda_commute, CrossCube(), SwappedCube()):
                exhaustive_search(SearchSpec(p, n, relation, entry_bound, True))
        assert len(built) == 29 + 2 * 57 + 3 * 103 == 452

    @pytest.mark.parametrize(
        "relation",
        [CrossCube(), SwappedCube(), LambdaCommute(F3.scalar(2))],
        ids=["cross-cube", "swapped-cube", "lambda-commute-2"],
    )
    def test_no_kernel_for_zero_a_under_nontrivial(self, monkeypatch, relation):
        # 0*b == 0, so a = 0 has no nontrivial hit.  Its map is the only
        # one with x and y both zero: y = a (cross-cube), x = a
        # (swapped-cube), x = y = the line's key (lambda-commute).
        zero_maps = []

        def counted(x, y, *rest):
            zero_maps.append(not any(x) and not any(y))

        _note_unrolled_calls(monkeypatch, "sylvester_rows", counted)
        for nontrivial, expected in ((False, 1), (True, 0)):
            zero_maps.clear()
            exhaustive_search(SearchSpec(3, 2, relation, require_nontrivial=nontrivial))
            assert sum(zero_maps) == expected

    @pytest.mark.parametrize("relation", [CrossCube(), SwappedCube()])
    def test_cube_hits_are_trivial_in_both_orders_or_neither(self, relation):
        # a*b == 0 gives b*a == a**3*b == a**2*(a*b) == 0 under the
        # cross-cube relation, and b*a == 0 gives a*b == b**3*a == 0; the
        # swapped-cube relation likewise.  So the nontrivial filter keeps
        # (a, b) exactly when it keeps (b, a), and the search, which checks
        # only the candidate with b >= a, emits both or neither; among the
        # pairs with b < a are trivial ones.
        hits = exhaustive_search(SearchSpec(3, 2, relation))
        for a, b in hits:
            assert (a * b).is_zero() == (b * a).is_zero()
        assert any(
            (a * b).is_zero() and _entries(b) < _entries(a) for a, b in hits
        )

    @pytest.mark.parametrize(
        "relation,kernels",
        [
            (CrossCube(), 6),
            (SwappedCube(), 6),
            (LambdaCommute(F3.scalar(1)), 13),
            (LambdaCommute(F3.scalar(2)), 13),
        ],
        ids=["cross-cube", "swapped-cube", "lambda-commute-1", "lambda-commute-2"],
    )
    def test_hit_cap_stops_at_the_a_that_crosses_it(self, monkeypatch, relation, kernels):
        # The cap is checked after each a, so the refusal counts the hits
        # of the a up to the first one that crosses it, and no kernel is
        # listed after that a: one per orbit of the search's group whose
        # first a is not past it.  A cap of half the hits is crossed at
        # a = (0, 1, 1, 0) under a cube relation (13th of the 81 a), and
        # at (1, 1, 0, 0) (37th) and (1, 0, 1, 2) (33rd) under
        # lambda-commute with lambda 1 and 2.  Of the 17 naive orbits, 6
        # have their first a up to the 13th a, and 13 up to the 33rd and
        # up to the 37th.
        spec = SearchSpec(3, 2, relation)
        cube = not isinstance(relation, LambdaCommute)
        per_a = {}
        for x, ys in pairs._search_flat(spec):
            for y in ys:
                a = min(x, y) if cube else x  # a cube hit (x, y) is counted at min(x, y)
                per_a[a] = per_a.get(a, 0) + 1
        cap = sum(per_a.values()) // 2
        found = 0
        for last in itertools.product(range(3), repeat=4):
            found += per_a.get(last, 0)
            if found > cap:
                break
        firsts = _naive.search_orbit_firsts(3, 2, relation.name, range(3), False)
        listed = []

        def counted(x, y, *rest):
            # a is y under cross-cube and x under the other relations.
            listed.append(y if isinstance(relation, CrossCube) else x)

        _note_unrolled_calls(monkeypatch, "sylvester_rows", counted)
        monkeypatch.setattr(pairs, "_MAX_HITS", cap)
        with pytest.raises(BudgetExceeded) as exc:
            exhaustive_search(spec)
        assert exc.value.detail == {"hits": found, "cap": cap}
        assert listed == [a for a in firsts if a <= last]
        assert len(listed) == kernels

    def test_search_at_the_hit_cap_is_accepted(self, monkeypatch):
        spec = SearchSpec(3, 2, CrossCube())
        hits = exhaustive_search(spec)
        monkeypatch.setattr(pairs, "_MAX_HITS", len(hits))
        assert exhaustive_search(spec) == hits
        monkeypatch.setattr(pairs, "_MAX_HITS", len(hits) - 1)
        with pytest.raises(BudgetExceeded) as exc:
            exhaustive_search(spec)
        assert exc.value.detail["cap"] == len(hits) - 1

    def test_hits_share_one_matrix_per_value(self):
        hits = exhaustive_search(SearchSpec(3, 2, CrossCube()))
        matrices = [m for pair in hits for m in pair]
        assert len({id(m) for m in matrices}) == len(set(matrices))

    @pytest.mark.parametrize(
        "spec",
        [
            SearchSpec(3, 2, CrossCube()),
            SearchSpec(3, 2, SwappedCube(), require_nontrivial=True),
            SearchSpec(5, 2, LambdaCommute(F5.scalar(2)), entry_bound=(0, 1, 4)),
        ],
        ids=["cross-cube", "swapped-cube-nontrivial", "lambda-commute-bounded"],
    )
    def test_search_holds_one_hit_list_per_a(self, spec):
        # The walk hands over each a that has hits once, with its b
        # ascending, not one pair per hit; the search flattens them.
        flat = pairs._search_flat(spec)
        firsts = [a for a, _ in flat]
        assert firsts == sorted(set(firsts))
        assert all(bs and bs == sorted(set(bs)) for _, bs in flat)
        hits = [(a, b) for a, bs in flat for b in bs]
        assert hits == [
            tuple(tuple(x.value for row in m.to_rows() for x in row) for m in pair)
            for pair in exhaustive_search(spec)
        ]

    def test_swapped_and_cross_hit_sets_coincide_at_n2(self):
        # observed coincidence, frozen: every nontrivial 2x2 hit over F_3
        # satisfies both cube relations (see also the lambda collapse in
        # the relations tests)
        cross = exhaustive_search(
            SearchSpec(3, 2, CrossCube(), require_nontrivial=True)
        )
        swapped = exhaustive_search(
            SearchSpec(3, 2, SwappedCube(), require_nontrivial=True)
        )
        assert cross == swapped

    def test_cached_hits_memoized_and_equal(self):
        cached_hits.cache_clear()
        h1 = cached_hits(3, 1, CrossCube())
        h2 = cached_hits(3, 1, CrossCube())
        assert h1 is h2
        assert cached_hits.cache_info().misses == 1
        assert list(h1) == exhaustive_search(
            SearchSpec(3, 1, CrossCube(), require_nontrivial=True)
        )


class TestCorpora:
    def test_default_lambda_values(self):
        assert [str(v) for v in default_lambda_values(QQ)] == ["2", "3", "1/2", "1"]
        assert [str(v) for v in default_lambda_values(F5)] == ["1", "2", "3", "4"]
        assert [str(v) for v in default_lambda_values(PrimeField(11))] == [
            "1",
            "2",
            "3",
        ]

    @pytest.mark.parametrize("field", [QQ, F5])
    def test_lambda_corpus_size_and_certification(self, field):
        corpus = default_lambda_corpus(field)
        assert len(corpus) >= 100
        lams = set()
        for cp in corpus:
            assert isinstance(cp.relation, LambdaCommute)
            assert check_relation(cp.a, cp.b, cp.relation)
            assert cp.provenance
            lams.add(str(cp.relation.lam))
        expected = {str(v) for v in default_lambda_values(field)}
        assert lams == expected

    def test_lambda_corpus_index_coverage(self):
        corpus = default_lambda_corpus(QQ)
        profiles = {(compute_index(cp.a), compute_index(cp.b)) for cp in corpus}
        assert {(2, 0), (0, 0), (1, 1), (2, 1)} <= profiles

    def test_lambda_corpus_deterministic(self):
        c1 = default_lambda_corpus(QQ)
        c2 = default_lambda_corpus(QQ)
        assert [(cp.a, cp.b, cp.provenance) for cp in c1] == [
            (cp.a, cp.b, cp.provenance) for cp in c2
        ]

    def test_cube_corpus_diversity(self):
        corpus = default_cube_corpus(QQ)
        assert len(corpus) >= 20
        for cp in corpus:
            assert isinstance(cp.relation, CrossCube)
            assert check_relation(cp.a, cp.b, cp.relation)
        n = len(corpus)
        has_invertible_a = any(cp.a.rank() == cp.a.rows for cp in corpus)
        has_tripotent_a = any(
            cp.a**3 == cp.a and cp.a.rank() < cp.a.rows and not cp.a.is_zero()
            for cp in corpus
        )
        has_zero_b = any(cp.b.is_zero() for cp in corpus)
        has_group_b = any(
            not cp.b.is_zero() and compute_index(cp.b) <= 1 for cp in corpus
        )
        assert has_invertible_a and has_tripotent_a and has_zero_b and has_group_b

    def test_cube_corpus_swapped_variant(self):
        corpus = default_cube_corpus(F5, SwappedCube())
        for cp in corpus:
            assert isinstance(cp.relation, SwappedCube)
            assert check_relation(cp.a, cp.b, cp.relation)

    def test_cube_corpus_rejects_lambda(self):
        with pytest.raises(IncompatibleFamily):
            default_cube_corpus(QQ, LambdaCommute(QQ.scalar(2)))

    def test_exhaustive_hits_corpus_frozen_total(self):
        corpus = exhaustive_hits_corpus(CrossCube())
        assert len(corpus) == 344  # 4 at n=1 plus 340 at n=2
        assert corpus[0].provenance == "exhaustive(p=3, n=1, ordinal=0)"
        assert corpus[4].provenance == "exhaustive(p=3, n=2, ordinal=0)"
        for cp in corpus:
            assert check_relation(cp.a, cp.b, cp.relation)

    def test_corpus_json_round_trip(self):
        corpus = default_cube_corpus(QQ)[:3] + default_lambda_corpus(QQ)[:3]
        blob = json.dumps(corpus_to_json_obj(corpus), sort_keys=True)
        back = corpus_from_json_obj(json.loads(blob))
        assert len(back) == len(corpus)
        for orig, rt in zip(corpus, back):
            assert rt.a == orig.a
            assert rt.b == orig.b
            assert rt.relation == orig.relation
            assert rt.provenance == orig.provenance

    def test_corpus_from_json_obj_rejects_malformed(self):
        good = corpus_to_json_obj(default_cube_corpus(QQ)[:1])
        with pytest.raises(ParseError):
            corpus_from_json_obj({"not": "a list"})
        with pytest.raises(ParseError):
            corpus_from_json_obj(["not an object"])
        missing = [dict(good[0])]
        del missing[0]["relation"]
        with pytest.raises(ParseError) as exc:
            corpus_from_json_obj(missing)
        assert "relation" in str(exc.value)
        bad_lambda = [dict(good[0], relation="lambda-commute")]
        bad_lambda[0]["lambda"] = 2
        with pytest.raises(ParseError):
            corpus_from_json_obj(bad_lambda)
        bad_prov = [dict(good[0], provenance=7)]
        with pytest.raises(ParseError):
            corpus_from_json_obj(bad_prov)
