"""Minimization procedures, route agreement, and the Wilf audit."""
from itertools import islice

import pytest

from semigroup_forge.core import (
    interval_apery,
    interval_frobenius,
    interval_genus,
    make_semigroup,
)
from semigroup_forge.errors import BadDimension
from semigroup_forge.multiplicity_tree import bfs_levels, root
from semigroup_forge.oracle import enumerate_by_genus, sieve
from semigroup_forge.packed import enumerate_packed
from semigroup_forge.search import (
    Existence,
    SearchOutcome,
    existence,
    min_frobenius,
    min_frobenius_full_set,
    min_frobenius_value_packed,
    min_genus,
    min_genus_packed,
    wilf_audit,
)


def mk(*gens):
    return make_semigroup(gens)


class TestExistence:
    def test_cases(self):
        assert existence(3, 5) is Existence.EMPTY
        assert existence(1, 1) is Existence.ONLY_NATURALS
        assert existence(6, 3) is Existence.NON_EMPTY
        assert existence(5, 1) is Existence.EMPTY
        assert existence(0, 1) is Existence.EMPTY

    GATED = (
        interval_apery,
        interval_genus,
        interval_frobenius,
        enumerate_packed,
        min_genus,
        min_genus_packed,
        min_frobenius,
        min_frobenius_value_packed,
        min_frobenius_full_set,
    )

    def test_rejections_carry_classification(self):
        cases = [
            (3, 5, Existence.EMPTY),
            (5, 1, Existence.EMPTY),
            (0, 0, Existence.EMPTY),
            (1, 1, Existence.ONLY_NATURALS),
        ]
        for fn in self.GATED:
            for m, e, cls in cases:
                with pytest.raises(BadDimension) as info:
                    fn(m, e)
                assert info.value.classification is cls, (fn.__name__, m, e)


class TestMinGenus:
    def test_five_three(self):
        out = min_genus(5, 3)
        assert out.value == 6
        assert out.minimizers == (mk(5, 6, 7), mk(5, 6, 8))
        assert out.level == 2
        assert out.value == (5 - 1) + out.level

    def test_six_three(self):
        out = min_genus(6, 3)
        assert out.value == 9
        assert out.minimizers == (mk(6, 7, 8), mk(6, 7, 9), mk(6, 7, 10))

    def test_full_dimension(self):
        for m in range(2, 9):
            out = min_genus(m, m)
            assert out.value == m - 1
            assert out.minimizers == (root(m),)
            assert out.level == 0

    def test_eight_three(self):
        out = min_genus(8, 3)
        assert out.value == 14
        assert out.minimizers == (mk(8, 9, 11),)

    def test_node_stats(self):
        stats = {}
        min_genus(5, 3, stats=stats)
        assert stats["nodes"] > 0


class TestMinGenusPacked:
    def test_agrees_on_examples(self):
        out = min_genus_packed(6, 3)
        assert out.value == 9
        assert out.minimizers == (mk(6, 7, 8), mk(6, 7, 9), mk(6, 7, 10))
        assert min_genus_packed(5, 3).value == 6

    def test_two_generator_minimum_is_the_interval(self):
        for m in range(2, 13):
            out = min_genus_packed(m, 2)
            assert out.value == interval_genus(m, 2)
            assert mk(m, m + 1) in out.minimizers
            assert sieve((m, m + 1)).genus == out.value


class TestMinFrobenius:
    def test_four_three(self):
        out = min_frobenius(4, 3)
        assert out.value == 6
        assert out.minimizers == (mk(4, 5, 7),)

    def test_seven_four(self):
        out = min_frobenius(7, 4)
        assert out.value == 13
        assert mk(7, 9, 10, 15) in out.minimizers
        assert mk(7, 8, 10, 19) in out.minimizers

    def test_two_generators(self):
        # The pruning bound is m*m-m-1 here, which admits the whole tree,
        # so the tree route is only reasonable for small m.
        for m in range(2, 8):
            out = min_frobenius(m, 2)
            assert out.value == m * m - m - 1
            assert out.minimizers == (mk(m, m + 1),)
        for m in range(8, 14):
            assert min_frobenius_value_packed(m, 2) == m * m - m - 1

    def test_full_dimension(self):
        for m in range(2, 9):
            out = min_frobenius(m, m)
            assert out.value == m - 1
            assert out.minimizers == (root(m),)

    def test_node_stats(self):
        stats = {}
        min_frobenius(4, 3, stats=stats)
        assert stats["nodes"] > 0


class TestPackedRoutes:
    def test_value_examples(self):
        assert min_frobenius_value_packed(6, 5) == 8
        assert min_frobenius_value_packed(4, 3) == 6
        for m in range(2, 9):
            assert min_frobenius_value_packed(m, m) == m - 1

    def test_full_set_examples(self):
        out = min_frobenius_full_set(7, 4)
        assert out.value == 13
        assert mk(7, 9, 10, 15) in out.minimizers
        assert mk(7, 8, 10, 19) in out.minimizers
        assert min_frobenius_full_set(4, 3).minimizers == (mk(4, 5, 7),)

    def test_routes_agree_at_desk_scale(self):
        for m in range(2, 8):
            for e in range(2, m + 1):
                tree_out = min_frobenius(m, e)
                assert tree_out.value == min_frobenius_value_packed(m, e)
                class_out = min_frobenius_full_set(m, e)
                assert tree_out.value == class_out.value
                assert tree_out.minimizers == class_out.minimizers

                genus_tree = min_genus(m, e)
                genus_packed = min_genus_packed(m, e)
                assert genus_tree.value == genus_packed.value
                assert genus_tree.minimizers == genus_packed.minimizers

    def test_oracle_confirms_seven_four(self):
        population = enumerate_by_genus(7, 13)
        dim_four = [S for S in population if S.embedding_dim == 4]
        best = min(S.frobenius for S in dim_four)
        minimizers = tuple(sorted(S for S in dim_four if S.frobenius == best))
        out = min_frobenius(7, 4)
        assert (out.value, out.minimizers) == (best, minimizers)


class TestUpperBounds:
    def test_interval_semigroup_witnesses_both_bounds(self):
        # The interval semigroup lies in the family and attains both
        # formula values, so each minimum is at most its formula.
        for m in range(2, 31):
            for e in range(2, m + 1):
                S = make_semigroup(range(m, m + e))
                assert S.min_gens == tuple(range(m, m + e))
                assert (S.multiplicity, S.embedding_dim) == (m, e)
                assert S.genus == interval_genus(m, e)
                assert S.frobenius == interval_frobenius(m, e)

    def test_exact_minima_stay_below_bounds(self):
        # Exact minima wherever the packed family is small enough to
        # enumerate outright.
        from math import comb

        for m in range(2, 31):
            for e in range(2, m + 1):
                if comb(m - 1, e - 1) > 3000:
                    continue
                assert min_genus_packed(m, e).value <= interval_genus(m, e)
                assert min_frobenius_value_packed(m, e) <= interval_frobenius(m, e)


class TestWilfAudit:
    def test_packed_family_clean(self):
        assert wilf_audit(enumerate_packed(6, 3)) == ()

    def test_naturals_clean(self):
        assert wilf_audit([mk(1)]) == ()

    def test_tree_levels_clean(self):
        members = []
        for lv in islice(bfs_levels(4), 6):
            members.extend(lv)
        assert wilf_audit(members) == ()

    def test_outcome_shape(self):
        out = min_genus(5, 3)
        assert isinstance(out, SearchOutcome)
        assert out.kind == "genus"
        assert (out.m, out.e) == (5, 3)
        assert min_frobenius(5, 3).kind == "frobenius"
        assert min_frobenius(5, 3).level is None
