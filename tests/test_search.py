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


# Nodes each tree search visits on the benchmark's pinned tree_frobenius and
# genus_levels cells with m <= 12 (plus min_frobenius(4, 3)).  The CLI reports
# them as `meta.nodes`, which the benchmark's CLI goldens hash, so they are
# pinned exactly.
GENUS_NODES = {
    (3, 3): 1,
    (4, 3): 4, (4, 4): 1,
    (5, 3): 12, (5, 4): 5, (5, 5): 1,
    (6, 3): 61, (6, 4): 17, (6, 5): 6, (6, 6): 1,
    (7, 3): 159, (7, 4): 51, (7, 5): 23, (7, 6): 7, (7, 7): 1,
    (8, 3): 673, (8, 4): 146, (8, 5): 74, (8, 6): 30, (8, 7): 8, (8, 8): 1,
    (9, 3): 3429, (9, 4): 408, (9, 5): 220, (9, 6): 104, (9, 7): 38, (9, 8): 9,
    (9, 9): 1,
    (10, 4): 1874, (10, 5): 628, (10, 6): 324, (10, 7): 142, (10, 8): 47,
    (10, 9): 10, (10, 10): 1,
    (11, 5): 1748, (11, 6): 952, (11, 7): 466, (11, 8): 189, (11, 9): 57,
    (11, 10): 11, (11, 11): 1,
    (12, 6): 2700, (12, 7): 1418, (12, 8): 655, (12, 9): 246, (12, 10): 68,
    (12, 11): 12, (12, 12): 1,
}
FROBENIUS_NODES = {
    (4, 3): 5,
    (5, 3): 16, (5, 4): 6, (5, 5): 1,
    (6, 3): 98, (6, 4): 21, (6, 5): 7, (6, 6): 1,
    (7, 3): 344, (7, 4): 64, (7, 5): 27, (7, 6): 8, (7, 7): 1,
    (8, 3): 1261, (8, 4): 175, (8, 5): 86, (8, 6): 34, (8, 7): 9, (8, 8): 1,
    (9, 4): 445, (9, 5): 192, (9, 6): 115, (9, 7): 42, (9, 8): 10, (9, 9): 1,
    (10, 5): 665, (10, 6): 285, (10, 7): 152, (10, 8): 51, (10, 9): 11,
    (10, 10): 1,
    (11, 5): 1924, (11, 6): 675, (11, 7): 415, (11, 8): 198, (11, 9): 61,
    (11, 10): 12, (11, 11): 1,
    (12, 7): 1061, (12, 8): 591, (12, 9): 254, (12, 10): 72, (12, 11): 13,
    (12, 12): 1,
}


def _cell_id(cell):
    return f"{cell[0]}-{cell[1]}"


def assert_constructed(minimizers):
    """Each returned minimizer equals a fresh construction on every field."""
    for T in minimizers:
        fresh = make_semigroup(T.min_gens)
        assert (T.min_gens, T.apery, T.frobenius, T.genus) == (
            fresh.min_gens, fresh.apery, fresh.frobenius, fresh.genus), T


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

    @pytest.mark.parametrize("cell", sorted(GENUS_NODES), ids=_cell_id)
    def test_node_stats(self, cell):
        stats = {}
        out = min_genus(*cell, stats=stats)
        assert stats["nodes"] == GENUS_NODES[cell]
        assert_constructed(out.minimizers)


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

    @pytest.mark.parametrize("cell", sorted(FROBENIUS_NODES), ids=_cell_id)
    def test_node_stats(self, cell):
        stats = {}
        out = min_frobenius(*cell, stats=stats)
        assert stats["nodes"] == FROBENIUS_NODES[cell]
        assert_constructed(out.minimizers)


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
