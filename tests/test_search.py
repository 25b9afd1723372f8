"""Minimization procedures, route agreement, and the Wilf audit."""
import json
from itertools import islice
from math import comb
from pathlib import Path

import pytest

from semigroup_forge.core import (
    Existence,
    NumericalSemigroup,
    existence,
    genus_lower_bound,
    interval_apery,
    interval_frobenius,
    interval_genus,
    make_semigroup,
)
from semigroup_forge.errors import BadDimension
import semigroup_forge.multiplicity_tree as tree_module
from semigroup_forge.multiplicity_tree import _count_nodes, bfs_levels, root, sons
from semigroup_forge.oracle import enumerate_by_genus, sieve
from semigroup_forge.packed import class_min_frobenius, enumerate_packed
from semigroup_forge.search import (
    SearchOutcome,
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
# min_genus on cells past the benchmark's caps, where the last level holds
# most of the nodes: (value, number of minimizers, nodes).
LAST_LEVEL_GENUS = {(16, 6): (25, 2, 143642), (18, 10): (25, 6762, 116938)}
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


def level_walk(m, e):
    """Levels 0..k of the multiplicity-m tree, k the first with dimension e."""
    levels = []
    for lv in bfs_levels(m):
        levels.append(lv)
        if any(S.embedding_dim == e for S in lv):
            return levels


def count_sons(monkeypatch):
    """Record the number of sons each call of the tree's `_sons` builds."""
    built = []
    real = tree_module._sons

    def counted(*args):
        out = real(*args)
        built.append(len(out))
        return out

    monkeypatch.setattr(tree_module, "_sons", counted)
    return built


def assert_constructed(minimizers):
    """Each returned minimizer equals a fresh construction on every field."""
    for T in minimizers:
        fresh = make_semigroup(T.min_gens)
        assert (T.min_gens, T.entries, T.frobenius, T.genus) == (
            fresh.min_gens, fresh.entries, fresh.frobenius, fresh.genus), T


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
        # The minimizers sit at tree level value - (m-1).
        level = out.value - (5 - 1)
        assert level == 2
        assert set(out.minimizers) <= set(next(islice(bfs_levels(5), level, None)))

    def test_six_three(self):
        out = min_genus(6, 3)
        assert out.value == 9
        assert out.minimizers == (mk(6, 7, 8), mk(6, 7, 9), mk(6, 7, 10))

    def test_full_dimension(self):
        for m in range(2, 9):
            out = min_genus(m, m)
            assert out.value == m - 1
            assert out.minimizers == (root(m),)
            assert out.value - (m - 1) == 0

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

    @pytest.mark.parametrize("cell", sorted(LAST_LEVEL_GENUS), ids=_cell_id)
    def test_last_level_count(self, cell):
        stats = {}
        out = min_genus(*cell, stats=stats)
        assert (out.value, len(out.minimizers), stats["nodes"]) == LAST_LEVEL_GENUS[cell]

    def test_node_count_reproduces_the_pins(self):
        # `stats["nodes"]` comes from the depth-first count, not the walk.
        for (m, e), nodes in GENUS_NODES.items():
            assert _count_nodes(m, min_genus(m, e).value - (m - 1)) == nodes, (m, e)
        for (m, _), (value, _, nodes) in LAST_LEVEL_GENUS.items():
            assert _count_nodes(m, value - (m - 1)) == nodes, m

    # Sons the walk builds without `stats`, pinned exactly.  The deficit and
    # permanent-generator cuts took them from 33,957 and 521,647 to 7,270
    # and 120,783; the son rule then stopped building the sons the
    # permanent-generator cut drops.
    @pytest.mark.parametrize(
        "cell, pinned", [((14, 5), 1759), ((20, 10), 62582)], ids=["14-5", "20-10"]
    )
    def test_sons_built_are_pinned(self, cell, pinned, monkeypatch):
        built = count_sons(monkeypatch)
        min_genus(*cell)
        assert sum(built) == pinned

    @pytest.mark.parametrize(
        "cell", [c for c in sorted(GENUS_NODES) if 3 <= c[1] and c[0] <= 11], ids=_cell_id
    )
    def test_matches_the_level_walk(self, cell, monkeypatch):
        m, e = cell
        levels = level_walk(m, e)
        hits = tuple(S for S in levels[-1] if S.embedding_dim == e)
        stats = {}
        out = min_genus(m, e, stats=stats)
        assert out.value == (m - 1) + len(levels) - 1
        assert out.minimizers == hits
        assert [T.entries for T in out.minimizers] == [T.entries for T in hits]
        assert stats["nodes"] == sum(map(len, levels))
        # Without `stats` only the walk runs.  It builds the hit level only
        # from the dimension-(e+1) nodes above it, and its cuts drop nodes,
        # so it builds at most the levels above the hits and those near sons.
        # `sons` calls `_sons` too, so the near sons are counted first.
        before = levels[-2] if len(levels) > 1 else ()
        near = sum(len(sons(S)) for S in before if S.embedding_dim == e + 1)
        built = count_sons(monkeypatch)
        assert min_genus(m, e) == out
        assert sum(built) <= sum(map(len, levels[1:-1])) + near


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
        # The pruning bound is m*m-m-1 here, which admits the whole tree;
        # the son rule builds only the sons that can still reach dimension
        # 2 within it, so the tree route is cheap for these m too.
        for m in range(2, 14):
            out = min_frobenius(m, 2)
            assert out.value == m * m - m - 1
            assert out.minimizers == (mk(m, m + 1),)
        for m in range(8, 14):
            assert min_frobenius_value_packed(m, 2) == m * m - m - 1

    def test_full_dimension(self):
        # The root is the only node visited: no son keeps dimension m.
        for m in range(2, 65):
            stats = {}
            out = min_frobenius(m, m, stats=stats)
            assert out.value == m - 1
            assert out.minimizers == (root(m),)
            assert stats["nodes"] == 1

    @pytest.mark.parametrize("cell", sorted(FROBENIUS_NODES), ids=_cell_id)
    def test_node_stats(self, cell):
        stats = {}
        out = min_frobenius(*cell, stats=stats)
        assert stats["nodes"] == FROBENIUS_NODES[cell]
        assert_constructed(out.minimizers)

    # Sons the walk builds without `stats`, pinned exactly: it builds only
    # the sons that can still reach dimension e within the bound, where it
    # built 1,260 and 1,923, every son within the bound.
    @pytest.mark.parametrize(
        "cell, pinned", [((8, 3), 144), ((11, 5), 462)], ids=["8-3", "11-5"]
    )
    def test_sons_built_are_pinned(self, cell, pinned, monkeypatch):
        built = count_sons(monkeypatch)
        min_frobenius(*cell)
        assert sum(built) == pinned


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
        for m in range(2, 15):
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


PACKED_CELLS = [(m, e) for m in range(3, 13) for e in range(2, m + 1)]
PACKED_GOLDENS = (
    Path(__file__).resolve().parent.parent / "perfbench" / "goldens" / "packed_classes.json"
)


def family_minimizers(m, e, attr):
    """Members of enumerate_packed(m, e) with the least `attr`, in family order."""
    family = enumerate_packed(m, e).members
    best = min(getattr(S, attr) for S in family)
    return best, tuple(S for S in family if getattr(S, attr) == best)


class TestPackedLeafRoutes:
    """The packed searches scan bare leaves; they must match the wrapped family."""

    @pytest.mark.parametrize("cell", PACKED_CELLS, ids=_cell_id)
    def test_match_the_wrapped_family(self, cell):
        m, e = cell
        best_g, genus_hits = family_minimizers(m, e, "genus")
        out = min_genus_packed(m, e)
        # Values compare by min_gens, so tuple equality pins the order too.
        assert (out.value, out.value - (m - 1), out.minimizers) == (
            best_g, best_g - (m - 1), genus_hits)
        assert_constructed(out.minimizers)

        best_f, heads = family_minimizers(m, e, "frobenius")
        assert min_frobenius_value_packed(m, e) == best_f
        full = min_frobenius_full_set(m, e)
        expected = tuple(sorted(T for S in heads for T in class_min_frobenius(S)))
        assert (full.value, full.minimizers) == (best_f, expected)
        assert_constructed(full.minimizers)

    def test_goldens_of_the_packed_benchmark(self):
        # Every pinned packed_classes query, answered through the package.
        with open(PACKED_GOLDENS, encoding="utf-8") as fh:
            pool = json.load(fh)["pool"]
        ops = {"min_genus_packed": min_genus_packed, "min_frobenius_full_set": min_frobenius_full_set}
        assert len(pool) == 270
        for q in pool:
            if q["op"] == "min_frobenius_value_packed":
                assert {"value": min_frobenius_value_packed(*q["args"])} == q["expect"], q["id"]
                continue
            if q["op"] == "class_min_frobenius":
                members = class_min_frobenius(make_semigroup(q["args"][0]))
                value = members[0].frobenius
            else:
                out = ops[q["op"]](*q["args"])
                members, value = out.minimizers, out.value
            got = {
                "value": value,
                "count": len(members),
                "min_gens": [list(S.min_gens) for S in members],
            }
            assert got == q["expect"], q["id"]


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
        for m in range(2, 31):
            for e in range(2, m + 1):
                if comb(m - 1, e - 1) > 3000:
                    continue
                assert min_genus_packed(m, e).value <= interval_genus(m, e)
                assert min_frobenius_value_packed(m, e) <= interval_frobenius(m, e)


class TestGenusLowerBound:
    def test_below_every_packed_minimum(self):
        for m in range(2, 19):
            for e in range(2, m + 1):
                if comb(m - 1, e - 1) <= 50_000:
                    assert genus_lower_bound(m, e) <= min_genus_packed(m, e).value, (m, e)

    # Equal on most cells; 1-3 below on the others, such as (6,3) and (16,3).
    PINNED = {
        (6, 3): (8, 9),
        (16, 3): (45, 48),
        (8, 3): (14, 14),
        (12, 5): (18, 18),
        (18, 9): (26, 26),
    }

    @pytest.mark.parametrize("cell", sorted(PINNED), ids=_cell_id)
    def test_pinned_cells(self, cell):
        assert (genus_lower_bound(*cell), min_genus_packed(*cell).value) == self.PINNED[cell]

    @pytest.mark.parametrize("m", [3, 7, 12])
    def test_edge_rows(self, m):
        # e = m: the root alone, every member of [m, 2m-1] a generator.
        top = min_genus_packed(m, m)
        assert genus_lower_bound(m, m) == top.value == m - 1
        assert min_frobenius_value_packed(m, m) == m - 1
        assert top.minimizers == min_frobenius_full_set(m, m).minimizers == (root(m),)
        # e = 2: <m, m+1> is the one minimizer of both.
        genus, frobenius = min_genus_packed(m, 2), min_frobenius_full_set(m, 2)
        assert genus_lower_bound(m, 2) == genus.value == m * (m - 1) // 2
        assert frobenius.value == m * m - m - 1
        assert genus.minimizers == frobenius.minimizers == (mk(m, m + 1),)


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

    def test_violation_reported(self):
        # A corrupted table: e = 3, g = 5, F = 6, so 3*5 > 2*7.
        S = NumericalSemigroup((4, 5, 7), (0, 9, 10, 7))
        (v,) = wilf_audit([S])
        assert (v.semigroup, v.lhs, v.rhs) == (S, 15, 14)

    def test_dimension_three_levels_clean(self):
        members = [S for lv in islice(bfs_levels(5), 5) for S in lv]
        audited = [S for S in members if S.embedding_dim == 3]
        assert audited
        assert wilf_audit(audited) == ()

    def test_outcome_shape(self):
        out = min_genus(5, 3)
        assert isinstance(out, SearchOutcome)
        assert isinstance(min_frobenius(5, 3), SearchOutcome)
        assert SearchOutcome._fields == ("value", "minimizers")
        assert not hasattr(out, "__dict__")
