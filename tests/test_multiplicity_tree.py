"""Root, son rule, and level walks of the fixed-multiplicity tree."""
import json
from itertools import islice

import pytest

from semigroup_forge import cli, core
from semigroup_forge.core import make_semigroup
from semigroup_forge.errors import InvalidGenerator
from semigroup_forge.multiplicity_tree import _count_nodes, bfs_levels, root, sons
from semigroup_forge.oracle import enumerate_by_genus


def mk(*gens):
    return make_semigroup(gens)


LEVELS_M4 = [
    {mk(4, 5, 6, 7)},
    {mk(4, 6, 7, 9), mk(4, 5, 7), mk(4, 5, 6)},
    {mk(4, 7, 9, 10), mk(4, 6, 9, 11), mk(4, 6, 7), mk(4, 5, 11)},
    {
        mk(4, 9, 10, 11),
        mk(4, 7, 10, 13),
        mk(4, 7, 9),
        mk(4, 6, 11, 13),
        mk(4, 6, 9),
        mk(4, 5),
    },
]


class TestRoot:
    def test_examples(self):
        assert root(4) == mk(4, 5, 6, 7)
        assert root(1) == mk(1)
        assert root(6) == mk(6, 7, 8, 9, 10, 11)

    def test_root_generators_are_minimal(self):
        for m in range(1, 65):
            S, fresh = root(m), make_semigroup(range(m, 2 * m))
            assert S.min_gens == fresh.min_gens == tuple(range(m, 2 * m))
            assert S.entries == fresh.entries
            assert S.frobenius == fresh.frobenius == (m - 1 if m > 1 else -1)
            assert S.genus == fresh.genus == m - 1

    def test_nonpositive_multiplicity_is_refused(self):
        for m in (0, -3):
            with pytest.raises(InvalidGenerator, match=f"multiplicity {m} is not positive"):
                root(m)

    def test_largest_root_needs_no_kernel(self, monkeypatch, capsys):
        # The root is built in closed form, so the largest multiplicity the
        # CLI admits answers at once, without one residue-table pass.
        def refuse(*args):
            raise AssertionError("residue_table called")

        monkeypatch.setattr(core, "residue_table", refuse)
        m = cli.MAX_MULTIPLICITY
        S = root(m)
        assert S.min_gens == tuple(range(m, 2 * m))
        assert S.entries == (0, *range(m + 1, 2 * m))
        assert (S.frobenius, S.genus) == (m - 1, m - 1)
        for args, read in (
            (("min-genus", m, m), lambda r: r["value"]),
            (("min-frobenius", m, m), lambda r: r["value"]),
            (("tree", m, "--levels", "0"), lambda r: r["levels"][0]["genus"]),
        ):
            code = cli.main([str(a) for a in args] + ["--format", "json"])
            out = capsys.readouterr().out
            assert code == 0, args
            assert read(json.loads(out)["result"]) == m - 1, args


class TestSons:
    def test_root_of_four(self):
        assert set(sons(root(4))) == {mk(4, 6, 7, 9), mk(4, 5, 7), mk(4, 5, 6)}

    def test_leaf(self):
        assert sons(mk(4, 5)) == ()

    def test_single_son(self):
        assert sons(mk(4, 5, 7)) == (mk(4, 5, 11),)

    def test_naturals_have_no_sons(self):
        assert sons(mk(1)) == ()

    def test_son_is_parent_minus_one_element(self):
        for parent in (root(5), mk(5, 6, 8), mk(6, 9, 20)):
            for son in sons(parent):
                removed = [n for n in range(0, parent.frobenius + 2 * parent.multiplicity + 1)
                           if n in parent and n not in son]
                assert len(removed) == 1
                x = removed[0]
                assert x in parent.min_gens
                assert x > parent.frobenius
                assert x != parent.multiplicity


    def test_bound_keeps_exactly_the_sons_at_or_below_it(self):
        for m in range(2, 8):
            for lv in islice(bfs_levels(m), 5):
                for S in lv:
                    every = sons(S)
                    assert list(every) == sorted(every)
                    for bound in range(S.frobenius - 1, S.max_gen + 2):
                        kept = tuple(T for T in every if T.frobenius <= bound)
                        assert sons(S, bound) == kept, (S, bound)


class TestIncrementalSonRule:
    """The sons are built from the parent's Apery table, without a kernel."""

    FIELDS = ("min_gens", "entries", "frobenius", "genus", "embedding_dim",
              "max_gen", "multiplicity")

    def test_sons_match_a_fresh_construction(self):
        checked = 0
        for m in range(2, 13):
            for lv in islice(bfs_levels(m), 7):
                for parent in lv:
                    for son in sons(parent):
                        fresh = make_semigroup(son.min_gens)
                        for field in self.FIELDS:
                            assert getattr(son, field) == getattr(fresh, field), (
                                parent, son, field)
                        checked += 1
        # Every node on levels 1..7 of the trees m = 2..12 was compared.
        assert checked == 12157

    def test_counts_by_genus_match_oeis_a007323(self):
        a007323 = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001]
        top = len(a007323) - 1
        counts = [0] * (top + 1)
        for m in range(1, top + 2):
            for k, lv in enumerate(islice(bfs_levels(m), top - (m - 1) + 1)):
                counts[(m - 1) + k] += len(lv)
        assert counts == a007323


class TestLevels:
    def test_frozen_levels_multiplicity_four(self):
        levels = islice(bfs_levels(4), len(LEVELS_M4))
        for k, (lv, expected) in enumerate(zip(levels, LEVELS_M4)):
            assert set(lv) == expected
            assert all(S.genus == (4 - 1) + k for S in lv)
            assert lv == tuple(sorted(expected))

    def test_levels_come_out_sorted(self):
        # No walk sorts a level: the tree builds each one in order.
        for m in range(1, 13):
            for lv in islice(bfs_levels(m), 9):
                assert list(lv) == sorted(lv)

    def test_stream_matches_level(self):
        stream = list(islice(bfs_levels(4), 4))
        assert [set(lv) for lv in stream] == LEVELS_M4

    def test_node_count_sums_the_levels(self):
        # The depth-first count builds no level k; it must still count it.
        for m in range(1, 11):
            lengths = [len(lv) for lv in islice(bfs_levels(m), 9)]
            for k in range(len(lengths)):
                assert _count_nodes(m, k) == sum(lengths[: k + 1]), (m, k)

    def test_multiplicity_one_dries_up(self):
        first, second = islice(bfs_levels(1), 2)
        assert list(first) == [mk(1)]
        assert list(second) == []

    def test_genus_constant_on_level(self):
        for m in (3, 5):
            for k, lv in enumerate(islice(bfs_levels(m), 5)):
                for S in lv:
                    assert S.multiplicity == m
                    assert S.genus == (m - 1) + k


class TestEdgeInvariants:
    def test_son_edges(self):
        for m in range(2, 8):
            for lv in islice(bfs_levels(m), 6):
                for parent in lv:
                    for son in sons(parent):
                        assert son.genus == parent.genus + 1
                        assert son.frobenius > parent.frobenius
                        assert son.embedding_dim <= parent.embedding_dim

    def test_no_duplicates_across_levels(self):
        seen = set()
        for lv in islice(bfs_levels(5), 6):
            members = set(lv)
            assert len(members) == len(lv)
            assert not (members & seen)
            seen |= members


class TestExhaustiveness:
    def test_levels_match_oracle_slices(self):
        for m in range(2, 7):
            by_genus = enumerate_by_genus(m, (m - 1) + 5)
            for k, lv in enumerate(islice(bfs_levels(m), 6)):
                expected = {S for S in by_genus if S.genus == (m - 1) + k}
                assert set(lv) == expected, (m, k)

    def test_union_of_levels_is_complete(self):
        for m in range(2, 7):
            bound = m + 5
            collected = set()
            for lv in islice(bfs_levels(m), bound - (m - 1) + 1):
                collected |= set(lv)
            assert collected == enumerate_by_genus(m, bound)
