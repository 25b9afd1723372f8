"""Packed families, the packing map, and class-tree search."""
import hashlib
import random
from functools import lru_cache
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semigroup_forge import packed
from semigroup_forge._backend import SENTINEL, relax, residue_table
from semigroup_forge.core import (
    NumericalSemigroup,
    interval_apery,
    make_semigroup,
    monoid_contains,
)
from semigroup_forge.errors import (
    BadDimension,
    Degenerate,
    InvalidGenerator,
    NotNumerical,
    NotPacked,
)
from semigroup_forge.multiplicity_tree import bfs_levels, root
from semigroup_forge.packed import (
    _MASK_BITS,
    _SWEEP_PAYS,
    _bound_and_slack,
    _close,
    _frame,
    _least_sum,
    _leaves,
    _lower,
    _minimizers,
    _slots,
    _table,
    class_min_frobenius,
    class_sons,
    enumerate_packed,
    is_packed,
    pack,
)
from semigroup_forge.search import min_frobenius_full_set, min_genus_packed


def mk(*gens):
    return make_semigroup(gens)


def count_tests(monkeypatch):
    """Wrap `packed.relax` and `packed._close`, the two forms of a cap test.

    The returned list gets each `relax` call's result and None for each
    `_close` call, so a cut that moves shows whichever form the walk uses.
    """
    relax, close = packed.relax, packed._close
    finished = []

    def relaxed(*args):
        done = relax(*args)
        finished.append(done)
        return done

    def closed(*args):
        finished.append(None)
        return close(*args)

    monkeypatch.setattr(packed, "relax", relaxed)
    monkeypatch.setattr(packed, "_close", closed)
    return finished


def ones(cap):
    """The cap's bit mask: bits 0 to cap all set."""
    return (1 << cap + 1) - 1


def mask(gens, cap):
    """The member mask up to cap of the monoid spanned by gens, one `_close` per generator."""
    x = 1
    for g in gens:
        x = _close(x, g, ones(cap))
    return x


def reads(x, m, cap):
    """The keys read off a closed mask: {max: F + m, sum: m per clear bit plus m(m-1)/2}."""
    return {
        max: (x ^ ones(cap)).bit_length() - 1 + m,
        sum: m * (cap + 1 - x.bit_count()) + m * (m - 1) // 2,
    }


def records(m, e, key):
    """The `_leaves` records with each table, where a leaf comes with its mask, read off it."""
    return [(gens, w if type(w) is list else _table(w, m), k) for gens, w, k in _leaves(m, e, key)]


def suffix_table(m, prefix, a):
    """U_a: the table of the prefix's generators and every m+r, r >= a."""
    return residue_table(m, [m + r for r in (*prefix, *range(a, m))])


def random_semigroups(count, seed, top=120):
    """Seeded correction-free corpus: random generator sets, gcd 1, e >= 2."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = rng.sample(range(2, top + 1), rng.randint(2, 5))
        try:
            S = make_semigroup(gens)
        except NotNumerical:
            continue
        if S.embedding_dim >= 2:
            out.append(S)
    return out


class TestEnumeratePacked:
    def test_six_three(self):
        family = enumerate_packed(6, 3)
        assert [S.min_gens for S in family] == [
            (6, 7, 8),
            (6, 7, 9),
            (6, 7, 10),
            (6, 7, 11),
            (6, 8, 9),
            (6, 8, 11),
            (6, 9, 10),
            (6, 9, 11),
            (6, 10, 11),
        ]
        assert [S.genus for S in family] == [9, 9, 9, 10, 10, 11, 12, 13, 13]

    def test_six_five(self):
        family = enumerate_packed(6, 5)
        assert [S.min_gens for S in family] == [
            (6, 7, 8, 9, 10),
            (6, 7, 8, 9, 11),
            (6, 7, 8, 10, 11),
            (6, 7, 9, 10, 11),
            (6, 8, 9, 10, 11),
        ]
        assert [S.frobenius for S in family] == [11, 10, 9, 8, 13]

    def test_full_dimension_is_root_only(self):
        for m in (2, 4, 7):
            assert list(enumerate_packed(m, m)) == [root(m)]

    def test_counts_match_subset_census(self):
        from itertools import combinations

        for m in range(2, 9):
            for e in range(2, m + 1):
                expected = sum(
                    1
                    for A in combinations(range(1, m), e - 1)
                    if gcd(m, *A) == 1
                )
                family = enumerate_packed(m, e)
                assert len(family) == expected <= comb(m - 1, e - 1)

    def test_deep_walk_does_not_recurse(self):
        # The prefix walk is e-1 steps deep.
        assert enumerate_packed(1100, 1100).members == (root(1100),)

    @pytest.mark.parametrize("key", [sum, max], ids=["genus", "frobenius"])
    def test_deep_keyed_walk_does_not_recurse(self, key):
        # The branch-and-bound keeps one frame per prefix, e-1 of them.
        assert _minimizers(1100, 1100, key) == (root(1100),)

    def test_members_match_construction(self):
        # Equality compares min_gens only; the table, F and g are
        # built by the prefix walk, so compare them too.
        for m in range(2, 13):
            for e in range(2, m + 1):
                for S in enumerate_packed(m, e):
                    T = make_semigroup(S.min_gens)
                    assert (S.min_gens, S.entries, S.frobenius, S.genus) == (
                        T.min_gens, T.entries, T.frobenius, T.genus
                    ), (m, e)

    def test_members_are_packed_with_exact_dimensions(self):
        for S in enumerate_packed(7, 4):
            assert is_packed(S)
            assert S.multiplicity == 7
            assert S.embedding_dim == 4

    def test_members_come_in_sorted_order(self):
        # The CLI prints the family in enumeration order.
        for m in range(2, 11):
            for e in range(2, m + 1):
                members = list(enumerate_packed(m, e))
                assert members == sorted(members), (m, e)

    def test_family_is_the_tuple_of_its_leaves(self):
        # `perfbench/make_goldens.py` reads `.members`; `perfbench/spans.py` counts `len`.
        for m, e in ((6, 3), (9, 4), (12, 5), (12, 12)):
            family = enumerate_packed(m, e)
            want = tuple(NumericalSemigroup(gens, tuple(w)) for gens, w, _ in _leaves(m, e))
            assert isinstance(family, tuple)
            assert family.members == family == want
            assert [fields(S) for S in family.members] == [fields(S) for S in want]

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            enumerate_packed(3, 4)
        with pytest.raises(BadDimension):
            enumerate_packed(5, 1)


class TestBranchAndBound:
    """`_minimizers` prunes the family walk; it must keep the full scan's answer."""

    @pytest.mark.parametrize("key", [sum, max], ids=["genus", "frobenius"])
    def test_matches_the_full_family(self, key):
        attr = "genus" if key is sum else "frobenius"
        for m in range(2, 15):
            for e in range(2, m + 1):
                family = enumerate_packed(m, e).members
                best = min(getattr(S, attr) for S in family)
                want = [fields(S) for S in family if getattr(S, attr) == best]
                assert [fields(S) for S in _minimizers(m, e, key)] == want, (m, e)

    @pytest.mark.parametrize("key", [sum, max], ids=["genus", "frobenius"])
    def test_prunes_most_of_the_family(self, key, monkeypatch):
        # A full scan relaxes at least once per leaf, of C(23, 7) = 245,157,
        # and finishes every sweep; most leaves reached lose before their
        # table is finished, by a mask (`_close`) or a stopped `relax`.
        finished = count_tests(monkeypatch)
        assert len(_minimizers(24, 8, key)) == 52
        assert len(finished) < comb(23, 7) // 20
        assert finished.count(True) < len(finished) // 2

    @pytest.mark.parametrize(
        "m, e, key, calls",
        [
            pytest.param(24, 8, sum, 10902, id="24-8-sum"),
            pytest.param(24, 8, max, 20027, id="24-8-max"),
            pytest.param(20, 10, sum, 45890, id="20-10-sum"),
            pytest.param(20, 10, max, 10102, id="20-10-max"),
            pytest.param(36, 6, sum, 4179, id="36-6-sum"),
            pytest.param(36, 6, max, 15877, id="36-6-max"),
            pytest.param(44, 5, sum, 2039, id="44-5-sum"),
            pytest.param(14, 7, None, 3001, id="14-7-none"),
        ],
    )
    def test_cuts_are_pinned(self, m, e, key, calls, monkeypatch):
        """The walk's exact `relax` calls with masks off: every cut decision shows here.

        The other tests bound these counts from above only, so a cut that
        moves while staying under them would go unseen.  A change that
        moves a cut re-pins this table and gives the reason in CHANGES.md.
        With no key the walk visits every member (`enumerate_packed`).
        Every cap here is narrow enough for masks, so with `_MASK_BITS` at 0
        this pins the table path that wider caps take, where no prefix
        sweeps and the counting cuts alone end the loops, and
        `test_mask_tests_are_pinned` pins the same walks with masks.
        The ids carry no count, so a re-pin keeps them.
        """
        monkeypatch.setattr(packed, "_MASK_BITS", 0)
        finished = count_tests(monkeypatch)
        if key is None:
            assert len(enumerate_packed(m, e)) == 1715
        else:
            _minimizers(m, e, key)
        assert len(finished) == calls

    @pytest.mark.parametrize(
        "m, e, key, relaxed, closed",
        [
            pytest.param(24, 8, sum, 0, 7373, id="24-8-sum"),
            pytest.param(24, 8, max, 0, 6592, id="24-8-max"),
            pytest.param(20, 10, sum, 0, 25088, id="20-10-sum"),
            pytest.param(20, 10, max, 0, 14260, id="20-10-max"),
            pytest.param(36, 6, sum, 0, 25221, id="36-6-sum"),
            pytest.param(36, 6, max, 0, 58535, id="36-6-max"),
            pytest.param(44, 5, sum, 6, 12252, id="44-5-sum"),
        ],
    )
    def test_mask_tests_are_pinned(self, m, e, key, relaxed, closed, monkeypatch):
        """The walks of `test_cuts_are_pinned` with masks: exact `relax` and `_close` calls.

        Each frame closes its parent's mask once, and each new incumbent
        recloses the mask of every prefix on the stack, one `_close` per
        generator.  A leaf closes its prefix's mask, and one whose key read
        is within the incumbent reads its table off that mask.  A sweeping
        frame closes its U_r mask once per residue it sweeps, under either
        key.  So while masks run no table is relaxed: every walk here but
        one starts below the width and relaxes none.  The genus walk at
        (44, 5) starts with a cap of 6,071 bits, and its 6 relaxes belong
        to the frames and leaves met before the cap fell below the width.
        Below the width no leaf-level counting cut runs, so every leaf left
        by the interior cuts closes a mask.  At (36, 6) under `sum` a
        sweeping prefix whose least-sum cut leaves no child must start no
        sweep (26,565 `_close` calls when it sweeps anyway).
        The ids carry no count, so a re-pin keeps them; it still gives its
        reason in CHANGES.md.
        """
        finished = count_tests(monkeypatch)
        _minimizers(m, e, key)
        assert (finished.count(True), finished.count(None)) == (relaxed, closed)
        assert False not in finished

    @pytest.mark.parametrize(
        "m, e, key, counts",
        [
            pytest.param(150, 4, sum, (4955, 0, 0), id="150-4-sum"),
            pytest.param(150, 4, max, (7, 0, 180959), id="150-4-max"),
            pytest.param(400, 3, sum, (895, 0, 0), id="400-3-sum"),
            pytest.param(400, 3, max, (143, 9928, 0), id="400-3-max"),
        ],
    )
    def test_wide_tables_are_pinned(self, m, e, key, counts, monkeypatch):
        """Walks whose caps start at `_MASK_BITS` or more: finished, stopped and `_close` calls.

        A frame made while the cap is wide holds its table and builds no
        U_r, so no sweep relaxes; its children and leaves relax tables, and
        its loop ends at its counts.  The genus caps here stay wide, and the
        Frobenius caps fall below the width partway, after which masks run.
        A wide frame that swept on tables would finish 7,363, 65, 1,263 and
        166 tables here.
        """
        finished = count_tests(monkeypatch)
        _minimizers(m, e, key)
        assert (finished.count(True), finished.count(False), finished.count(None)) == counts
        q, table = e - 1, residue_table(m, ())
        assert comb(m - 1, q) >= _SWEEP_PAYS * (m - 1)
        cap = key(interval_apery(m, e)) - _bound_and_slack(m, e, key)[1]
        assert cap >= _MASK_BITS
        assert _frame((m,), table, m, e, key, 0) == [(m,), table, m + 1 - q, SENTINEL, None, 0, m]

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_prefix_bounds_stay_below_their_leaves(self, data):
        m = data.draw(st.integers(3, 11), label="m")
        e = data.draw(st.integers(2, m), label="e")
        j = data.draw(st.integers(0, e - 2), label="prefix length")
        prefix = sorted(data.draw(st.sets(st.integers(1, m - 1), min_size=j, max_size=j)))
        first = prefix[-1] + 1 if prefix else 1
        for key in (sum, max):
            bound, slack = _bound_and_slack(m, e, key)
            # bound(U_a) for a = first..m-1, U_a built anew from every m+r, r >= a.
            bounds = [bound(suffix_table(m, prefix, a)) for a in range(first, m)]
            assert bounds == sorted(bounds)
            for a, b in zip(range(first, m), bounds):
                for rest in combinations(range(a + 1, m), e - 2 - j):
                    residues = (*prefix, a, *rest)
                    if gcd(m, *residues) != 1:
                        continue
                    leaf = residue_table(m, [m + r for r in residues])
                    assert b <= key(leaf), (residues, key)
                    if key is sum:
                        # The other nonzero entries add at least the slack,
                        # so a leaf entry above best - slack loses.
                        assert sum(leaf) - max(leaf) >= slack, residues
                    else:
                        assert slack == 0

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_lowered_loop_ends_match_the_eager_ones(self, data):
        # A sweeping frame lowers its loop end as the incumbent falls; after
        # each step it must end where bounds and least sums built anew do.
        m = data.draw(st.integers(4, 11), label="m")
        e = data.draw(st.integers(3, m), label="e")
        j = data.draw(st.integers(0, e - 3), label="prefix length")
        # Position i of a prefix goes up to m - e + 1 + i.
        prefixes = list(combinations(range(1, m - e + j + 1), j))
        prefix = data.draw(st.sampled_from(prefixes), label="prefix")
        first, last, q = (prefix[-1] + 1 if prefix else 1), m - e + 1 + j, e - 1 - j
        key = data.draw(st.sampled_from([sum, max]), label="key")
        bound, slack = _bound_and_slack(m, e, key)
        gens = (m, *(m + r for r in prefix))
        table = residue_table(m, gens[1:])
        bounds = [bound(suffix_table(m, prefix, a)) for a in range(first, last + 1)]
        # Every incumbent of the walk is the key of a member, and the last is the least.
        least = min(key(S.entries) for S in enumerate_packed(m, e))
        worst = key(interval_apery(m, e))
        run = data.draw(st.lists(st.integers(least, worst), max_size=5), label="bests")
        # The frame as `_frame` documents it, before its first end is set:
        # one made while masks run holds the prefix's mask s and sweeps from
        # U_m = s; one made while the cap was wide holds its table and
        # builds no U_r, so it ends at its least sums alone.  `_frame`
        # builds it when the prefix passes `_SWEEP_PAYS`, and copies nothing.
        cap = worst - slack
        assert cap < _MASK_BITS
        sweeps = data.draw(st.booleans(), label="masks")
        s = mask(gens, cap) if sweeps else table
        u, ub = (s, SENTINEL) if sweeps else (None, 0)
        f, a = [gens, s, last + 1, SENTINEL, u, ub, m], first
        n = m - first
        if comb(n, q) >= _SWEEP_PAYS * n:
            with pytest.MonkeyPatch.context() as patch:
                finished = count_tests(patch)
                assert _frame(gens, s, m, e, key, ones(cap) if sweeps else 0) == f
            assert finished == []
        for best in sorted({*run, least}, reverse=True):
            _lower(f, a, best, m, e, key, bound, slack, ones(best - slack) if sweeps else 0)
            over = [b for b, u in zip(range(first, last + 1), bounds) if sweeps and u > best]
            if key is sum:
                cap = best - slack
                within = [*sorted(x for x in table if x <= cap), SENTINEL]
                # The least sums by a linear scan over every child.
                over += [
                    b for b in range(first, last + 1) if _least_sum(within, m + b, q, m, cap) > best
                ]
            end = min(over, default=last + 1)
            # The children before a were met already, so the loop ends no earlier.
            assert f[2] == max(a, end), (best, a)
            if f[2] == a:
                break
            a = data.draw(st.integers(a, f[2] - 1), label="next child")

    @staticmethod
    def check_leaf_level_end(data, key):
        """A keyed leaf-level frame ends where a linear scan of its count does.

        Made with `full` 0, as at a wide cap, the frame holds its table and
        `_lower` ends its loop at the first child whose count fails: the
        least sum past `best` under `sum`, fewer than m slots under the cap
        under `max`.  Neither `_frame` nor `_lower` tests a table for it.
        Once the cap narrows the frame holds the prefix's mask in place of
        its table, and the same count read off the mask, with `full` the
        cap's mask, ends it at the same child.  Made with that `full`,
        masks test its leaves, and `_frame` gives a frame whose end never
        moves (seen is -1), holding the prefix's mask.
        """
        m = data.draw(st.integers(3, 14), label="m")
        prefix = sorted(data.draw(st.sets(st.integers(1, m - 2), max_size=4), label="prefix"))
        e, first = len(prefix) + 2, (prefix[-1] + 1 if prefix else 1)
        bound, slack = _bound_and_slack(m, e, key)
        gens = (m, *(m + r for r in prefix))
        table = residue_table(m, gens[1:])
        least = min(key(S.entries) for S in enumerate_packed(m, e))
        best = data.draw(st.integers(least, key(interval_apery(m, e))), label="best")
        cap = best - slack
        assert cap < _MASK_BITS
        x = mask(gens, cap)
        assert _frame(gens, x, m, e, key, ones(cap)) == [gens, x, m, -1, None, 0, m]
        if key is sum:
            within = [*sorted(v for v in table if v <= cap), SENTINEL]
            over = [b for b in range(first, m) if _least_sum(within, m + b, 1, m, cap) > best]
        else:
            over = [b for b in range(first, m) if _slots(table, m + b, 1, m, cap, 0) < m]
        for s in (table, x):
            with pytest.MonkeyPatch.context() as patch:
                finished = count_tests(patch)
                f = _frame(gens, table, m, e, key, 0)
                assert f == [gens, table, m, SENTINEL, None, 0, m]
                f[1] = s  # the mask a new incumbent writes over the table
                _lower(f, first, best, m, e, key, bound, slack, ones(cap) if s is x else 0)
            assert finished == []
            assert f == [gens, s, min(over, default=m), best, None, 0, m], prefix

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def test_leaf_level_genus_frames_end_at_their_least_sums(self, data):
        self.check_leaf_level_end(data, sum)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def test_leaf_level_frobenius_frames_end_at_their_slot_count(self, data):
        self.check_leaf_level_end(data, max)

    @pytest.mark.parametrize("key", [None, sum, max], ids=["none", "genus", "frobenius"])
    def test_frames_off_every_gate_never_move(self, key):
        # At (12, 5): the C(8, 2) = 28 residue pairs above ⟨12,13,15⟩ are
        # fewer than `_SWEEP_PAYS` * 8, so it does not sweep.  A leaf-level
        # prefix bounds its loop only with a key and a cap of `_MASK_BITS`
        # or more, and every cap at (12, 5) is narrower, so neither
        # ⟨12,13,14,17⟩ (6 children) nor ⟨12,13,14,15⟩ (8) does.
        m, e = 12, 5
        bound, slack = _bound_and_slack(m, e, key)
        cap = SENTINEL if key is None else key(interval_apery(m, e)) - slack
        # Each frame holds what the walk gives it: a table with no key, the
        # prefix's mask at these caps with one.
        for gens, end in (((12, 13, 15), 11), ((12, 13, 14, 17), 12), ((12, 13, 14, 15), 12)):
            s = residue_table(m, gens[1:]) if key is None else mask(gens, cap)
            full = 0 if key is None else ones(cap)
            assert _frame(gens, s, m, e, key, full) == [gens, s, end, -1, None, 0, m]

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_slot_counts_hold_for_their_leaves(self, data):
        m = data.draw(st.integers(3, 11), label="m")
        e = data.draw(st.integers(2, m), label="e")
        j = data.draw(st.integers(0, e - 2), label="prefix length")
        prefix = sorted(data.draw(st.sets(st.integers(1, m - 2), min_size=j, max_size=j)))
        first = prefix[-1] + 1 if prefix else 1
        a = data.draw(st.integers(first, m - 1), label="child")
        cap = data.draw(st.integers(m, m * m), label="cap")
        table = residue_table(m, [m + r for r in prefix])
        q = e - 1 - j  # generators still to come, the child's included
        slots = [_slots(table, m + b, q, m, cap, 0) for b in range(first, m)]
        assert slots == sorted(slots, reverse=True)
        for rest in combinations(range(a + 1, m), e - 2 - j):
            residues = (*prefix, a, *rest)
            if gcd(m, *residues) != 1:
                continue
            leaf = residue_table(m, [m + r for r in residues])
            # All m entries of a leaf fit under its own largest one.
            assert _slots(table, m + a, q, m, max(leaf), 0) >= m, residues
            if max(leaf) <= cap:
                assert slots[a - first] >= m, (residues, cap)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_slot_count_and_least_sum_agree_on_fitting(self, data):
        # Both counts draw on the values t[i] + k*g within the cap, each
        # C(q-1+k, k) times, so m of them fit iff the least sum is finite.
        m = data.draw(st.integers(3, 14), label="m")
        e = data.draw(st.integers(2, m), label="e")
        j = data.draw(st.integers(0, e - 2), label="prefix length")
        prefix = sorted(data.draw(st.sets(st.integers(1, m - 2), min_size=j, max_size=j)))
        first = prefix[-1] + 1 if prefix else 1
        g = m + data.draw(st.integers(first, m - 1), label="child")
        cap = data.draw(st.integers(0, m * m), label="cap")
        table = residue_table(m, [m + r for r in prefix])
        q = e - 1 - j  # generators still to come, the child's included
        v = [*sorted(x for x in table if x <= cap), SENTINEL]
        fits = _slots(table, g, q, m, cap, 0) >= m
        assert fits == (_least_sum(v, g, q, m, cap) != SENTINEL), (prefix, g, cap)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_slot_bands_match_the_comb_sum(self, data):
        # While masks run `_slots` counts the entries within the cap off the
        # prefix's mask, band by band; the sum over the table is the reference.
        m = data.draw(st.integers(2, 24), label="m")
        j = data.draw(st.integers(0, m - 1), label="prefix length")
        prefix = sorted(data.draw(st.permutations(range(1, m)), label="residues")[:j])
        g = data.draw(st.integers(m + 1, 2 * m - 1), label="g")
        q = data.draw(st.integers(1, m), label="q")
        cap = data.draw(st.integers(0, 4 * m * m), label="cap")
        gens = (m, *(m + r for r in prefix))
        table = residue_table(m, gens[1:])
        x = mask(gens, cap)
        y = x & ~(x << m)
        # A member whose predecessor by m is none is its class's entry.
        assert y == sum(1 << v for v in table if v <= cap)
        reference = sum(comb(q + (cap - v) // g, q) for v in table if v <= cap)
        assert _slots(x, g, q, m, cap, ones(cap)) == reference == _slots(table, g, q, m, cap, 0)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_sweep_masks_read_their_bounds(self, data):
        # Under `max` a sweep keeps U_r as a mask up to the cap, best: its
        # top m bits are all set iff max(U_r) <= best, and then its read,
        # the highest clear bit plus m, is max(U_r).  A mask kept from a
        # higher cap and cut to the lower one is the same mask.
        m = data.draw(st.integers(2, 24), label="m")
        j = data.draw(st.integers(0, m - 2), label="prefix length")
        prefix = sorted(data.draw(st.permutations(range(1, m - 1)), label="residues")[:j])
        r = data.draw(st.integers(prefix[-1] + 1 if prefix else 1, m - 1), label="r")
        u = suffix_table(m, prefix, r)
        best = data.draw(st.integers(m, max(u) + 2 * m), label="best")
        higher = best + data.draw(st.integers(0, 3 * m), label="cap drop")
        gens = (m, *(m + i for i in (*prefix, *range(r, m))))
        x = mask(gens, higher) & ones(best)
        assert x == mask(gens, best)
        passes = x >> best - m + 1 == ones(m - 1)
        assert passes == (max(u) <= best)
        if passes:
            assert reads(x, m, best)[max] == max(u)
        else:
            assert reads(x, m, best)[max] > best

    def test_slot_count_cuts_the_frobenius_walk(self, monkeypatch):
        # The leaf-level count ends a leaf loop only at caps of `_MASK_BITS`
        # or more, so with the width at 0 (40, 3) tests its leaves by `relax`
        # and counts at every child: 590 cap tests for its one leaf without
        # either count, 285 with the interior one alone, 136 with both.  No
        # prefix sweeps there.  The leaf-level end is set once, for the
        # incumbent its loop starts with.
        monkeypatch.setattr(packed, "_MASK_BITS", 0)
        finished = count_tests(monkeypatch)
        assert [S.min_gens for S in _minimizers(40, 3, max)] == [(40, 43, 47)]
        assert len(finished) == 136
        monkeypatch.undo()
        # Below the width masks test every leaf: only the interior count
        # cuts, and a leaf within the incumbent reads its table off its
        # mask, so nothing relaxes.  The root's sweep closes masks, not
        # tables.  The 306 `_close` calls include two per new incumbent,
        # which recloses the masks of both prefixes on the stack.
        finished = count_tests(monkeypatch)
        assert [S.min_gens for S in _minimizers(40, 3, max)] == [(40, 43, 47)]
        assert (finished.count(True), finished.count(None)) == (0, 306)
        assert False not in finished
        monkeypatch.undo()
        out = min_frobenius_full_set(36, 6)
        assert out.value == 107
        assert out.minimizers == (mk(36, 37, 40, 41, 49, 51), mk(36, 37, 40, 42, 50, 51))
        out = min_frobenius_full_set(44, 5)
        assert out.value == 175
        assert out.minimizers == (mk(44, 45, 47, 55, 62),)


    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_least_sums_hold_for_their_leaves(self, data):
        m = data.draw(st.integers(3, 11), label="m")
        e = data.draw(st.integers(2, m), label="e")
        j = data.draw(st.integers(0, e - 2), label="prefix length")
        prefix = sorted(data.draw(st.sets(st.integers(1, m - 2), min_size=j, max_size=j)))
        first = prefix[-1] + 1 if prefix else 1
        a = data.draw(st.integers(first, m - 1), label="child")
        cap = data.draw(st.integers(m, m * m), label="cap")
        table = residue_table(m, [m + r for r in prefix])
        q = e - 1 - j  # generators still to come, the child's included

        def least_sum(cap, g):
            v = sorted(x for x in table if x <= cap)
            return _least_sum([*v, SENTINEL], g, q, m, cap)

        sums = [least_sum(cap, m + b) for b in range(first, m)]
        assert sums == sorted(sums)
        # The merges add up the m least values of the multiset, listed out.
        for b, got in zip(range(first, m), sums):
            g = m + b
            values = sorted(
                x + k * g
                for x in table
                if x <= cap
                for k in range((cap - x) // g + 1)
                for _ in range(min(comb(q - 1 + k, k), m))
            )
            assert got == (sum(values[:m]) if len(values) >= m else SENTINEL), b
        for rest in combinations(range(a + 1, m), e - 2 - j):
            residues = (*prefix, a, *rest)
            if gcd(m, *residues) != 1:
                continue
            leaf = residue_table(m, [m + r for r in residues])
            # Every leaf is within the cap of its own largest entry.
            assert sum(leaf) >= least_sum(max(leaf), m + a), residues
            if max(leaf) <= cap:
                assert sum(leaf) >= sums[a - first], (residues, cap)

    def test_least_sum_cuts_the_genus_walk(self, monkeypatch):
        # Without the least sums, (38, 3) makes 563 cap tests for its two leaves, 96 with them.
        finished = count_tests(monkeypatch)
        assert [S.min_gens for S in _minimizers(38, 3, sum)] == [(38, 39, 44), (38, 39, 45)]
        assert len(finished) < 200
        monkeypatch.undo()
        out = min_genus_packed(36, 6)
        assert out.value == 81
        assert out.minimizers == (
            mk(36, 37, 40, 41, 49, 51),
            mk(36, 37, 40, 42, 50, 51),
            mk(36, 37, 40, 46, 48, 53),
        )
        out = min_genus_packed(44, 5)
        assert out.value == 124
        assert out.minimizers == (mk(44, 45, 47, 55, 62),)


class TestMemberMasks:
    """`_close` masks decide the same cap tests as `relax` and read both keys."""

    def test_leaves_match_their_golden_digest(self, monkeypatch):
        """Every `_leaves` record for m <= 14, keys None, `sum` and `max`, at two widths.

        The digest is a SHA-256 over `repr` of each (min_gens, table, key)
        record in walk order, superseded leaves included, so a walk that
        drops, adds, reorders or mis-keys a leaf at either width changes it.
        A leaf that comes with its mask is hashed with the table read off
        it (`records`).  With `_MASK_BITS` at 0 no mask runs.
        """
        for width in (_MASK_BITS, 0):
            monkeypatch.setattr(packed, "_MASK_BITS", width)
            digest, n = hashlib.sha256(), 0
            for m in range(2, 15):
                for e in range(2, m + 1):
                    for key in (None, sum, max):
                        for record in records(m, e, key):
                            digest.update(repr(record).encode())
                            n += 1
            assert n == 21570
            assert digest.hexdigest() == (
                "98ce7805423b47590c455844bc2c9bee385f412bf480be16caadead150fb73be"
            ), width

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_mask_verdict_and_keys_match_the_table(self, data):
        m = data.draw(st.integers(2, 24), label="m")
        gens = st.integers(m + 1, 3 * m)
        prefix = data.draw(st.lists(gens, max_size=5), label="prefix")
        # A multiple of m adds no member; `relax` then reads the table's max.
        g = data.draw(gens, label="generator")
        # A cap below g closes under g with no shift, by the final cut alone.
        cap = data.draw(st.integers(m, 4 * m * m) | st.integers(m, g - 1), label="cap")
        x = _close(mask([m, *prefix], cap), g, ones(cap))
        full = residue_table(m, [*prefix, g])
        # The mask is exactly the members up to the cap.
        assert x == sum(1 << y for y in range(cap + 1) if y >= full[y % m])
        w = residue_table(m, prefix)
        # The verdict `class_sons` reads: every entry within the cap iff the
        # `max` read is, the highest clear bit plus m.
        fits = reads(x, m, cap)[max] <= cap
        assert relax(w, m, g, cap) == fits
        if fits:
            assert w == full
        # Both reads are lower bounds on the finished table's keys, exact when it fits.
        for key, read in reads(x, m, cap).items():
            assert read <= key(full), key
            assert fits <= (read == key(full)), key
        # At an incumbent's cap, key(M) - slack for a member M of L(n, e), a
        # leaf whose read is within key(M) fits, so its read is its key.
        n = data.draw(st.integers(2, 11), label="family m")
        e = data.draw(st.integers(2, n), label="e")
        family = enumerate_packed(n, e).members
        M = data.draw(st.sampled_from(family), label="incumbent")
        leaf = data.draw(st.sampled_from(family), label="leaf")
        for key in (max, sum):
            best = key(M.entries)
            cap = best - _bound_and_slack(n, e, key)[1]
            read = reads(mask(leaf.min_gens, cap), n, cap)[key]
            if read <= best:
                assert max(leaf.entries) <= cap, key
                assert read == key(leaf.entries), key

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_top_bits_decide_the_max_read(self, data):
        # The one comparison a `max` leaf and a class son pay: x < top, top
        # the cap's top m bits (all bits up to a cap below m), iff the `max`
        # read, the highest clear bit plus m, exceeds the cap.  A monoid of
        # multiplicity m has no member in 1..m-1, so below a cap of m - 1
        # both hold; cap 0, which no walk tests, is left out, as its mask
        # is full while the read, m - 1, exceeds it.
        m = data.draw(st.integers(2, 24), label="m")
        gen = st.integers(m + 1, 3 * m) | st.integers(1, 3).map(m.__mul__)
        prefix = data.draw(st.lists(gen, max_size=5), label="prefix")
        g = data.draw(gen, label="generator")
        cap = data.draw(
            st.integers(1, 4 * m * m) | st.integers(1, m - 1) | st.integers(1, g - 1), label="cap"
        )
        full = ones(cap)
        x = _close(mask([m, *prefix], cap), g, full)
        top = full >> max(cap - m + 1, 0) << max(cap - m + 1, 0)
        assert top == full ^ full >> m
        assert (x < top) == (reads(x, m, cap)[max] > cap)

    def test_max_walks_read_a_table_per_member_returned(self, monkeypatch):
        # Under `max` every cap at m <= 12 is below `_MASK_BITS`, so a
        # passing leaf comes with its mask, and `_minimizers` reads a table
        # only for each member it returns.  A walk that reads a table for
        # every passing leaf makes 443 calls here.
        calls = []
        table = packed._table
        monkeypatch.setattr(packed, "_table", lambda *a: calls.append(a) or table(*a))
        cells = [(m, e) for m in range(2, 13) for e in range(2, m + 1)]
        members = sum(len(_minimizers(m, e, max)) for m, e in cells)
        assert len(calls) == members == 120

    def test_class_walks_match_their_golden_digest(self, monkeypatch):
        """Every class walk from the packed roots with m <= 10, at two widths.

        The digest is a SHA-256 over `repr` of each son's (min_gens,
        entries), in walk order: for each root in family order, its
        `class_sons` at F + 3, its `class_sons` unbounded, then its
        `class_min_frobenius`.  With `_MASK_BITS` at 0 no mask runs.
        """
        for width in (_MASK_BITS, 0):
            monkeypatch.setattr(packed, "_MASK_BITS", width)
            digest, n = hashlib.sha256(), 0
            for m in range(2, 11):
                for e in range(2, m + 1):
                    for P in enumerate_packed(m, e):
                        bounded, sons = class_sons(P, P.frobenius + 3), class_sons(P)
                        for T in (*bounded, *sons, *class_min_frobenius(P)):
                            digest.update(repr((T.min_gens, T.entries)).encode())
                            n += 1
            assert n == 5523
            assert digest.hexdigest() == (
                "9f29247a0bc5cef446b9d33db64d76cf2c937f2f282f1c44501b7fb607cc855f"
            ), width

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_tables_read_off_masks(self, data):
        # `_table` reads a monoid's table off its member mask up to a cap: a
        # class with no member up to the cap reads SENTINEL.  A multiple of
        # m adds no member, and below a cap under m only generators below
        # the cap fill a class.
        m = data.draw(st.integers(1, 24), label="m")
        gen = st.integers(1, 3 * m) | st.integers(1, 3).map(m.__mul__)
        gens = data.draw(st.lists(gen, max_size=5), label="gens")
        cap = data.draw(st.integers(0, 4 * m * m) | st.integers(0, m - 1), label="cap")
        want = [y if y <= cap else SENTINEL for y in residue_table(m, gens)]
        assert _table(mask([m, *gens], cap), m) == want

    @pytest.mark.parametrize("key", [sum, max], ids=["genus", "frobenius"])
    def test_narrow_walks_read_every_table_off_a_mask(self, key, monkeypatch):
        # Every cap at m <= 12 is below `_MASK_BITS` from the interval
        # semigroup's on, so each frame and each passing leaf reads its
        # table off its member mask: neither `relax` nor `residue_table`
        # runs, and the walk keeps the table path's answer.  The genus walk
        # at (44, 5), whose cap starts wide, is pinned in
        # `test_mask_tests_are_pinned`.
        def refuse(*args):
            raise AssertionError("a table was built while masks run")

        cells = [(m, e) for m in range(2, 13) for e in range(2, m + 1)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(packed, "_MASK_BITS", 0)
            want = [[fields(S) for S in _minimizers(m, e, key)] for m, e in cells]
        monkeypatch.setattr(packed, "relax", refuse)
        monkeypatch.setattr(packed, "residue_table", refuse)
        for (m, e), hits in zip(cells, want):
            assert key(interval_apery(m, e)) - _bound_and_slack(m, e, key)[1] < _MASK_BITS
            assert [fields(S) for S in _minimizers(m, e, key)] == hits, (m, e)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.data())
    def test_any_mask_width_gives_the_table_path_answer(self, data):
        # A width between the caps switches the walk to masks partway,
        # once the incumbent falls below it.  Every leaf the walk yields,
        # superseded ones included, comes out with the same table and key.
        m = data.draw(st.integers(3, 16), label="m")
        e = data.draw(st.integers(2, min(m, 8)), label="e")
        key = data.draw(st.sampled_from([sum, max]), label="key")
        bits = data.draw(st.integers(0, key(interval_apery(m, e)) + 1), label="width")
        want = records(m, e, key)
        with pytest.MonkeyPatch.context() as patch:
            for width in (0, bits):
                patch.setattr(packed, "_MASK_BITS", width)
                assert records(m, e, key) == want, width

    @pytest.mark.parametrize("m", [39, 40])
    def test_genus_caps_narrow_partway(self, m, monkeypatch):
        # The genus search at (m, 3) starts with a cap above the mask width
        # and ends below it, so it switches to masks partway.
        bound, slack = _bound_and_slack(m, 3, sum)
        hits = _minimizers(m, 3, sum)
        assert sum(interval_apery(m, 3)) - slack >= _MASK_BITS > sum(hits[0].entries) - slack
        monkeypatch.setattr(packed, "_MASK_BITS", 0)
        assert [fields(S) for S in hits] == [fields(S) for S in _minimizers(m, 3, sum)]

    @pytest.mark.parametrize("width", [_MASK_BITS, 0], ids=["default", "zero"])
    def test_frames_hold_a_mask_iff_full(self, width, monkeypatch):
        # The walk's `full` carries the width decision: `_frame` and `_lower`
        # get a nonzero `full` exactly when the frame holds a member mask,
        # not a table.  At the default width these caps start wide and end
        # narrow (genus (39, 3) and (40, 3), Frobenius (150, 4): 7,649 to
        # 1,645 bits), so both kinds of frame meet; at width 0 only tables.
        cells = [(39, 3, sum), (40, 3, sum), (150, 4, max)]
        for m, e, key in cells:
            slack = _bound_and_slack(m, e, key)[1]
            hits = _minimizers(m, e, key)
            assert key(interval_apery(m, e)) - slack >= _MASK_BITS > key(hits[0].entries) - slack
        monkeypatch.setattr(packed, "_MASK_BITS", width)
        calls = []
        frame, lower = packed._frame, packed._lower

        def framed(*args):
            calls.append((type(args[1]) is int, args[-1] != 0))
            return frame(*args)

        def lowered(*args):
            calls.append((type(args[0][1]) is int, args[-1] != 0))
            return lower(*args)

        monkeypatch.setattr(packed, "_frame", framed)
        monkeypatch.setattr(packed, "_lower", lowered)
        for m, e, key in cells:
            _minimizers(m, e, key)
        assert all(holds == full for holds, full in calls)
        assert {holds for holds, _ in calls} == ({False, True} if width else {False})

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.data())
    def test_class_walks_match_the_table_path(self, data):
        m = data.draw(st.integers(3, 10), label="m")
        e = data.draw(st.integers(2, m), label="e")
        P = data.draw(st.sampled_from(enumerate_packed(m, e).members), label="root")
        slack = data.draw(st.integers(0, 2 * m), label="bound above F")

        def walk():
            sons = class_sons(P, P.frobenius + slack)
            return [fields(T) for T in (*sons, *class_min_frobenius(P))]

        got = walk()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(packed, "_MASK_BITS", 0)
            assert walk() == got


class TestIsPacked:
    def test_examples(self):
        assert is_packed(mk(5, 6, 7))
        assert not is_packed(mk(5, 11, 17))
        assert is_packed(mk(1))


class TestPack:
    def test_examples(self):
        assert pack(mk(5, 11, 17)) == mk(5, 6, 7)
        assert pack(mk(7, 9, 10, 15)) == mk(7, 8, 9, 10)

    def test_idempotent_on_packed(self):
        for S in enumerate_packed(6, 4):
            assert pack(S) == S

    def test_naturals_rejected(self):
        with pytest.raises(Degenerate):
            pack(mk(1))

    def test_preserves_dimensions_and_never_raises_invariants(self):
        for S in random_semigroups(500, seed=91):
            P = pack(S)
            assert P.multiplicity == S.multiplicity
            assert P.embedding_dim == S.embedding_dim
            assert is_packed(P)
            assert pack(P) == P
            assert P.genus <= S.genus
            assert P.frobenius <= S.frobenius
            if not is_packed(S):
                assert P.genus < S.genus

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_steps_of_the_packing_lemma(self, data):
        # The steps the route's exactness rests on (the `packed` module
        # docstring, part 5), on generators up to 4m, so most S are unpacked.
        m = data.draw(st.integers(2, 12), label="m")
        rest = data.draw(st.lists(st.integers(m + 1, 4 * m), min_size=1, max_size=8))
        try:
            S = make_semigroup([m, *rest])
        except NotNumerical:
            return
        P = pack(S)
        # S lies in P: a member past F(S) + m is one of these plus multiples of m.
        assert all(x in P for x in range(S.frobenius + m + 1) if x in S)
        for n in S.min_gens:
            if n >= 2 * m:
                assert n - m not in S and n - m in P, n
        assert P in packed_family(m, S.embedding_dim)


@lru_cache(maxsize=None)
def packed_family(m, e):
    return frozenset(enumerate_packed(m, e))


def reference_class_sons(P):
    """The class son rule decided by a bounded monoid check, then built anew."""
    m = P.multiplicity
    out = []
    for k in range(1, P.embedding_dim):
        lifted = P.min_gens[k] + m
        if lifted <= P.max_gen:
            continue
        rest = P.min_gens[:k] + P.min_gens[k + 1 :]
        if monoid_contains(rest, lifted):
            continue
        son = make_semigroup((*rest, lifted))
        assert son.min_gens == (*rest, lifted), son
        out.append(son)
    return tuple(sorted(out))


def fields(S):
    return S.min_gens, S.entries, S.frobenius, S.genus


class TestClassSons:
    def test_matches_reference_three_levels_down(self):
        for m in range(2, 13):
            for e in range(2, m + 1):
                level = list(enumerate_packed(m, e))
                for _ in range(3):
                    sons = []
                    for P in level:
                        got = class_sons(P)
                        assert [fields(T) for T in got] == [
                            fields(T) for T in reference_class_sons(P)
                        ], P
                        sons += got
                    level = sons

    @pytest.mark.parametrize("gens", [(6, 8, 9, 10), (1,), (7, 8)], ids=repr)
    def test_named_cases_match_reference(self, gens):
        P = mk(*gens)
        got = class_sons(P)
        assert [fields(T) for T in got] == [fields(T) for T in reference_class_sons(P)]

    def test_rest_with_common_factor(self):
        # 6, 8 and 10 miss every odd residue, so 15 is a son's generator.
        assert mk(6, 8, 10, 15) in class_sons(mk(6, 8, 9, 10))

    def test_son_past_kernel_range_is_refused(self):
        # A bound this wide keeps the table path, where the one check runs.
        for bound in (None, 2**61):
            with pytest.raises(InvalidGenerator):
                class_sons(mk(2, 2**61 - 1), bound)

    def test_single_son(self):
        assert class_sons(mk(6, 7, 8, 9, 11)) == (mk(6, 8, 9, 11, 13),)

    def test_two_sons(self):
        assert class_sons(mk(6, 8, 9, 11, 13)) == (
            mk(6, 8, 11, 13, 15),
            mk(6, 9, 11, 13, 14),
        )

    def test_two_generator_case(self):
        for m in range(2, 9):
            assert class_sons(mk(m, m + 1)) == (mk(m, 2 * m + 1),)

    def test_bound_keeps_exactly_the_sons_within_it(self, monkeypatch):
        tables = []
        build, relax = packed.residue_table, packed.relax
        monkeypatch.setattr(packed, "residue_table", lambda *a: tables.append(a) or build(*a))
        monkeypatch.setattr(packed, "relax", lambda *a: tables.append(a) or relax(*a))
        for m in range(3, 10):
            for e in range(2, m + 1):
                level = list(enumerate_packed(m, e))
                for _ in range(3):
                    for P in level:
                        sons = class_sons(P)
                        # At bound -m-2 the cap bound + m is below 0 and keeps no son.
                        for b in (P.frobenius, P.frobenius + 1, P.frobenius + m, -m - 2):
                            want = [fields(T) for T in sons if T.frobenius <= b]
                            tables.clear()
                            assert [fields(T) for T in class_sons(P, b)] == want, (P, b)
                            # Every cap here is below `_MASK_BITS`, so the mask
                            # decides both tests and gives each kept son its
                            # table: neither `residue_table` nor `relax` runs.
                            assert tables == [], (P, b)
                    level = [T for P in level for T in class_sons(P)]

    def test_sons_stay_in_class(self):
        P = mk(6, 7, 8, 9, 11)
        for T in class_sons(P):
            assert pack(T) == pack(P)
            assert T.embedding_dim == P.embedding_dim


class TestClassMinFrobenius:
    def test_three_member_class(self):
        got = class_min_frobenius(mk(6, 7, 8, 9, 11))
        assert got == (mk(6, 7, 8, 9, 11), mk(6, 8, 9, 11, 13), mk(6, 8, 11, 13, 15))
        assert all(T.frobenius == 10 for T in got)

    def test_root_classes_are_singletons(self):
        for m in (4, 5):
            assert class_min_frobenius(root(m)) == (root(m),)

    def test_naturals(self):
        assert class_min_frobenius(mk(1)) == (mk(1),)

    def test_root_builds_no_son(self, monkeypatch):
        # Every son of root(m) misses a generator above F = m-1.
        S = root(400)

        def refuse(*args):
            raise AssertionError("a son's table was built")

        monkeypatch.setattr(packed, "residue_table", refuse)
        assert class_min_frobenius(S) == (S,)

    def test_unpacked_rejected(self):
        with pytest.raises(NotPacked):
            class_min_frobenius(mk(5, 11, 17))

    def test_all_members_pack_to_input(self):
        S = mk(7, 8, 9, 10)
        for T in class_min_frobenius(S):
            assert pack(T) == S
            assert T.frobenius == S.frobenius

    def test_each_member_is_reached_once_through_its_parent(self):
        for m in range(3, 9):
            for e in range(2, min(m, 5) + 1):
                for S in enumerate_packed(m, e):
                    got = class_min_frobenius(S)
                    members = set(got)
                    assert len(members) == len(got), S
                    for T in got:
                        if T != S:
                            parent = mk(*T.min_gens[:-1], T.max_gen - m)
                            assert parent in members, (S, T)


class TestPartition:
    def test_packing_lands_in_the_enumerated_family(self):
        for m in range(2, 7):
            families = {e: set(enumerate_packed(m, e)) for e in range(2, m + 1)}
            for k, lv in enumerate(bfs_levels(m)):
                if k > 6:
                    break
                for S in lv:
                    if S.embedding_dim >= 2:
                        P = pack(S)
                        assert P in families[S.embedding_dim]

    def test_family_members_are_class_representatives(self):
        for e in range(2, 7):
            for P in enumerate_packed(6, e):
                assert pack(P) == P
