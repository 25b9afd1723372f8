"""The brute-force sieve and the gap-set enumerator."""
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semigroup_forge.core import make_semigroup
from semigroup_forge.errors import EmptyInput, InvalidGenerator, NotNumerical, Uncertified
from semigroup_forge.oracle import (
    BOUND_CAP,
    SieveResult,
    _sieve_once,
    enumerate_by_genus,
    sieve,
)

# Derandomized and bounded, so the suite stays deterministic and quick.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


def mk(*gens):
    return make_semigroup(gens)


class TestSieve:
    def test_small(self):
        r = sieve({4, 5, 7})
        assert r.frobenius == 6
        assert r.genus == 4

    def test_naturals(self):
        r = sieve({1})
        assert (r.frobenius, r.genus) == (-1, 0)

    def test_classic_instance(self):
        r = sieve({6, 9, 20})
        assert (r.frobenius, r.genus) == (43, 22)

    def test_reachable_table_is_membership(self):
        r = sieve({5, 7, 9})
        S = mk(5, 7, 9)
        for n in range(r.bound + 1):
            assert bool(r.reachable[n]) == (n in S)

    def test_small_bound_doubles(self):
        r = sieve({6, 9, 20}, bound=10)
        assert (r.frobenius, r.genus) == (43, 22)
        assert r.bound > 10

    def test_uncertified_past_cap(self):
        with pytest.raises(Uncertified):
            sieve({2, BOUND_CAP + 1})

    def test_errors(self):
        with pytest.raises(NotNumerical):
            sieve({2, 4})
        with pytest.raises(EmptyInput):
            sieve(set())
        with pytest.raises(InvalidGenerator):
            sieve({0, 3})


def reference_sieve_once(gens, bound):
    """The sieve's table one cell at a time, as a bytearray loop."""
    table = bytearray(bound + 1)
    table[0] = 1
    for g in gens:
        if g > bound:
            continue
        for i in range(g, bound + 1):
            if table[i - g]:
                table[i] = 1
    return bytes(table)


def reference_sieve(generators, bound=None):
    """`sieve` with the reference table and plain scans for F and g."""
    gens = sorted(set(generators))
    m = gens[0]
    if bound is None:
        second = gens[1] if len(gens) > 1 else gens[0]
        bound = gens[0] * second + gens[-1]
    bound = max(bound, m)
    while bound + 1 <= BOUND_CAP:
        table = reference_sieve_once(gens, bound)
        frobenius = max((i for i in range(1, bound + 1) if not table[i]), default=-1)
        if frobenius + m <= bound:
            genus = sum(1 for i in range(1, bound + 1) if not table[i])
            return SieveResult(bound, table, frobenius, genus)
        bound *= 2
    raise Uncertified("reference")


generator_sets = st.lists(
    st.one_of(st.integers(1, 40), st.integers(41, 400)), min_size=1, max_size=6
)


class TestSieveMatchesReference:
    @PROPERTY
    @given(generator_sets, st.integers(0, 300))
    def test_table(self, gens, bound):
        # Any positive generators and any bound, numerical or not.
        gens = sorted(set(gens))
        assert _sieve_once(gens, bound) == reference_sieve_once(gens, bound)

    @PROPERTY
    @given(generator_sets, st.one_of(st.none(), st.integers(0, 300)))
    @example([1], None)
    @example([1], 0)
    @example([6, 9, 20], 10)
    @example([3, 500], 20)
    def test_every_field(self, gens, bound):
        # Small explicit bounds force doubling, and generators above 40
        # often lie above the bound.
        assume(gcd(*gens) == 1)
        got, want = sieve(gens, bound), reference_sieve(gens, bound)
        assert got == want
        assert type(got.reachable) is bytes
        assert len(got.reachable) == got.bound + 1


class TestEnumerateByGenus:
    def test_multiplicity_four_through_genus_four(self):
        got = enumerate_by_genus(4, 4)
        assert got == {
            mk(4, 5, 6, 7),
            mk(4, 6, 7, 9),
            mk(4, 5, 7),
            mk(4, 5, 6),
        }

    def test_naturals_only(self):
        assert enumerate_by_genus(1, 0) == {mk(1)}
        assert enumerate_by_genus(1, 7) == {mk(1)}

    def test_genus_minimizers_present(self):
        pop = enumerate_by_genus(5, 6)
        assert mk(5, 6, 7) in pop
        assert mk(5, 6, 8) in pop

    def test_bound_below_multiplicity_gaps(self):
        assert enumerate_by_genus(5, 3) == frozenset()

    def test_members_have_stated_invariants(self):
        for S in enumerate_by_genus(6, 8):
            assert S.multiplicity == 6
            assert S.genus <= 8
            assert S.embedding_dim == len(S.min_gens) <= 6
            r = sieve(S.min_gens)
            assert (r.frobenius, r.genus) == (S.frobenius, S.genus)

    def test_agrees_with_fast_construction(self):
        for S in enumerate_by_genus(5, 7):
            C = make_semigroup(S.min_gens)
            assert C.min_gens == S.min_gens
            assert C.frobenius == S.frobenius
            assert C.genus == S.genus
            assert C.entries == S.entries

    def test_rejects_bad_multiplicity(self):
        for m in (0, -2):
            with pytest.raises(InvalidGenerator, match=f"multiplicity {m} is not positive"):
                enumerate_by_genus(m, 3)

    def test_deep_window_does_not_recurse(self):
        # The window reaches position 1040, past Python's default
        # recursion limit; m = 2 has one semigroup per genus 1..520.
        got = enumerate_by_genus(2, 520)
        assert len(got) == 520
        assert {S.genus for S in got} == set(range(1, 521))
        assert mk(2, 1041) in got
