"""Construction, membership, Apery tables, and the interval formulas."""
import copy
import importlib
import pickle
import random
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semigroup_forge.core import (
    NumericalSemigroup,
    SearchOutcome,
    _least_levels,
    apery_set,
    interval_apery,
    interval_frobenius,
    interval_genus,
    make_semigroup,
    monoid_contains,
    sylvester_frobenius,
)
from semigroup_forge.errors import (
    BadDimension,
    EmptyInput,
    InvalidGenerator,
    NotMember,
    NotNumerical,
)
from semigroup_forge.multiplicity_tree import sons
from semigroup_forge.oracle import SieveResult, enumerate_by_genus, sieve
from semigroup_forge.search import WilfViolation


def mk(*gens):
    return make_semigroup(gens)


class TestMakeSemigroup:
    def test_basic_invariants(self):
        S = mk(4, 5, 7)
        assert S.min_gens == (4, 5, 7)
        assert S.multiplicity == 4
        assert S.embedding_dim == 3
        assert S.max_gen == 7
        assert S.frobenius == 6
        assert S.genus == 4

    def test_naturals(self):
        N = mk(1)
        assert N.min_gens == (1,)
        assert N.frobenius == -1
        assert N.genus == 0
        assert N.entries == (0,)

    def test_redundant_generator_dropped(self):
        assert mk(4, 6, 7, 9, 10).min_gens == (4, 6, 7, 9)

    def test_duplicates_dropped(self):
        assert mk(5, 5, 6, 6, 7).min_gens == (5, 6, 7)

    def test_not_numerical(self):
        with pytest.raises(NotNumerical):
            mk(2, 4)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            make_semigroup([])

    def test_zero_generator(self):
        with pytest.raises(InvalidGenerator):
            mk(0, 3)

    def test_negative_generator(self):
        with pytest.raises(InvalidGenerator):
            mk(-2, 3)

    def test_non_integer_generator(self):
        with pytest.raises(InvalidGenerator):
            mk(4.5, 7)
        with pytest.raises(InvalidGenerator):
            mk(True, 3)

    def test_kernel_range_overflow_rejected(self):
        # Used to come back as ⟨-3,-1,5,...⟩ with a negative genus.
        with pytest.raises(InvalidGenerator, match="kernel range"):
            mk(5, 2**61 + 1)
        with pytest.raises(InvalidGenerator):
            mk(2, 2**61 + 1)

    def test_largest_product_below_kernel_range(self):
        S = mk(2, 2**61 - 1)
        assert S.min_gens == (2, 2**61 - 1)
        assert S.frobenius == 2**61 - 3
        assert S.genus == 2**60 - 1

    def test_reduction_idempotent(self):
        for gens in [(4, 5, 7), (6, 9, 20), (4, 6, 7, 9, 10), (1, 44)]:
            S = make_semigroup(gens)
            assert make_semigroup(S.min_gens) == S

    def test_dimension_bounded_by_multiplicity(self):
        rng = random.Random(11)
        for _ in range(40):
            gens = rng.sample(range(2, 90), rng.randint(2, 6)) + [1 + 2 * rng.randint(1, 40)]
            S = make_semigroup([g for g in gens if g > 0])
            assert S.embedding_dim <= S.multiplicity

    def test_minimal_generators_match_monoid_reference(self):
        # monoid_contains reads no Apery table: an input is a minimal
        # generator iff the other inputs do not span it.
        rng = random.Random(23)
        checked = 0
        while checked < 300:
            m = rng.randint(2, 60)
            others = rng.sample(range(m + 1, 4 * m + 2), rng.randint(1, min(7, 3 * m)))
            gens = {m, *others}
            try:
                S = make_semigroup(gens)
            except NotNumerical:
                continue
            expected = tuple(
                x for x in sorted(gens) if not monoid_contains(gens - {x}, x)
            )
            assert S.min_gens == expected, sorted(gens)
            checked += 1

    def test_identity_and_ordering(self):
        a, b = mk(4, 5, 7), mk(4, 5, 7)
        assert a == b and hash(a) == hash(b)
        assert mk(4, 5, 6) < mk(4, 5, 7) < mk(4, 6, 7, 9)
        assert a <= b and mk(4, 5, 6) <= a
        assert mk(4, 6, 7, 9) > a and a >= b and not mk(4, 5, 6) >= a
        assert a != (4, 5, 7)
        assert (a == (4, 5, 7)) is False
        with pytest.raises(TypeError):
            a < (4, 5, 7)
        with pytest.raises(AttributeError):
            a.min_gens = (4, 5, 6)
        with pytest.raises(AttributeError):
            a.genus = 0
        with pytest.raises(AttributeError):
            del a.min_gens
        with pytest.raises(AttributeError):
            del a.entries
        # One value whichever constructor built it: the kernels, the son
        # rule or the brute-force oracle.
        by_oracle = {T.min_gens: T for T in enumerate_by_genus(4, 5)}
        for T in (*sons(mk(4, 5, 6, 7)), *sons(mk(4, 5, 7))):
            for other in (make_semigroup(T.min_gens), by_oracle[T.min_gens]):
                assert other == T and hash(other) == hash(T)
                assert other <= T and not other < T

    def test_stores_only_what_the_generators_and_table_do_not_give(self):
        assert NumericalSemigroup.__slots__ == ("min_gens", "entries")
        assert not hasattr(mk(4, 5, 7), "__dict__")
        S = mk(7, 10, 13)
        assert (S.multiplicity, S.embedding_dim, S.max_gen) == (7, 3, 13)
        assert S.entries == (0, 36, 23, 10, 39, 26, 13)

    def test_repr_uses_angle_brackets(self):
        assert repr(mk(4, 5, 7)) == "⟨4,5,7⟩"

    def test_records_copy_and_pickle_by_their_fields(self):
        # Frozen slots refuse setattr, so a copy or an unpickled record is
        # rebuilt through its constructor, fields and all.
        S = mk(4, 5, 7)
        for record in (S, sieve(S.min_gens)):
            for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                assert twin == record and repr(twin) == repr(record)
        assert pickle.loads(pickle.dumps(S)).entries == S.entries


class TestMembership:
    def test_frobenius_is_out(self):
        assert 6 not in mk(4, 5, 7)

    def test_zero_is_in(self):
        assert 0 in mk(9, 11, 13)
        assert 0 in mk(1)

    def test_member(self):
        assert 10 in mk(4, 5, 7)

    def test_negative(self):
        assert -3 not in mk(4, 5, 7)

    def test_everything_past_frobenius(self):
        S = mk(6, 9, 20)
        assert S.frobenius == 43
        assert all(n in S for n in range(44, 120))
        assert 43 not in S


class TestAperySet:
    def test_two_generators(self):
        assert apery_set(mk(4, 5), 4) == (0, 5, 10, 15)

    def test_naturals(self):
        assert apery_set(mk(1), 1) == (0,)

    def test_three_generators(self):
        assert apery_set(mk(5, 6, 7), 5) == (0, 6, 7, 13, 14)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def test_non_multiplicity_modulus(self, data):
        # A random semigroup and a random nonzero member n, mostly no
        # generator, checked against the definition by monoid_contains:
        # the least member per class mod n.
        m = data.draw(st.integers(2, 9))
        others = data.draw(st.sets(st.integers(m + 1, 3 * m + 1), min_size=1, max_size=4))
        gens = {m, *others}
        assume(gcd(*gens) == 1)
        n = data.draw(st.integers(1, 4 * m))
        assume(monoid_contains(gens, n))
        table = apery_set(make_semigroup(gens), n)
        assert len(table) == n
        for i, w in enumerate(table):
            assert w % n == i and monoid_contains(gens, w)
            assert not any(monoid_contains(gens, x) for x in range(i, w, n))

    def test_rejects_non_member(self):
        with pytest.raises(NotMember):
            apery_set(mk(4, 5, 7), 6)
        with pytest.raises(NotMember):
            apery_set(mk(4, 5, 7), 0)

    def test_table_invariants(self):
        S = mk(7, 10, 13)
        assert S.entries[0] == 0
        for i, w in enumerate(S.entries):
            assert w % 7 == i
            assert w in S and w - 7 not in S


class TestFrobeniusGenus:
    def test_known_values(self):
        assert mk(8, 9, 10).genus == 16
        assert mk(8, 9, 11).genus == 14

    def test_naturals(self):
        assert mk(1).frobenius == -1
        assert mk(1).genus == 0

    def test_against_sieve_corpus(self):
        rng = random.Random(23)
        done = 0
        while done < 60:
            gens = rng.sample(range(2, 201), rng.randint(2, 5))
            try:
                S = make_semigroup(gens)
            except NotNumerical:
                continue
            r = sieve(S.min_gens)
            assert (r.frobenius, r.genus) == (S.frobenius, S.genus), S
            done += 1


class TestSylvester:
    def test_examples(self):
        assert sylvester_frobenius(4, 5) == 11
        assert sylvester_frobenius(2, 3) == 1
        assert sylvester_frobenius(5, 6) == 19

    def test_matches_construction(self):
        for a, b in [(3, 7), (5, 8), (9, 11), (4, 13)]:
            assert sylvester_frobenius(a, b) == mk(a, b).frobenius

    def test_not_coprime(self):
        with pytest.raises(NotNumerical):
            sylvester_frobenius(4, 6)

    def test_not_positive(self):
        with pytest.raises(InvalidGenerator):
            sylvester_frobenius(0, 3)


class TestIntervalFormulas:
    def test_apery_examples(self):
        assert interval_apery(4, 2) == (0, 5, 10, 15)
        assert interval_apery(5, 3) == (0, 6, 7, 13, 14)
        for m in (2, 5, 9):
            assert sorted(interval_apery(m, m)) == [0, *range(m + 1, 2 * m)]

    def test_genus_examples(self):
        assert interval_genus(8, 3) == 16
        assert interval_genus(5, 3) == 6
        for m in range(2, 12):
            assert interval_genus(m, m) == m - 1

    def test_frobenius_examples(self):
        assert interval_frobenius(4, 3) == 7
        assert interval_frobenius(6, 5) == 11
        for m in range(2, 12):
            assert interval_frobenius(m, 2) == m * m - m - 1

    def test_against_direct_computation(self):
        for m in range(2, 26):
            for e in range(2, m + 1):
                S = make_semigroup(range(m, m + e))
                assert S.min_gens == tuple(range(m, m + e))
                assert interval_genus(m, e) == S.genus
                assert interval_frobenius(m, e) == S.frobenius
                assert interval_apery(m, e) == S.entries

    def test_least_levels_bound_every_sorted_level(self):
        # Entry t of _least_levels(m, e) bounds the t-th smallest nonzero
        # Apery level of every semigroup in L(m, e), not only their sum.
        checked = 0
        for m in range(2, 9):
            for S in enumerate_by_genus(m, 2 * m):
                levels = sorted(w // m for w in S.entries[1:])
                least = _least_levels(m, S.embedding_dim)
                assert len(least) == m - 1
                assert all(k >= b for k, b in zip(levels, least, strict=True)), S
                checked += 1
        assert checked == 2273

    def test_bad_dimension(self):
        with pytest.raises(BadDimension):
            interval_genus(3, 4)
        with pytest.raises(BadDimension):
            interval_frobenius(5, 1)
        with pytest.raises(BadDimension):
            interval_apery(5, 0)


class TestMonoidContains:
    def test_examples(self):
        assert monoid_contains({6, 7, 9, 11}, 14)
        assert monoid_contains({6, 8, 9, 11}, 0)
        assert not monoid_contains({6, 8, 9, 11}, 13)

    def test_gcd_above_one(self):
        assert monoid_contains({4, 6}, 10)
        assert not monoid_contains({4, 6}, 5)
        assert not monoid_contains({4, 6}, 7)

    def test_negative(self):
        assert not monoid_contains({3, 5}, -1)

    def test_agrees_with_semigroup_membership(self):
        S = mk(5, 7, 9)
        for n in range(0, 40):
            assert monoid_contains(S.min_gens, n) == (n in S)


@pytest.mark.parametrize("cls, fields, values", [
    (SearchOutcome, ("value", "minimizers"), (6, (mk(5, 6, 7), mk(5, 6, 8)))),
    (WilfViolation, ("semigroup", "lhs", "rhs"), (mk(4, 5, 7), 15, 14)),
    (SieveResult, ("bound", "reachable", "frobenius", "genus"), (9, bytes([1, 0, 1, 1, 1, 1, 1, 1, 1, 1]), 1, 1)),
])
def test_record_contract(cls, fields, values):
    # Field names and order, equality and hash by fields, the
    # `Name(field=value, ...)` repr, frozen fields, copy, pickle, unpacking.
    record = cls(*values)
    assert cls._fields == fields
    twin = cls(**dict(zip(fields, values)))
    assert twin == record and hash(twin) == hash(record) == hash(values)
    assert record != record._replace(**{fields[-1]: None})
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({shown})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 0
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == repr(record)
    *unpacked, last = record
    assert (*unpacked, last) == values


@pytest.mark.parametrize("name", [
    "semigroup_forge", "semigroup_forge.core", "semigroup_forge.search",
    "semigroup_forge.packed", "semigroup_forge.multiplicity_tree", "semigroup_forge.oracle",
])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [a for a in module.__all__ if not hasattr(module, a)] == []
