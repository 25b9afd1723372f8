"""The residue-table kernels."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semigroup_forge import _backend
from semigroup_forge._backend import SENTINEL
from semigroup_forge.core import monoid_contains

# Derandomized and bounded, so the suite stays deterministic and quick.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


def test_backend_selected_a_kernel():
    assert _backend.backend_name == "pure"
    assert callable(_backend.residue_table)


def test_modulus_one():
    assert _backend.residue_table(1, [1]) == [0]


def test_unreachable_classes():
    # Multiples of 3 only: residues 1, 2, 4, 5 mod 6 hold no element.
    S = SENTINEL
    assert _backend.residue_table(6, [6, 9]) == [0, S, S, 9, S, S]


def test_known_table():
    # Monoid of 4, 5, 7: least elements 0, 5, 10, 7 per residue class.
    assert _backend.residue_table(4, [4, 5, 7]) == [0, 5, 10, 7]
    assert _backend.minimal_residues(4, [0, 5, 10, 7], [4, 5, 7]) == [1, 3]


def test_bad_modulus():
    with pytest.raises(ValueError):
        _backend.residue_table(0, [2, 3])


# The modulus and up to five more generators, gcd > 1 included.
monoids = st.tuples(
    st.integers(1, 10), st.lists(st.integers(1, 30), max_size=5)
).map(lambda t: (t[0], {t[0], *t[1]}))


@PROPERTY
@given(monoids)
@example((6, {6, 9}))
@example((6, {6, 4, 10}))
@example((7, {7, 8, 9}))
def test_residue_table_matches_definition(monoid):
    # Entry i is the least member congruent to i.  A least member sums
    # fewer than m generators other than m, so it lies below m * max(gens).
    m, gens = monoid
    limit = m * max(gens)
    want = [
        next((n for n in range(i, limit, m) if monoid_contains(gens, n)), SENTINEL)
        for i in range(m)
    ]
    assert _backend.residue_table(m, gens) == want


@PROPERTY
@given(monoids)
@example((6, {6, 9, 15}))
@example((4, {4, 5, 7, 10, 14}))
def test_minimal_residues_match_monoid_reference(monoid):
    # As in the core tests: an input is a minimal generator iff the other
    # inputs do not span it.  The modulus must be the least input.
    m, gens = monoid
    gens = {g for g in gens if g >= m}
    w = _backend.residue_table(m, gens)
    want = [x % m for x in sorted(gens) if x != m and not monoid_contains(gens - {x}, x)]
    assert _backend.minimal_residues(m, w, gens) == want


@PROPERTY
@given(monoids, st.integers(1, 40), st.integers(0, 400))
@example((7, {7, 9}), 10, 30)
@example((6, {6, 9}), 8, 20)
@example((5, {5}), 10, 0)
@example((2, {2}), 4, 2)
def test_capped_relax_stops_only_past_the_cap(monoid, g, cap):
    # The capped sweep returns whether the finished table is within the
    # cap, a multiple of m included, and leaves that table when it is.
    m, gens = monoid
    full = _backend.residue_table(m, gens)
    capped = full.copy()
    assert _backend.relax(full, m, g) is True
    assert _backend.relax(capped, m, g, cap) == (max(full) <= cap)
    if max(full) <= cap:
        assert capped == full
