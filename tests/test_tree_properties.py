"""Property tests of the tree son rule, its node count and the packing map."""
from bisect import bisect_right
from functools import lru_cache
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semigroup_forge.core import make_semigroup
from semigroup_forge.multiplicity_tree import _count_nodes, _root_node, _sons, root, sons
from semigroup_forge.packed import pack

# Derandomized and bounded, so the suite stays deterministic and quick.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def semigroups(draw):
    m = draw(st.integers(2, 9))
    rest = draw(st.lists(st.integers(m + 1, 2 * m + 1), min_size=1, max_size=10))
    assume(gcd(m, *rest) == 1)
    return make_semigroup([m, *rest])


@PROPERTY
@given(
    st.one_of(semigroups(), st.integers(2, 9).map(root)),
    st.lists(st.integers(0, 50), max_size=6),
)
def test_sons_follow_the_tree_invariants(S, path):
    # Check every son of S, then step down the tree along `path` and
    # check the sons of each node reached.  Random generator sets often
    # have no son at all, so the walk may also start at a tree root.
    for step in (*path, None):
        family = sons(S)
        for T in family:
            (deleted,) = set(S.min_gens) - set(T.min_gens)
            assert T.frobenius == deleted > S.frobenius
            assert T.genus == S.genus + 1
            assert T.multiplicity == S.multiplicity
            assert T.embedding_dim <= S.embedding_dim
            fresh = make_semigroup(T.min_gens)
            assert (fresh.min_gens, fresh.entries, fresh.frobenius, fresh.genus) == (
                T.min_gens, T.entries, T.frobenius, T.genus,
            )
        if step is None or not family:
            break
        S = family[step % len(family)]


@st.composite
def tree_nodes(draw):
    """(m, bare node): a random generator set, or a random walk from the root."""
    S = draw(st.one_of(semigroups(), st.none()))
    if S is not None:
        return S.multiplicity, (S.min_gens, S.entries, S.frobenius)
    m = draw(st.integers(2, 9))
    node = _root_node(m)
    for step in draw(st.lists(st.integers(0, 50), max_size=12)):
        family = _sons(m, node)
        if not family:
            break
        node = family[step % len(family)]
    return m, node


@PROPERTY
@given(tree_nodes())
def test_son_count_reads_off_the_generators(cell):
    m, node = cell
    gens, _, F = node
    assert len(_sons(m, node)) == len(gens) - bisect_right(gens, F, 1)


@PROPERTY
@given(tree_nodes())
def test_dimension_falls_by_at_most_one(cell):
    m, node = cell
    for gens, _, _ in _sons(m, node):
        assert len(gens) in (len(node[0]), len(node[0]) - 1)


def _descendants(m, node, depth):
    """(j, T) for every descendant T of node at most depth levels below it."""
    family = [node]
    for j in range(1, depth + 1):
        family = [T for S in family for T in _sons(m, S)]
        yield from ((j, T) for T in family)


@PROPERTY
@given(st.integers(2, 9), st.lists(st.integers(0, 50), max_size=8))
def test_dimension_bounds_behind_the_genus_cuts(m, path):
    # The two cuts of `min_genus` (part 3 of the `multiplicity_tree`
    # docstring), checked below each node of a random son path: a
    # descendant j levels down has dimension at least d - j (the deficit
    # cut), and keeps every generator <= F as a minimal generator (the
    # permanent-generator cut).
    node = _root_node(m)
    for step in (*path, None):
        gens, _, F = node
        permanent = bisect_right(gens, F)
        for j, (low, _, _) in _descendants(m, node, 3):
            assert len(low) >= len(gens) - j
            assert low[:permanent] == gens[:permanent]
            assert len(low) >= permanent
        family = _sons(m, node)
        if step is None or not family:
            break
        node = family[step % len(family)]


def _subtree(m, node, bound):
    """node and every descendant of it with Frobenius number <= bound."""
    family = [node]
    while family:
        yield from family
        family = [T for S in family for T in _sons(m, S, bound)]


@PROPERTY
@given(
    st.integers(2, 7).flatmap(lambda m: st.tuples(st.just(m), st.integers(2, m))),
    st.lists(st.integers(0, 50), max_size=8),
    st.one_of(st.none(), st.integers(0, 12)),
)
def test_sons_toward_dimension_e_drop_only_dead_sons(cell, path, reach):
    # The son rule of `min_frobenius`, and without a bound that of
    # `min_genus` (part 3 of the `multiplicity_tree` docstring), checked at
    # each node of a random son path: with a target dimension e it builds
    # an in-order sublist of the sons within the bound, and no son it drops
    # has a descendant of dimension e with F <= bound, itself included.
    # Without a bound the subtree is walked up to F + 12.
    m, e = cell
    node = _root_node(m)
    for step in (*path, None):
        bound = None if reach is None else node[2] + reach
        family = _sons(m, node, bound)
        kept = _sons(m, node, bound, e)
        rest = iter(family)
        assert all(T in rest for T in kept)
        for T in family:
            if T not in kept:
                limit = node[2] + 12 if bound is None else bound
                assert all(len(D[0]) != e for D in _subtree(m, T, limit)), T
        family = _sons(m, node)
        if step is None or not family:
            break
        node = family[step % len(family)]


@PROPERTY
@given(semigroups())
def test_pack_never_raises_frobenius_or_genus(S):
    P = pack(S)
    assert P.frobenius <= S.frobenius
    assert P.genus <= S.genus


@lru_cache(maxsize=None)
def _level(m, k):
    """Level k of the multiplicity-m tree as bare nodes, in build order."""
    if k == 0:
        return (_root_node(m),)
    return tuple(T for S in _level(m, k - 1) for T in _sons(m, S))


@st.composite
def level_pairs(draw):
    """(m, S, S'): two distinct nodes of one tree level with S < S', m <= 12.

    Both have sons: for a node without any, the claims below hold vacuously.
    """
    m = draw(st.integers(2, 12))
    level = [S for S in _level(m, draw(st.integers(1, 8))) if _sons(m, S)]
    assume(len(level) > 1)
    i = draw(st.integers(0, len(level) - 1))
    j = draw(st.integers(0, len(level) - 2))
    S, T = sorted((level[i], level[j + (j >= i)]))
    return m, S, T


@PROPERTY
@given(level_pairs())
def test_sons_of_a_lesser_node_come_first(cell):
    # Part 2 of the `multiplicity_tree` docstring, which keeps levels sorted.
    m, S, T = cell
    gens, other = S[0], T[0]
    # Neither tuple is a prefix of the other, so they differ at some index d.
    d = next((i for i, (x, y) in enumerate(zip(gens, other)) if x != y), None)
    assert d is not None and gens[d] < other[d]
    low, high = _sons(m, S), _sons(m, T)
    assert all(gens.index(U[2]) > d for U in low)
    assert all(other.index(U[2]) >= d for U in high)
    assert all(U[0] < V[0] for U in low for V in high)


@PROPERTY
@given(
    st.integers(1, 7).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.integers(-1, 3 * m), max_size=8))
    )
)
def test_bounded_count_matches_a_breadth_first_count(cell):
    # The depth-first count under a Frobenius bound per level against
    # whole levels built breadth-first: level j+1 holds the sons with
    # F <= bounds[j] of the nodes at level j.  A bound may lie below a
    # node's own F, so that node counts no son.
    m, bounds = cell
    family, nodes = [_root_node(m)], 1
    for bound in bounds:
        family = [T for S in family for T in _sons(m, S, bound)]
        nodes += len(family)
    assert _count_nodes(m, len(bounds), bounds) == nodes
