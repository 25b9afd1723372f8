"""Property tests of the tree son rule and the packing map."""
from bisect import bisect_right
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semigroup_forge.core import make_semigroup
from semigroup_forge.multiplicity_tree import _root_node, _sons, root, sons
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


@PROPERTY
@given(semigroups())
def test_pack_never_raises_frobenius_or_genus(S):
    P = pack(S)
    assert P.frobenius <= S.frobenius
    assert P.genus <= S.genus
