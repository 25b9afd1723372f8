"""Minimal genus and minimal Frobenius number at fixed (m, e).

Two independent routes exist for each minimum.  The tree route walks
the multiplicity-m tree: breadth-first by genus until the first level
containing dimension-e members (minimal genus), or under a shrinking
Frobenius bound (minimal Frobenius).  Each prunes its walk, and
`min_genus` and `min_frobenius` state and prove their cuts and node
counts.

The packed route reads the same minima off the tables of the finite
packed family, builds values only for the members attaining them, and
recovers the full Frobenius minimizer set by searching each minimizing
packing class.  Every route
returns a `SearchOutcome`, the minimum and its minimizers, except
`min_frobenius_value_packed`, which returns the minimum alone as an int.
The routes cross-check each other in the test suite.  Each route refuses
(m, e) outside m >= e >= 2 through its first call, an interval formula or
the packed leaf walk, both gated by `core.require_family`.
"""
from __future__ import annotations

from .core import NumericalSemigroup, _Record, interval_frobenius, interval_genus
from .multiplicity_tree import _count_nodes, _root_node, _sons
# `sons` is bound only because the benchmark's tracer self-test checks it.
from .multiplicity_tree import sons  # noqa: F401
from .packed import _minimizers, class_min_frobenius

__all__ = [
    "SearchOutcome",
    "WilfViolation",
    "min_genus",
    "min_genus_packed",
    "min_frobenius",
    "min_frobenius_value_packed",
    "min_frobenius_full_set",
    "wilf_audit",
]


class SearchOutcome(_Record):
    """Result of one minimization: the value and everything attaining it.

    The caller knows what it asked for (genus or Frobenius number, at
    which m and e); a genus minimum sits at tree level value - (m-1).
    """

    __slots__ = ("value", "minimizers")

    def __init__(self, value: int, minimizers: tuple[NumericalSemigroup, ...]):
        super().__init__(value, minimizers)


class WilfViolation(_Record):
    """A semigroup breaking e(S)*g(S) <= (e(S)-1)*(F(S)+1)."""

    __slots__ = ("semigroup", "lhs", "rhs")

    def __init__(self, semigroup: NumericalSemigroup, lhs: int, rhs: int):
        super().__init__(semigroup, lhs, rhs)


def min_genus(m: int, e: int, stats: dict | None = None) -> SearchOutcome:
    """Least genus among semigroups with multiplicity m and dimension e.

    Walks tree levels from the root; genus is constant on a level and
    grows by one per level, so the first level containing dimension-e
    members consists exactly of the minimizers.  The interval semigroup
    sits at a known level L and has dimension e, which bounds the walk.

    Along an edge the dimension falls by at most one, and every level
    above the first hit has dimension above e; so the hits are sons of
    the dimension-(e+1) nodes.  Each level builds those near sons first,
    each family kept at its parent's position.  If one has dimension e,
    the near sons' hits are the minimizers and the other nodes' sons are
    never built; otherwise the next level is built parent by parent, from
    the near families and the rest's sons.  So every level, and the hits,
    come out sorted (see `multiplicity_tree`).

    A son T at level k, of dimension d and Frobenius number F, is kept
    only if some descendant of it can have dimension e by level L:
    - deficit: k + d - e <= L.  The dimension falls by at most one per
      edge, so T's dimension-e descendants lie at level k + d - e or
      deeper, and the minimum lies at level L or above;
    - permanent generators: at most e generators of T are <= F, the cut
      `_sons(m, S, None, e)` makes (proved in `min_frobenius`).
    Every ancestor of a minimizer passes both, so no minimizer is lost,
    and a kept level is still built parent by parent from a sorted one.

    `stats["nodes"]` counts every node of genus up to the minimum, cut or
    not, by a separate depth-first count (see `multiplicity_tree`); it
    runs only when `stats` is passed.
    """
    last_level = interval_genus(m, e) - (m - 1)
    top = last_level + e
    level = [_root_node(m)]
    hits = level if e == m else []  # the root has dimension m
    k = 0
    while not hits:
        if k == last_level:
            raise AssertionError("unreachable: the interval semigroup bounds the walk")
        k += 1
        near = [_sons(m, S, None, e) if len(S[0]) == e + 1 else None for S in level]
        hits = [T for fam in near if fam for T in fam if len(T[0]) == e]
        if not hits:
            level = [
                T
                for S, fam in zip(level, near)
                for T in (_sons(m, S, None, e) if fam is None else fam)
                if k + len(T[0]) <= top
            ]
    if stats is not None:
        stats["nodes"] = _count_nodes(m, k)
    return SearchOutcome((m - 1) + k, tuple(NumericalSemigroup(gens, w) for gens, w, _ in hits))


def min_genus_packed(m: int, e: int) -> SearchOutcome:
    """Same minimum as min_genus, read off the packed family.

    Packing never raises genus and is strict on unpacked input, so the
    packed members attaining the family minimum are all the minimizers.
    Genus is ranked on the bare leaves' tables by the branch-and-bound of
    `packed._minimizers`; only those members are built as values, in
    family order.
    """
    hits = _minimizers(m, e, sum)
    return SearchOutcome(hits[0].genus, hits)


def min_frobenius(m: int, e: int, stats: dict | None = None) -> SearchOutcome:
    """Least Frobenius number at (m, e), with every semigroup attaining it.

    Breadth-first walk of the multiplicity-m tree under a bound alpha: it
    starts at the interval-semigroup value, and once a level is read it
    falls to the least F of that level's dimension-e nodes.  A son of a
    level's node is built only if some descendant D of it, itself
    included, can have dimension e and F(D) <= alpha (`_sons(m, S, alpha,
    e)`).  Let S have generators s_0 < ... < s_(d-1), and let T be the son
    that removes s_i, so F(T) = s_i; F grows along every edge, and every
    descendant of T lies inside it.  A minimal generator n of T above F(D)
    is still minimal in D: n lies in D, and a sum of two nonzero elements
    of D would be one of T.
    - permanent generators: s_0..s_(i-1) lie below F(T), and a son removes
      only a generator above its parent's F, so they are never removed and
      stay minimal in D.  So e >= i.
    - reach: of s_(i+1) < ... < s_(d-1), those above F(D) stay minimal in
      D next to s_0..s_(i-1), so at most e - i of them exceed F(D), and at
      least d - 1 - e are <= F(D).  With F(D) >= F(T), that gives F(D) >=
      s_(i + max(0, d - 1 - e)), an index at most d - 1 since i <= e.
    A dimension-e node D that the walk without the cuts (every son with F
    <= alpha) finds has F(D) <= alpha at every level above it, since alpha
    only falls; so each ancestor of D builds the next son on the path to
    D, and D is found at the same level.  So alpha moves level by level as
    it does there, and the value and minimizers are the same.  No son of
    dimension below e is built: a node of dimension above e has sons of
    dimension e or more, and a dimension-e node has F >= alpha once its
    level is read, while its sons have F above its own.

    `stats["nodes"]` counts the nodes the walk without the cuts visits, by
    the depth-first `multiplicity_tree._count_nodes` with the recorded
    alpha of each level, and alpha's final value below the last: no node
    there has dimension e, or the walk would reach it.  A node with F <=
    alpha has genus at most F, so levels 0..alpha - (m-1) hold them all.
    The count runs only when `stats` is passed.
    """
    alpha = interval_frobenius(m, e)
    # Bare nodes; only these are wrapped into values at the end.
    best: list = []
    alphas = []
    level = [_root_node(m)]
    while level:
        hits = [T for T in level if len(T[0]) == e]
        if hits:
            alpha = min(alpha, min(T[2] for T in hits))
            best = [T for T in best + hits if T[2] == alpha]
        alphas.append(alpha)
        level = [T for S in level for T in _sons(m, S, alpha, e)]
    if stats is not None:
        k = alpha - (m - 1)
        stats["nodes"] = _count_nodes(m, k, alphas + [alpha] * k)
    assert best, "a minimizer always survives the pruning"
    return SearchOutcome(
        alpha, tuple(NumericalSemigroup(gens, w) for gens, w, _ in sorted(best))
    )


def min_frobenius_value_packed(m: int, e: int) -> int:
    """Least Frobenius number at (m, e), read off the packed family's tables."""
    return _minimizers(m, e, max)[0].frobenius


def min_frobenius_full_set(m: int, e: int) -> SearchOutcome:
    """Frobenius minimizers at (m, e) assembled class by class.

    Packing partitions the family into classes, one per packed member,
    and cannot raise the Frobenius number; so the minimizers are found
    inside the classes of the packed members attaining the minimum.
    The classes are disjoint, so their members are simply concatenated.
    Only the minimizing packed members are built as values; the rest of
    the family is pruned or ranked on its bare tables.
    """
    heads = _minimizers(m, e, max)
    collected = [T for S in heads for T in class_min_frobenius(S)]
    return SearchOutcome(heads[0].frobenius, tuple(sorted(collected)))


def wilf_audit(semigroups) -> tuple[WilfViolation, ...]:
    """Check e(S)*g(S) <= (e(S)-1)*(F(S)+1) on every input semigroup.

    The inequality is conjectured to always hold; any violation returned
    here is either an implementation bug or a publishable discovery, so
    callers must treat a non-empty report as fatal.
    """
    violations = []
    for S in sorted(semigroups):
        lhs = S.embedding_dim * S.genus
        rhs = (S.embedding_dim - 1) * (S.frobenius + 1)
        if lhs > rhs:
            violations.append(WilfViolation(semigroup=S, lhs=lhs, rhs=rhs))
    return tuple(violations)
