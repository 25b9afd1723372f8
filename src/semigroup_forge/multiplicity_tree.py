"""The tree of all numerical semigroups sharing one multiplicity.

Rooted at the semigroup generated by m, m+1, ..., 2m-1, the tree hangs
every multiplicity-m semigroup at level g(S) - (m-1).  A node's sons
are obtained by deleting one minimal generator that exceeds the
Frobenius number (never the multiplicity itself); walking levels
breadth-first therefore enumerates by increasing genus.

A level built parent by parent from a sorted level, each parent's sons
in the sorted order of `_sons`, with or without a Frobenius bound, is
sorted by min_gens, so no walk sorts one.  Take nodes S < S' of one
level, and let d be the first index at which min_gens differ: s_d < s'_d
(neither tuple is a prefix of the other, or S' would lie inside S or S
inside S').  Two distinct nodes of one genus are never nested, and that
gives both halves of a lemma:
- every son of S removes a generator s_i with i > d.  Were i <= d, S'
  would lie inside S: s'_j = s_j for j < d, and s'_j >= s'_d > s_d >=
  s_i > F(S) for j >= d;
- every son of S' removes a generator s'_i with i >= d.  Were i < d, S
  would lie inside S': s_j = s'_j for j < i, and s_j >= s_i = s'_i >
  F(S') for j >= i.
A son keeps the generators before the one it removes, and appends x+m
when it gains one, larger than all of them (a minimal generator is at
most F + m < x + m).  So a son T of S starts with s_0..s_d, and a son T'
of S' starts with s_0..s_(d-1) and then holds at index d a generator at
least s'_d > s_d: s'_d, s'_(d+1) or the appended one.  If T' has nothing
at index d, its generators all lie in T, and T and T', distinct since
distinct parents never share a son, are nested.  So T < T': every son of
S comes before every son of S'.  The root level is one node, so every
level is sorted.

The walks run on bare nodes, plain triples (min_gens, Apery entries, F)
of one tree; the multiplicity is the tree's and the genus is (m-1) plus
the level, so no walk counts it.  `root`, `sons` and `bfs_levels` wrap
bare nodes into values by `NumericalSemigroup(min_gens, entries)`, passing
the node's own tuples; a value keeps only those two, reads F and g off the
table, and the oracle checks those reads.  The searches wrap only what
they return.
`_count_nodes(m, k, bounds)` counts the nodes at levels 0..k depth-first,
holding one path, optionally under a Frobenius bound per level;
`search.min_genus` and `search.min_frobenius` prune their walks and
report this count.
No walk calls `make_semigroup`, the class walk of `packed` included, and
no tree walk calls a kernel.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

# `make_semigroup` is bound only because the benchmark's tracer self-test
# checks it.
from .core import NumericalSemigroup, make_semigroup  # noqa: F401
from .errors import InvalidGenerator

__all__ = ["root", "sons", "bfs_levels"]


def _root_node(m: int) -> tuple:
    """Bare root of the multiplicity-m tree, in closed form, O(m).

    Every residue i > 0 first appears at m+i, so the entries are
    (0, m+1, ..., 2m-1) and F = max(entries) - m; all of m..2m-1 are
    minimal.  For m = 1 that is the naturals, with F = -1.
    """
    if m < 1:
        raise InvalidGenerator(f"multiplicity {m} is not positive")
    entries = (0, *range(m + 1, 2 * m))
    return tuple(range(m, 2 * m)), entries, max(entries) - m


def _sons(m: int, node: tuple, bound: int | None = None, e: int | None = None) -> list[tuple]:
    """Bare sons of a bare node of the multiplicity-m tree, sorted.

    Deleting a minimal generator x leaves a semigroup exactly when
    x > F(S) and x is not the multiplicity.  The son's Apery table
    differs from S's in the one entry x mod m, which moves from x to x+m;
    its Frobenius number is x.  Its minimal generators are those of S
    minus x, plus x+m unless x+m - n lies in the son for some remaining
    generator n other than m.  (Any other x+n equals (x+n-m) + m with
    x+n-m > F(S), so it is never minimal.)  The test may run over n = m
    too: x+m - m = x sits below the son's entry x+m, so m never claims
    x+m.  Each son costs O(m + e): one copy of the table, one of the
    generators.

    A node therefore has one son per minimal generator above F other than
    m, `len(gens) - bisect_right(gens, F, 1)` in all, and a son's
    dimension is its parent's or one less.

    With `bound`, only the sons with Frobenius number <= bound are built.
    With a target dimension e too, only the sons that can still have a
    descendant of dimension e, themselves included, with Frobenius number
    <= bound: for a node of dimension d, the son removing msg[i] is built
    only if i <= e and msg[i + shift] <= bound, shift = max(0, d - 1 - e)
    (the cuts are proved in `search.min_frobenius`).  With e alone, only
    i <= e is tested.  Each test holds for every i up to some index, so
    the loop starts at the lesser: min(e, d - 1), or, when the largest
    generator msg[d - 1] is over the bound, the last i that passes the
    second, found by one bisection.
    """
    msg, entries, floor = node
    start, shift = len(msg) - 1, 0
    if e is not None and e < start:
        start, shift = e, start - e
    if bound is not None and msg[-1] > bound:
        start = bisect_right(msg, bound) - 1 - shift
    out = []
    # Removing a larger generator gives a lexicographically smaller son,
    # so walking the generators downwards yields the sons sorted.
    for i in range(start, 0, -1):
        x = msg[i]
        if x <= floor:
            break
        top = x + m
        table = list(entries)
        table[x % m] = top
        table = tuple(table)
        rest = msg[:i] + msg[i + 1 :]
        for n in rest:
            z = top - n
            if z >= table[z % m]:
                gens = rest
                break
        else:
            gens = rest + (top,)
        out.append((gens, table, x))
    return out


def _count_nodes(m: int, k: int, bounds: list | None = None) -> int:
    """Nodes of the multiplicity-m tree at levels 0..k; level k is not built.

    With `bounds`, a node at level j < k keeps only its sons with Frobenius
    number <= bounds[j], as `_sons` does with that bound.  A depth-first
    walk with `_sons` builds levels 1..k-1, and each node at level k-1
    adds its son count read off its generators: those above F, other than
    m, and at most the bound.  It holds one son list per level of its
    path, never a whole level.
    """
    bounds = bounds or [None] * k
    node = _root_node(m)
    if k < 2:
        return 1 + (k and len(_sons(m, node, bounds[0])))
    nodes = 1
    path = [[node]]
    while path:
        family = path[-1]
        if not family:
            path.pop()
            continue
        family = _sons(m, family.pop(), bounds[len(path) - 1])
        nodes += len(family)
        if len(path) < k - 1:
            path.append(family)
        elif (b := bounds[k - 1]) is None:
            nodes += sum([len(gens) - bisect_right(gens, F, 1) for gens, _, F in family])
        else:
            nodes += sum([
                max(0, bisect_right(gens, b) - bisect_right(gens, F, 1)) for gens, _, F in family
            ])
    return nodes


def root(m: int) -> NumericalSemigroup:
    """Largest multiplicity-m semigroup: 0 plus everything from m up."""
    gens, entries, _ = _root_node(m)
    return NumericalSemigroup(gens, entries)


def sons(S: NumericalSemigroup, bound: int | None = None) -> tuple[NumericalSemigroup, ...]:
    """Sons of S in the tree for its own multiplicity, in sorted order.

    Each son is derived from S without a kernel call (see `_sons`); its
    genus is g(S)+1.  With `bound`, only the sons with Frobenius number
    <= bound are built.
    """
    m = S.multiplicity
    node = (S.min_gens, S.entries, S.frobenius)
    return tuple(NumericalSemigroup(gens, w) for gens, w, _ in _sons(m, node, bound))


def bfs_levels(m: int) -> Iterator[tuple[NumericalSemigroup, ...]]:
    """Yield levels 0, 1, 2, ... of the multiplicity-m tree on demand.

    Level k is the tuple of all multiplicity-m semigroups of genus
    (m-1)+k, sorted by construction.  Distinct parents never share a son
    (each node's parent is recovered by re-adjoining its Frobenius number),
    so concatenating the per-parent son lists lists every node of the next
    level exactly once, and in sorted order (see the module docstring).
    While the next level is built, it and the current one are both alive.
    """
    level = [_root_node(m)]
    while True:
        yield tuple(NumericalSemigroup(gens, w) for gens, w, _ in level)
        level = [T for S in level for T in _sons(m, S)]
