"""The tree of all numerical semigroups sharing one multiplicity, and its searches.

Rooted at the semigroup generated by m, m+1, ..., 2m-1, the tree hangs
every multiplicity-m semigroup at level g(S) - (m-1).  Its walks run on
bare nodes, triples (min_gens, Apery entries, F) of one tree: the
multiplicity is the tree's and the genus is (m-1) plus the level, so no
walk counts it.  `_values` alone wraps bare nodes into values, from each
node's own two tuples; `root`, `sons`, `bfs_levels` and the searches
`min_genus` and `min_frobenius` call it, the searches only for what they
return.  No walk calls `make_semigroup` or a kernel.  The functions cite
these parts:

1. Son rule.  The sons of S are the semigroups S minus x, for each
   minimal generator x > F(S) other than m: each has multiplicity m and
   Frobenius number x.  A son's table differs from S's in the entry
   x mod m, which moves from x to x+m.  Its minimal generators are those
   of S minus x, plus x+m unless x+m - n lies in the son for some
   remaining generator n; n = m never claims it, as x is not in the son,
   and any other x+n = (x+n-m) + m with x+n-m > F(S) is never minimal.
   So a node has `len(gens) - bisect_right(gens, F, 1)` sons; F grows
   along every edge; a son's dimension is its parent's or one less, and
   it keeps the generators below the one it removes and appends x+m,
   larger than all of them (a minimal generator is at most F + m < x + m).
   A node's parent is the node with its F adjoined, so distinct parents
   never share a son.
2. Sorted levels.  A level built parent by parent from a sorted level,
   each parent's sons in `_sons`' order, under any per-parent cuts, is
   sorted by min_gens.  Take nodes S < S' of one level, d the first index
   where their generators differ (neither is a prefix of the other, as
   two distinct nodes of one genus are never nested): s_d < s'_d.  A son
   of S removes some s_i with i > d: were i <= d, S' would lie inside S
   (s'_j = s_j for j < d, and s'_j >= s'_d > s_d >= s_i > F(S) for
   j >= d).  A son of S' removes some s'_i with i >= d: were i < d, S
   would lie inside S' (s_j = s'_j for j < i, and s_j >= s_i = s'_i >
   F(S') for j >= i).  By part 1 a son T of S starts with
   s_0..s_d, and a son T' of S' with s_0..s_(d-1), then at index d a
   generator above s_d or nothing; with nothing T' would lie inside T,
   though T != T' (part 1).  So T < T', and as the root level is one
   node, every level is sorted.
3. Cuts toward dimension e.  Let S have generators s_0 < ... < s_(d-1),
   T at level k the son removing s_i, and D a descendant of T, itself
   included: D lies inside T, and F(D) >= F(T) = s_i.  A minimal
   generator n of T above F(D) is still minimal in D: n lies in D, and a
   sum of two nonzero elements of D would be one of T.  If D has
   dimension e:
   - permanent generators: s_0..s_(i-1) lie below F(T) and are never
     removed (part 1), so they stay minimal in D, and i <= e;
   - reach: s_(i+1) < ... < s_(d-1) are minimal in T (part 1), and at
     most e - i of them exceed F(D), so at least d - 1 - e do not, and
     F(D) >= s_(i + max(0, d - 1 - e)), an index at most d - 1;
   - deficit: the dimension falls by at most one per edge, so D lies at
     level k + dim(T) - e or deeper.
4. Exact searches.  `min_genus` walks levels from the root; the first
   level holding dimension-e nodes holds exactly the minimizers, and a
   seed, a member of L(m, e) at level L, bounds the walk: the diagonal
   member of part 6 where it exists, else the interval semigroup.  Every
   node above the first hit has dimension above e, as the root has m, so
   (part 1) the hits are sons of dimension-(e+1) nodes.  Each level builds
   those near sons first, each family at its parent's place; if one has
   dimension e, the near sons' hits are the minimizers, else the next
   level is built parent by parent from the near families and the rest's
   sons.  It keeps a son only if it passes the permanent-generator cut
   and the deficit cut against L; every ancestor of a minimizer passes
   both, and every level and the hits come out sorted (part 2).
   `min_frobenius` walks levels under a bound alpha: it starts at the
   seed's F, the lesser of the interval semigroup's and the diagonal
   member's, and once a level is read falls to the least F of its
   dimension-e nodes.  It builds only the sons that pass the
   permanent-generator and reach cuts with F(D) <= alpha.  A dimension-e
   node D that the walk without the cuts (every son with F <= alpha)
   finds has F(D) <= alpha at every level above it, as alpha only falls,
   so each ancestor of D builds the next son toward D and D is found at
   the same level.  So alpha moves level by level as in that walk, with
   the same value and minimizers.  No son of dimension below e is built:
   a node of dimension e has F >= alpha once its level is read, and its
   sons have larger F.  Any seed at or above the minimum gives the same
   answer; one below it leaves the walk with no hit, which raises rather
   than returning an empty answer.
5. Node counts.  With `stats`, a search stores in `stats["nodes"]` the
   count `_count_nodes` makes of its walk without the cuts; it runs only
   then.  For `min_genus` that is every node of genus up to the minimum;
   for `min_frobenius`, every node under the recorded alpha of each
   level, and below the last level under alpha's final value: no node
   there has dimension e, or the walk would reach it.  A node with F <=
   alpha has genus at most F, so levels 0..alpha - (m-1) hold them all.
   The recorded alphas depend on where alpha starts, so with `stats`
   `min_frobenius` starts at the interval semigroup's F whatever the
   seed, and its count stays the pinned one.  `min_genus`'s count depends
   on the minimum alone, so it seeds either way.
6. The diagonal member.  Let d = m - e >= 1, and B a 2-basis of [1, t]
   with t - d elements, all in [1, t-1]: B and B + B cover [1, t].  When
   t <= m - 1, the diagonal member D, made of 0, m, the m + b for b in B
   and every number from m + t + 1 on, lies in L(m, e), with F = m + t
   and genus 2m - e - 1.  Every sum of two nonzero elements of D is at
   least 2m > m + t, so D is closed under addition and its minimal
   generators are m, the m + b for b in B, and m + t + 1, ..., 2m - 1:
   1 + (t - d) + (m - 1 - t) = e of them.  No 2m + j is one: for j <= t,
   j lies in B or B + B, and for j > t, 2m + j = m + (m + j).  Its gaps
   are 1..m-1 and the d numbers of m + [1, t] outside m + B.  No member
   of L(m, e) has a smaller genus: the Apery entry of each of its m - e
   nonzero residues that hold no minimal generator sums at least two
   generators, each above m, so its level is at least 2, and the other
   e - 1 levels are at least 1.  So `min_genus` stops at level d.
   `_TWO_BASES` pins, for d <= 16, the least such t with one B, matching
   ROADMAP item 3's T(d); above, B = [1, d] with t = 2d.  A wrong entry
   cannot give a wrong answer (part 4).
"""
from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

from ._backend import SENTINEL
from .core import NumericalSemigroup, SearchOutcome, interval_frobenius, interval_genus
# `make_semigroup` is bound only because the benchmark's tracer self-test
# checks it.
from .core import make_semigroup  # noqa: F401
from .errors import InvalidGenerator

__all__ = ["root", "sons", "bfs_levels", "min_genus", "min_frobenius"]


# d: (t, B) for part 6, the least t with a 2-basis B of [1, t] of t - d
# numbers in [1, t-1]; each B was found by exhaustive search.
_TWO_BASES = {
    1: (2, (1,)), 2: (4, (1, 2)), 3: (6, (1, 2, 3)), 4: (7, (1, 2, 5)),
    5: (8, (1, 3, 4)), 6: (10, (1, 2, 3, 7)), 7: (11, (1, 3, 5, 6)),
    8: (12, (1, 3, 5, 6)), 9: (14, (1, 2, 3, 7, 10)),
    10: (15, (1, 3, 4, 9, 11)), 11: (16, (1, 3, 5, 7, 8)),
    12: (18, (1, 2, 3, 4, 9, 13)), 13: (19, (1, 2, 5, 8, 9, 10)),
    14: (20, (1, 2, 5, 8, 9, 10)), 15: (22, (1, 2, 3, 4, 5, 11, 16)),
    16: (23, (1, 2, 3, 4, 9, 13, 19)),
}


def _two_basis(d: int) -> tuple:
    """(t, B) of the diagonal member for d = m - e (part 6)."""
    return _TWO_BASES.get(d) or (2 * d, tuple(range(1, d + 1)))


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


def _values(nodes) -> tuple[NumericalSemigroup, ...]:
    """The values of bare nodes, in their order."""
    return tuple(NumericalSemigroup(gens, w) for gens, w, _ in nodes)


def _sons(m: int, node: tuple, bound: int | None = None, e: int | None = None) -> list[tuple]:
    """Bare sons of a bare node of the multiplicity-m tree, sorted (part 1).

    Each son costs O(m + e): one copy of the table, one of the generators.
    With `bound`, only the sons with Frobenius number <= bound are built.
    With a target dimension e too, only those passing the permanent-
    generator and reach cuts of part 3 with F(D) <= bound: for a node of
    dimension d, the son removing msg[i] is built only if i <= e and
    msg[i + shift] <= bound, shift = max(0, d - 1 - e).  With e alone,
    only i <= e is tested.  Each test holds for every i up to some index,
    so the loop starts at the lesser: min(e, d - 1), or, when the largest
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
    adds its son count read off its generators (part 1): those above F,
    other than m, and at most the bound.  It holds one son list per level
    of its path, never a whole level.
    """
    bounds = bounds or [SENTINEL] * k
    nodes, path, family = 1, [], [_root_node(m)]
    while True:
        if len(path) < k - 1:
            path.append(family)
        elif len(path) == k - 1:
            b = bounds[k - 1]
            nodes += sum([
                max(0, bisect_right(gens, b) - bisect_right(gens, F, 1)) for gens, _, F in family
            ])
        while path and not path[-1]:
            path.pop()
        if not path:
            return nodes
        family = _sons(m, path[-1].pop(), bounds[len(path) - 1])
        nodes += len(family)


def root(m: int) -> NumericalSemigroup:
    """Largest multiplicity-m semigroup: 0 plus everything from m up."""
    return _values([_root_node(m)])[0]


def sons(S: NumericalSemigroup, bound: int | None = None) -> tuple[NumericalSemigroup, ...]:
    """Sons of S in the tree for its own multiplicity, in sorted order.

    Each son is derived from S without a kernel call (part 1); its genus
    is g(S)+1.  With `bound`, only the sons with Frobenius number <= bound
    are built.
    """
    return _values(_sons(S.multiplicity, (S.min_gens, S.entries, S.frobenius), bound))


def bfs_levels(m: int) -> Iterator[tuple[NumericalSemigroup, ...]]:
    """Yield levels 0, 1, 2, ... of the multiplicity-m tree on demand.

    Level k is the tuple of all multiplicity-m semigroups of genus
    (m-1)+k, each listed once and in sorted order (parts 1 and 2).  While
    the next level is built, it and the current one are both alive.
    """
    level = [_root_node(m)]
    while True:
        yield _values(level)
        level = [T for S in level for T in _sons(m, S)]


def min_genus(m: int, e: int, stats: dict | None = None) -> SearchOutcome:
    """Least genus among semigroups with multiplicity m and dimension e.

    Returns the minimum and every minimizer, sorted, by the pruned
    breadth-first walk of part 4; `stats["nodes"]` is set as part 5 says.
    """
    last_level = interval_genus(m, e) - (m - 1)
    if _two_basis(m - e)[0] < m:
        last_level = m - e  # the diagonal member's level (part 6)
    top = last_level + e
    level = [_root_node(m)]
    hits = level if e == m else []  # the root has dimension m
    k = 0
    while not hits:
        if k == last_level:
            raise AssertionError(f"no dimension-{e} node by level {last_level}, the seed's")
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
    return SearchOutcome((m - 1) + k, _values(hits))


def min_frobenius(m: int, e: int, stats: dict | None = None) -> SearchOutcome:
    """Least Frobenius number at (m, e), with every semigroup attaining it.

    Returns the minimum and every minimizer, sorted, by the walk under a
    falling bound of part 4; `stats["nodes"]` is set as part 5 says.
    """
    alpha = interval_frobenius(m, e)
    t = _two_basis(m - e)[0]
    if t < m and stats is None:
        alpha = min(alpha, m + t)  # the diagonal member's F (part 6)
    seed = alpha
    best: list = []  # bare minimizers so far
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
    if not best:
        raise AssertionError(f"no dimension-{e} node with F <= {seed}, the seed's")
    return SearchOutcome(alpha, _values(sorted(best)))
