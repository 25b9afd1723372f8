"""The tree of all numerical semigroups sharing one multiplicity.

Rooted at the semigroup generated by m, m+1, ..., 2m-1, the tree hangs
every multiplicity-m semigroup at level g(S) - (m-1).  A node's sons
are obtained by deleting one minimal generator that exceeds the
Frobenius number (never the multiplicity itself); walking levels
breadth-first therefore enumerates by increasing genus.
"""
from __future__ import annotations

from operator import attrgetter
from typing import Iterator

from .core import AperyTable, NumericalSemigroup, make_semigroup

__all__ = ["root", "sons", "bfs_levels"]


def root(m: int) -> NumericalSemigroup:
    """Largest multiplicity-m semigroup: 0 plus everything from m up."""
    return make_semigroup(range(m, 2 * m))


def sons(S: NumericalSemigroup, bound: int | None = None) -> tuple[NumericalSemigroup, ...]:
    """Sons of S in the tree for its own multiplicity, in sorted order.

    Deleting a minimal generator x leaves a semigroup exactly when
    x > F(S) and x is not the multiplicity.  The son is derived from S
    without a kernel call: its Apery table differs from S's in the one
    entry x mod m, which moves from x to x+m; its Frobenius number is x
    and its genus g(S)+1.  Its minimal generators are those of S minus x,
    plus x+m unless x+m - n lies in the son for some remaining generator
    n other than m.  (Any other x+n equals (x+n-m) + m with x+n-m > F(S),
    so it is never minimal.)  Each son costs O(m + e).

    With `bound`, only the sons with Frobenius number <= bound are built.
    """
    m = S.multiplicity
    msg = S.min_gens
    entries = S.apery.entries
    floor = S.frobenius
    genus = S.genus + 1
    out = []
    # Removing a larger generator gives a lexicographically smaller son,
    # so walking the generators downwards yields the sons sorted.
    for i in range(len(msg) - 1, 0, -1):
        x = msg[i]
        if x <= floor:
            break
        if bound is not None and x > bound:
            continue
        r = x % m
        top = x + m
        table = entries[:r] + (top,) + entries[r + 1 :]
        rest = msg[:i] + msg[i + 1 :]
        for n in rest[1:]:
            z = top - n
            if z >= table[z % m]:
                gens = rest
                break
        else:
            gens = rest + (top,)
        out.append(
            NumericalSemigroup(
                min_gens=gens,
                apery=AperyTable(modulus=m, entries=table),
                frobenius=x,
                genus=genus,
            )
        )
    return tuple(out)


def bfs_levels(m: int) -> Iterator[tuple[NumericalSemigroup, ...]]:
    """Yield levels 0, 1, 2, ... of the multiplicity-m tree on demand.

    Level k is the sorted tuple of all multiplicity-m semigroups of genus
    (m-1)+k.  Only the current frontier is retained.  Distinct parents
    never share a son (each node's parent is recovered by re-adjoining its
    Frobenius number), so concatenating the per-parent son lists lists
    every node of the next level exactly once.
    """
    frontier = (root(m),)
    while True:
        yield frontier
        merged = [T for S in frontier for T in sons(S)]
        merged.sort(key=attrgetter("min_gens"))
        frontier = tuple(merged)
