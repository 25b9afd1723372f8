"""The tree of all numerical semigroups sharing one multiplicity.

Rooted at the semigroup generated by m, m+1, ..., 2m-1, the tree hangs
every multiplicity-m semigroup at level g(S) - (m-1).  A node's sons
are obtained by deleting one minimal generator that exceeds the
Frobenius number (never the multiplicity itself); walking levels
breadth-first therefore enumerates by increasing genus.

The walks run on bare nodes, plain triples (min_gens, Apery entries, F)
of one tree; the multiplicity is the tree's and the genus is (m-1) plus
the level.  `root`, `sons` and `bfs_levels` wrap bare nodes into
`NumericalSemigroup` values, and the searches wrap only what they return.
No walk calls `make_semigroup` or a kernel.
"""
from __future__ import annotations

from typing import Iterator

# `make_semigroup` is bound only because the benchmark's tracer self-test
# checks it.
from .core import AperyTable, NumericalSemigroup, make_semigroup  # noqa: F401
from .errors import EmptyInput

__all__ = ["root", "sons", "bfs_levels"]


def _root_node(m: int) -> tuple:
    """Bare root of the multiplicity-m tree, in closed form, O(m).

    Every residue i > 0 first appears at m+i, so the entries are
    (0, m+1, ..., 2m-1) and F = max(entries) - m; all of m..2m-1 are
    minimal.  For m = 1 that is the naturals, with F = -1.
    """
    if m < 1:
        raise EmptyInput("at least one generator is required")
    entries = (0, *range(m + 1, 2 * m))
    return tuple(range(m, 2 * m)), entries, max(entries) - m


def _value(m: int, node: tuple, genus: int) -> NumericalSemigroup:
    gens, entries, frobenius = node
    return NumericalSemigroup(
        min_gens=gens,
        apery=AperyTable(modulus=m, entries=entries),
        frobenius=frobenius,
        genus=genus,
    )


def _sons(m: int, node: tuple, bound: int | None = None) -> list[tuple]:
    """Bare sons of a bare node of the multiplicity-m tree, sorted.

    Deleting a minimal generator x leaves a semigroup exactly when
    x > F(S) and x is not the multiplicity.  The son's Apery table
    differs from S's in the one entry x mod m, which moves from x to x+m;
    its Frobenius number is x.  Its minimal generators are those of S
    minus x, plus x+m unless x+m - n lies in the son for some remaining
    generator n other than m.  (Any other x+n equals (x+n-m) + m with
    x+n-m > F(S), so it is never minimal.)  Each son costs O(m + e).

    With `bound`, only the sons with Frobenius number <= bound are built.
    """
    msg, entries, floor = node
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
        out.append((gens, table, x))
    return out


def _levels(m: int) -> Iterator[list[tuple]]:
    """Bare levels 0, 1, 2, ... of the multiplicity-m tree, unsorted.

    Distinct parents never share a son (each node's parent is recovered
    by re-adjoining its Frobenius number), so concatenating the
    per-parent son lists lists every node of the next level exactly once.
    Only the current frontier is retained.
    """
    frontier = [_root_node(m)]
    while True:
        yield frontier
        frontier = [T for S in frontier for T in _sons(m, S)]


def root(m: int) -> NumericalSemigroup:
    """Largest multiplicity-m semigroup: 0 plus everything from m up."""
    return _value(m, _root_node(m), m - 1)


def sons(S: NumericalSemigroup, bound: int | None = None) -> tuple[NumericalSemigroup, ...]:
    """Sons of S in the tree for its own multiplicity, in sorted order.

    Each son is derived from S without a kernel call (see `_sons`); its
    genus is g(S)+1.  With `bound`, only the sons with Frobenius number
    <= bound are built.
    """
    m = S.multiplicity
    genus = S.genus + 1
    node = (S.min_gens, S.apery.entries, S.frobenius)
    return tuple(_value(m, T, genus) for T in _sons(m, node, bound))


def bfs_levels(m: int) -> Iterator[tuple[NumericalSemigroup, ...]]:
    """Yield levels 0, 1, 2, ... of the multiplicity-m tree on demand.

    Level k is the sorted tuple of all multiplicity-m semigroups of genus
    (m-1)+k.  Only the current frontier is retained.
    """
    for k, level in enumerate(_levels(m)):
        # Bare nodes order by their distinct min_gens, as values do.
        yield tuple(_value(m, T, (m - 1) + k) for T in sorted(level))
