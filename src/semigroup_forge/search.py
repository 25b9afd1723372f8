"""Minimal genus and minimal Frobenius number at fixed (m, e): the routes.

- `min_genus`, `min_frobenius`: the tree route, the pruned walks of the
  multiplicity-m tree, defined and proved in `multiplicity_tree`;
- `min_genus_packed`, `min_frobenius_value_packed`: the packed route,
  which ranks the tables of the finite packed family and builds values
  only for the members attaining the minimum;
- `min_frobenius_full_set`: the Frobenius minimizers, recovered from the
  minimizing packed members by searching their packing classes;
- `wilf_audit`: the Wilf inequality on any semigroups.

Every search returns a `SearchOutcome`, the minimum and its minimizers,
except `min_frobenius_value_packed`, which returns the minimum alone.  The
routes cross-check each other in the test suite.  Each refuses (m, e)
outside m >= e >= 2 through its first call, an interval formula or the
packed leaf walk, both gated by `core.require_family`.
"""
from __future__ import annotations

from .core import NumericalSemigroup, SearchOutcome, _Record
# The tree searches are re-exported; `sons` is bound only because the
# benchmark's tracer self-test checks it.
from .multiplicity_tree import min_frobenius, min_genus, sons  # noqa: F401
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


class WilfViolation(_Record):
    """A semigroup breaking e(S)*g(S) <= (e(S)-1)*(F(S)+1)."""

    __slots__ = ("semigroup", "lhs", "rhs")

    def __init__(self, semigroup: NumericalSemigroup, lhs: int, rhs: int):
        super().__init__(semigroup, lhs, rhs)


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
