"""The minimization routes at fixed (m, e), by home, and the Wilf audit.

`multiplicity_tree` defines `min_genus` and `min_frobenius`; `packed`
defines `min_genus_packed`, `min_frobenius_packed`, `min_frobenius_full_set`
and `min_frobenius_value_packed`, the one route returning the minimum alone
rather than a `SearchOutcome`.  The routes cross-check each other in tests.
"""
from __future__ import annotations

from collections import namedtuple

from .core import SearchOutcome
# `sons` is bound only because the benchmark's tracer self-test checks it.
from .multiplicity_tree import min_frobenius, min_genus, sons  # noqa: F401
from .packed import min_frobenius_full_set, min_frobenius_packed
from .packed import min_frobenius_value_packed, min_genus_packed

__all__ = [
    "SearchOutcome",
    "WilfViolation",
    "min_genus",
    "min_genus_packed",
    "min_frobenius",
    "min_frobenius_packed",
    "min_frobenius_value_packed",
    "min_frobenius_full_set",
    "wilf_audit",
]


class WilfViolation(namedtuple("WilfViolation", "semigroup lhs rhs")):
    """A semigroup breaking e(S)*g(S) <= (e(S)-1)*(F(S)+1)."""

    __slots__ = ()


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
