"""Packed semigroups and their equivalence classes.

A semigroup is packed when all minimal generators fit in [m, 2m-1].
Packed semigroups with fixed multiplicity m and embedding dimension e
are few and easy to enumerate, and the packing map (reduce every
generator mod m, then add m) sends each member of L(m,e) to one of
them without ever raising genus or Frobenius number.  That makes the
packed family a complete set of class representatives on which both
minima can be read off, and each class can then be searched separately
for the full minimizing set.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from ._backend import SENTINEL, relax
from .core import (
    AperyTable,
    NumericalSemigroup,
    make_semigroup,
    monoid_contains,
    require_family,
)
from .errors import Degenerate, NotPacked

__all__ = [
    "PackedFamily",
    "enumerate_packed",
    "pack",
    "is_packed",
    "class_sons",
    "class_min_frobenius",
]


@dataclass(frozen=True)
class PackedFamily:
    """All packed semigroups with the given multiplicity and dimension."""

    m: int
    e: int
    members: tuple[NumericalSemigroup, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[NumericalSemigroup]:
        return iter(self.members)


def enumerate_packed(m: int, e: int) -> PackedFamily:
    """Every packed semigroup with multiplicity m and embedding dimension e.

    Each one is determined by the e-1 nonzero residues of its larger
    generators: the subset {a1 < a2 < ...} of {1, ..., m-1} yields the
    generators {m, m+a1, m+a2, ...}, which are automatically a minimal
    system, and a numerical semigroup when gcd(m, a1, a2, ...) is 1.
    The subsets are walked in lexicographic order as a prefix tree, with
    an explicit stack: each step copies the prefix's least-element table
    and adjoins one generator by `relax`, and the gcd filter runs before
    the last step.  F and g are read off each leaf's table.
    """
    require_family(m, e)
    top = m - e + 1  # the largest first residue; position j goes up to top + j
    shift = m * (m - 1) // 2
    w = [SENTINEL] * m
    w[0] = 0
    gens = [m]  # m and one generator per residue chosen so far
    tables = [w]  # tables[j]: table of gens[:j + 1]
    gcds = [m]
    members = []
    a = 1
    while True:
        j = len(gens) - 1
        if j == e - 2:
            for r in range(a, m):
                if gcd(gcds[j], r) == 1:
                    w = tables[j].copy()
                    relax(w, m, m + r)
                    entries = tuple(w)
                    members.append(NumericalSemigroup(
                        min_gens=(*gens, m + r),
                        apery=AperyTable(modulus=m, entries=entries),
                        frobenius=max(entries) - m,
                        genus=(sum(entries) - shift) // m,
                    ))
        elif a <= top + j:
            # The last value at a position leaves no sibling to need the
            # prefix's table again, so it is relaxed in place.
            w = tables[j] if a == top + j else tables[j].copy()
            relax(w, m, m + a)
            tables.append(w)
            gcds.append(gcd(gcds[j], a))
            gens.append(m + a)
            a += 1
            continue
        if j == 0:
            return PackedFamily(m=m, e=e, members=tuple(members))
        a = gens.pop() - m + 1
        tables.pop()
        gcds.pop()


def is_packed(S: NumericalSemigroup) -> bool:
    """True iff every minimal generator lies in [m, 2m-1]."""
    return S.max_gen < 2 * S.multiplicity


def pack(S: NumericalSemigroup) -> NumericalSemigroup:
    """Packed representative of S: generators reduced mod m, shifted by m.

    Identity on packed input.  The naturals are rejected: their single
    generator has residue 0 and the map has nothing to act on.
    """
    if S.embedding_dim < 2:
        raise Degenerate("packing needs at least two minimal generators")
    m = S.multiplicity
    return make_semigroup({m + (x % m) for x in S.min_gens})


def class_sons(P: NumericalSemigroup) -> tuple[NumericalSemigroup, ...]:
    """Sons of P in the tree of its packing class.

    Replacing a non-multiplicity generator n_k by n_k + m stays in the
    class; it is a son exactly when the new value exceeds the current
    largest generator and is not already representable by the remaining
    generators.  Those generators may have gcd > 1, hence the bounded
    monoid check instead of semigroup membership.
    """
    m = P.multiplicity
    out = []
    for k in range(1, P.embedding_dim):
        lifted = P.min_gens[k] + m
        if lifted <= P.max_gen:
            continue
        rest = P.min_gens[:k] + P.min_gens[k + 1 :]
        if monoid_contains(rest, lifted):
            continue
        son = make_semigroup((*rest, lifted))
        # The replacement set is provably minimal; a shrunken msg here
        # would mean a membership bug upstream, not a bad input.
        assert son.min_gens == (*rest, lifted), son
        out.append(son)
    return tuple(sorted(out))


def class_min_frobenius(S: NumericalSemigroup) -> tuple[NumericalSemigroup, ...]:
    """All semigroups in the packing class of S with the same Frobenius number.

    S must be packed (it is then the class root, realizing the minimal
    Frobenius number of the class).  BFS over the class tree, keeping
    only sons whose Frobenius number still equals F(S); generator sums
    grow strictly along class edges, so the walk terminates.  Each member
    has one parent (lower its largest generator by m), so no member is
    reached twice.
    """
    if not is_packed(S):
        raise NotPacked(f"{S!r} has a minimal generator >= 2*m")
    if S.embedding_dim < 2:
        return (S,)
    target = S.frobenius
    accepted = [S]
    frontier = [S]
    while frontier:
        frontier = [T for P in frontier for T in class_sons(P) if T.frobenius == target]
        accepted += frontier
    return tuple(sorted(accepted))
