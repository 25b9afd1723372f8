"""Packed semigroups and their equivalence classes.

A semigroup is packed when all minimal generators fit in [m, 2m-1].
Packed semigroups with fixed multiplicity m and embedding dimension e
are few and easy to enumerate, and the packing map (reduce every
generator mod m, then add m) sends each member of L(m,e) to one of
them without ever raising genus or Frobenius number.  That makes the
packed family a complete set of class representatives on which both
minima can be read off, and each class can then be searched separately
for the full minimizing set.

The family is walked once, by `_leaves`, as bare (min_gens, table)
pairs.  Only `enumerate_packed` and the class walk wrap every node they
reach into a value; the searches rank the bare leaves through
`_minimizers` and wrap only the members they return.  Every value is
made by `core._from_table`, which reads F and g off the node's table.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from ._backend import SENTINEL, relax, residue_table
from .core import NumericalSemigroup, _from_table, make_semigroup, require_family
from .errors import Degenerate, InvalidGenerator, NotPacked

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


def _leaves(m: int, e: int) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """Each packed member at (m, e) as (min_gens, table), in family order.

    Each one is determined by the e-1 nonzero residues of its larger
    generators: the subset {a1 < a2 < ...} of {1, ..., m-1} yields the
    generators {m, m+a1, m+a2, ...}, which are automatically a minimal
    system, and a numerical semigroup when gcd(m, a1, a2, ...) is 1.
    The subsets are walked in lexicographic order as a prefix tree, with
    an explicit stack: each step copies the prefix's least-element table
    and adjoins one generator by `relax`, and the gcd filter runs before
    the last step.  Every yielded table is a fresh list the caller owns.
    """
    require_family(m, e)
    top = m - e + 1  # the largest first residue; position j goes up to top + j
    w = residue_table(m, ())
    gens = [m]  # m and one generator per residue chosen so far
    tables = [w]  # tables[j]: table of gens[:j + 1]
    gcds = [m]
    a = 1
    while True:
        j = len(gens) - 1
        if j == e - 2:
            for r in range(a, m):
                if gcd(gcds[j], r) == 1:
                    w = tables[j].copy()
                    relax(w, m, m + r)
                    yield (*gens, m + r), w
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
            return
        a = gens.pop() - m + 1
        tables.pop()
        gcds.pop()


def enumerate_packed(m: int, e: int) -> PackedFamily:
    """Every packed semigroup with multiplicity m and embedding dimension e.

    The members of `_leaves`, sorted by minimal generators, each wrapped
    into a value with F and g read off its table.  Searches that keep
    only a few members go through `_minimizers` instead.
    """
    members = tuple(_from_table(m, gens, w) for gens, w in _leaves(m, e))
    return PackedFamily(m=m, e=e, members=members)


def _minimizers(m: int, e: int, key) -> tuple[NumericalSemigroup, ...]:
    """Packed members at (m, e) with the least `key` of their table, in order.

    `sum` ranks by genus and `max` by Frobenius number, since g and F are
    increasing functions of them.  The family is scanned as bare leaves;
    only the members attaining the minimum are wrapped into values.
    """
    best, hits = None, []
    for gens, w in _leaves(m, e):
        k = key(w)
        if best is None or k < best:
            best, hits = k, [(gens, w)]
        elif k == best:
            hits.append((gens, w))
    return tuple(_from_table(m, gens, w) for gens, w in hits)


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
    """Sons of P in the tree of its packing class, in sorted order.

    Replacing a non-multiplicity generator n_k by n_k + m stays in the
    class; it is a son exactly when the new value exceeds the current
    largest generator and is not already representable by the remaining
    generators, which their table modulo m decides (a residue they miss,
    when their gcd exceeds 1, stays at SENTINEL).  They stay minimal, as
    the son lies inside P.  A son past the kernel range raises
    InvalidGenerator, as in `make_semigroup`.
    """
    m = P.multiplicity
    gens = P.min_gens
    out = []
    # Lifting a larger generator gives a lexicographically smaller son,
    # so walking the generators downwards yields the sons sorted.
    for k in range(len(gens) - 1, 0, -1):
        lifted = gens[k] + m
        if lifted <= gens[-1]:
            break
        rest = gens[:k] + gens[k + 1 :]
        w = residue_table(m, rest)
        if w[lifted % m] <= lifted:
            continue
        if m * lifted >= SENTINEL:
            raise InvalidGenerator(f"generator {lifted} exceeds the 62-bit kernel range")
        relax(w, m, lifted)
        out.append(_from_table(m, (*rest, lifted), w))
    return tuple(out)


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
    target = S.frobenius
    accepted = [S]
    frontier = [S]
    while frontier:
        frontier = [T for P in frontier for T in class_sons(P) if T.frobenius == target]
        accepted += frontier
    return tuple(sorted(accepted))
