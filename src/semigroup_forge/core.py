"""Numerical-semigroup values and per-semigroup arithmetic.

A numerical semigroup is a subset of the non-negative integers that
contains 0, is closed under addition, and has finite complement.  The
value type here stores the minimal generating set and the least-element
(Apery) table of its multiplicity, nothing else; multiplicity, embedding
dimension, Frobenius number and genus are read off them.  An Apery table
is a plain tuple, entry i the least member congruent to i modulo its
length.  Construction from generators goes through `make_semigroup`;
the walks, which already hold each node's table, call the class
directly.  All values are immutable and hashable, and so is
`SearchOutcome`, the named tuple a search returns.

The closed formulas for interval-generated semigroups (generators
m, m+1, ..., m+e-1) live here too, since they double as search bounds,
as does the level-count lower bound on the genus, and so does the one
gate on (m, e) that every family-level routine uses.
"""
from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import total_ordering
from math import comb, gcd

from ._backend import SENTINEL, minimal_residues, residue_table
from .errors import (
    BadDimension,
    EmptyInput,
    InvalidGenerator,
    NotMember,
    NotNumerical,
)

__all__ = [
    "Existence",
    "NumericalSemigroup",
    "SearchOutcome",
    "make_semigroup",
    "apery_set",
    "existence",
    "require_family",
    "sylvester_frobenius",
    "interval_apery",
    "interval_genus",
    "interval_frobenius",
    "genus_lower_bound",
    "monoid_contains",
]


@total_ordering
class NumericalSemigroup:
    """A numerical semigroup: minimal generators and least-element table.

    `entries[i]` is the least member congruent to i modulo the
    multiplicity `min_gens[0]`; the caller passes both, as a tuple each.
    Identity, hashing, and ordering all go through `min_gens`, which is
    canonical (strictly increasing, minimal).  Multiplicity, embedding
    dimension and largest generator are read off `min_gens`; F and g
    off `entries` by Selmer's formulas, each in O(m).  Membership
    testing is `n in S`; it reads `entries`.
    """

    __slots__ = ("min_gens", "entries")

    def __init__(self, min_gens: tuple[int, ...], entries: tuple[int, ...]):
        # The slots' own setters: every walk builds its values here, and
        # they cost two thirds of `object.__setattr__`.
        _set_min_gens(self, min_gens)
        _set_entries(self, entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__, not setattr
        return type(self), (self.min_gens, self.entries)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.min_gens == other.min_gens
        return NotImplemented

    def __hash__(self):
        return hash((self.min_gens,))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.min_gens < other.min_gens
        return NotImplemented

    @property
    def multiplicity(self) -> int:
        return self.min_gens[0]

    @property
    def frobenius(self) -> int:
        """max(Ap) - m: entry i is i plus m per gap in its class."""
        return max(self.entries) - self.min_gens[0]

    @property
    def genus(self) -> int:
        """(sum(Ap) - m(m-1)/2) / m, the gap count over all classes."""
        m = self.min_gens[0]
        return (sum(self.entries) - m * (m - 1) // 2) // m

    @property
    def embedding_dim(self) -> int:
        return len(self.min_gens)

    @property
    def max_gen(self) -> int:
        return self.min_gens[-1]

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        return n >= self.entries[n % self.min_gens[0]]

    def __repr__(self) -> str:
        return "⟨" + ",".join(str(g) for g in self.min_gens) + "⟩"


_set_min_gens = NumericalSemigroup.min_gens.__set__
_set_entries = NumericalSemigroup.entries.__set__


class SearchOutcome(namedtuple("SearchOutcome", "value minimizers")):
    """Result of one minimization: the value and everything attaining it.

    The caller knows what it asked for (genus or Frobenius number, at
    which m and e); a genus minimum sits at tree level value - (m-1).
    """

    __slots__ = ()


def _check_generators(generators) -> list[int]:
    gens = set()
    for g in generators:
        if not isinstance(g, int) or isinstance(g, bool):
            raise InvalidGenerator(f"generator {g!r} is not an integer")
        if g < 1:
            raise InvalidGenerator(f"generator {g} is not positive")
        gens.add(g)
    if not gens:
        raise EmptyInput("at least one generator is required")
    return sorted(gens)


def make_semigroup(generators) -> NumericalSemigroup:
    """Build the canonical semigroup value for the given generators.

    Duplicates are dropped; redundant generators are removed, so
    `min_gens` is always the minimal system.  Raises EmptyInput on an
    empty collection, InvalidGenerator on a non-positive entry, and
    NotNumerical when the gcd of the generators exceeds 1 (the monoid
    then misses whole residue classes and is not a numerical semigroup).
    Apery entries stay below m * max_gen, so inputs with m * max_gen at or
    above the kernel's 62-bit sentinel raise InvalidGenerator rather than
    have entries read as empty classes.
    """
    gens = _check_generators(generators)
    if gens[0] * gens[-1] >= SENTINEL:
        raise InvalidGenerator(
            f"generators {gens[0]} and {gens[-1]} exceed the 62-bit kernel range"
        )
    g = gcd(*gens)
    if g != 1:
        raise NotNumerical(f"gcd of generators is {g}, not 1")
    m = gens[0]
    w = residue_table(m, gens)
    return NumericalSemigroup((m, *(w[i] for i in minimal_residues(m, w, gens))), tuple(w))


def apery_set(S: NumericalSemigroup, n: int) -> tuple[int, ...]:
    """Apery table of S modulo a nonzero member n, entry i congruent to i."""
    if n == 0 or n not in S:
        raise NotMember(f"{n} is not a nonzero member of {S!r}")
    return tuple(residue_table(n, S.min_gens))


def sylvester_frobenius(n1: int, n2: int) -> int:
    """Frobenius number of a two-generator semigroup: n1*n2 - n1 - n2."""
    if n1 < 1 or n2 < 1:
        raise InvalidGenerator("generators must be positive")
    if gcd(n1, n2) != 1:
        raise NotNumerical(f"gcd({n1},{n2}) = {gcd(n1, n2)}")
    return n1 * n2 - n1 - n2


class Existence(Enum):
    """Classification of the family with multiplicity m and dimension e."""

    EMPTY = "Empty"
    ONLY_NATURALS = "OnlyNaturals"
    NON_EMPTY = "NonEmpty"


def existence(m: int, e: int) -> Existence:
    """Whether any numerical semigroup has multiplicity m and dimension e.

    Empty when m < e (the dimension never exceeds the multiplicity) and
    when e = 1 < m (dimension one forces the naturals).  The pair (1, 1)
    is realized by the naturals alone; everything else with m >= e >= 2
    is realized, for instance by the interval semigroup.
    """
    if m < 1 or e < 1:
        return Existence.EMPTY
    if m == 1 and e == 1:
        return Existence.ONLY_NATURALS
    if e >= 2 and m >= e:
        return Existence.NON_EMPTY
    return Existence.EMPTY


def require_family(m: int, e: int) -> None:
    """Refuse any (m, e) outside m >= e >= 2, naming the family's class."""
    if not (m >= e >= 2):
        cls = existence(m, e)
        raise BadDimension(
            f"need m >= e >= 2, got m={m}, e={e} (family is {cls.value})",
            classification=cls,
        )


def interval_apery(m: int, e: int) -> tuple[int, ...]:
    """Apery table of the interval semigroup with generators m..m+e-1.

    Closed form, no search: the nonzero residues fall in blocks of e-1,
    and residue i of block t = ceil(i/(e-1)) first appears at t*m + i.
    """
    require_family(m, e)
    return tuple(m * -(-i // (e - 1)) + i for i in range(m))


def interval_genus(m: int, e: int) -> int:
    """Genus of the interval semigroup with generators m..m+e-1."""
    require_family(m, e)
    q, r = divmod(m - 1, e - 1)
    return (q + 1) * q * (e - 1) // 2 + (q + 1) * r


def interval_frobenius(m: int, e: int) -> int:
    """Frobenius number of the interval semigroup: ceil((m-1)/(e-1))*m - 1."""
    require_family(m, e)
    return -((-(m - 1)) // (e - 1)) * m - 1


def _least_levels(m: int, e: int) -> list[int]:
    """Lower bounds on the sorted Apery levels of any member of L(m, e).

    Entry t bounds the t-th smallest level (w - i) / m of the m-1 nonzero
    residues; see `genus_lower_bound` for the argument.
    """
    require_family(m, e)
    levels: list[int] = []
    k = 0
    while len(levels) < m - 1:
        k += 1
        levels += [k] * min(comb(e - 2 + k, k), m - 1 - len(levels))
    return levels


def genus_lower_bound(m: int, e: int) -> int:
    """A lower bound on the genus of every semigroup in L(m, e), no search.

    The least element of a nonzero residue is a sum of some j >= 1 of the
    e-1 generators other than m, each above m, so it lies above j*m: its
    Apery coefficient (its level) is at least j.  Only C(e-2+j, j)
    residues (the multisets of size j) can need exactly j summands, so at
    most C(e-1+k, k) - 1 residues sit at level k or below.  The genus is
    the sum of the m-1 levels, hence at least the sum of filling the
    levels greedily, C(e-2+k, k) residues at level k.  The bound is exact
    on the edge rows (e = m gives m-1 and e = 2 gives m(m-1)/2) and on
    most small cells, and 1-3 below the minimal genus on the others.
    """
    return sum(_least_levels(m, e))


def monoid_contains(generators, n: int) -> bool:
    """Whether n is a non-negative integer combination of the generators.

    Works for any generator set, including gcd > 1, which rules out the
    Apery machinery; a bounded reachability table up to n is used instead,
    which adjoins the generators exactly in any order.
    """
    if n < 0:
        return False
    if n == 0:
        return True
    gens = [g for g in set(generators) if 1 <= g <= n]
    reachable = bytearray(n + 1)
    reachable[0] = 1
    for g in gens:
        for i in range(g, n + 1):
            if reachable[i - g]:
                reachable[i] = 1
    return bool(reachable[n])
