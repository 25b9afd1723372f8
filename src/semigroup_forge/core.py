"""Numerical-semigroup values and per-semigroup arithmetic.

A numerical semigroup is a subset of the non-negative integers that
contains 0, is closed under addition, and has finite complement.  The
value type here stores the minimal generating set, the Apery table,
the Frobenius number and the genus; multiplicity, embedding dimension
and the Apery coefficients are read off them.  Construction goes through
`make_semigroup`; all values are immutable and hashable.

The closed formulas for interval-generated semigroups (generators
m, m+1, ..., m+e-1) live here too, since they double as search bounds,
and so does the one gate on (m, e) that every family-level routine uses.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import gcd

from ._backend import SENTINEL, minimal_residues, residue_table
from .errors import (
    BadDimension,
    EmptyInput,
    InvalidGenerator,
    NotCoprime,
    NotMember,
    NotNumerical,
)

__all__ = [
    "AperyTable",
    "Existence",
    "NumericalSemigroup",
    "make_semigroup",
    "apery_set",
    "existence",
    "require_family",
    "sylvester_frobenius",
    "interval_apery",
    "interval_genus",
    "interval_frobenius",
    "monoid_contains",
]


@dataclass(frozen=True)
class AperyTable:
    """Least semigroup element per residue class.

    `entries[i]` is the least member congruent to i modulo `modulus`.
    Entry 0 is always 0.
    """

    modulus: int
    entries: tuple[int, ...]

    @property
    def coefficients(self) -> tuple[int, ...]:
        """The k with entries[i] = k*modulus + i, per residue i."""
        m = self.modulus
        return tuple((w - i) // m for i, w in enumerate(self.entries))


@dataclass(frozen=True, order=True, repr=False)
class NumericalSemigroup:
    """A numerical semigroup: minimal generators, Apery table, F and g.

    Identity, hashing, and ordering all go through `min_gens`, which is
    canonical (strictly increasing, minimal).  Multiplicity, embedding
    dimension and largest generator are read off `min_gens`.  F and g
    are stored although the Apery table determines them: reading them
    off it costs O(m), and callers read them on every member they list.
    Membership testing is `n in S`; it reads the Apery table.
    """

    min_gens: tuple[int, ...]
    apery: AperyTable = field(compare=False)
    frobenius: int = field(compare=False)
    genus: int = field(compare=False)

    @property
    def multiplicity(self) -> int:
        return self.min_gens[0]

    @property
    def embedding_dim(self) -> int:
        return len(self.min_gens)

    @property
    def max_gen(self) -> int:
        return self.min_gens[-1]

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        return n >= self.apery.entries[n % self.multiplicity]

    def __repr__(self) -> str:
        return "⟨" + ",".join(str(g) for g in self.min_gens) + "⟩"


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
    have entries read as unreachable.
    """
    gens = _check_generators(generators)
    if gens[0] * gens[-1] >= SENTINEL:
        raise InvalidGenerator(
            f"generators {gens[0]} and {gens[-1]} exceed the 62-bit kernel range"
        )
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        raise NotNumerical(f"gcd of generators is {g}, not 1")
    m = gens[0]
    coeffs = tuple(residue_table(m, gens))
    entries = tuple(k * m + i for i, k in enumerate(coeffs))
    frobenius = max(entries) - m
    genus = sum(coeffs)
    if m == 1:
        msg = (1,)
    else:
        msg = (m, *(entries[i] for i in minimal_residues(m, coeffs, gens)))
    return NumericalSemigroup(
        min_gens=msg,
        apery=AperyTable(modulus=m, entries=entries),
        frobenius=frobenius,
        genus=genus,
    )


def apery_set(S: NumericalSemigroup, n: int) -> AperyTable:
    """Apery table of S with respect to any nonzero member n."""
    if n == 0 or n not in S:
        raise NotMember(f"{n} is not a nonzero member of {S!r}")
    coeffs = tuple(residue_table(n, (*S.min_gens, n)))
    entries = tuple(k * n + i for i, k in enumerate(coeffs))
    return AperyTable(modulus=n, entries=entries)


def sylvester_frobenius(n1: int, n2: int) -> int:
    """Frobenius number of a two-generator semigroup: n1*n2 - n1 - n2."""
    if n1 < 1 or n2 < 1:
        raise InvalidGenerator("generators must be positive")
    if gcd(n1, n2) != 1:
        raise NotCoprime(f"gcd({n1},{n2}) = {gcd(n1, n2)}")
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


def interval_apery(m: int, e: int) -> AperyTable:
    """Apery table of the interval semigroup with generators m..m+e-1.

    Built blockwise, no search: writing m-1 = q(e-1)+r, the nonzero
    entries are q full blocks of e-1 consecutive values plus a partial
    block of r values, block t sitting just above t*m.
    """
    require_family(m, e)
    q, r = divmod(m - 1, e - 1)
    entries = [0] * m
    for t in range(1, q + 1):
        base = t * m + (t - 1) * (e - 1)
        for j in range(1, e):
            x = base + j
            entries[x % m] = x
    base = (q + 1) * m + q * (e - 1)
    for j in range(1, r + 1):
        x = base + j
        entries[x % m] = x
    return AperyTable(modulus=m, entries=tuple(entries))


def interval_genus(m: int, e: int) -> int:
    """Genus of the interval semigroup with generators m..m+e-1."""
    require_family(m, e)
    q, r = divmod(m - 1, e - 1)
    return (q + 1) * q * (e - 1) // 2 + (q + 1) * r


def interval_frobenius(m: int, e: int) -> int:
    """Frobenius number of the interval semigroup: ceil((m-1)/(e-1))*m - 1."""
    require_family(m, e)
    return -((-(m - 1)) // (e - 1)) * m - 1


def monoid_contains(generators, n: int) -> bool:
    """Whether n is a non-negative integer combination of the generators.

    Works for any generator set, including gcd > 1, which rules out the
    Apery machinery; a bounded reachability table up to n is used instead.
    """
    if n < 0:
        return False
    if n == 0:
        return True
    gens = [g for g in set(generators) if 1 <= g <= n]
    reachable = bytearray(n + 1)
    reachable[0] = 1
    for g in sorted(gens):
        for i in range(g, n + 1):
            if reachable[i - g]:
                reachable[i] = 1
    return bool(reachable[n])
