"""Brute-force ground truth for the fast paths.

Everything here works straight from the definition (closure under
addition), on purpose: no Apery tables, no residue kernels, no son
rules.  The sieve recomputes Frobenius number and genus by plain
reachability, closing a big-integer bit table under each generator by
shift-ORs, and the enumerator rebuilds the population of semigroups with
given multiplicity and bounded genus by gap-set backtracking.  Neither
shares code with the fast paths it checks.  A value is its minimal
generators and least-element table and reads F and g off the table, so
the enumerator checks each value it builds: the reads must equal the
last gap and the gap count of its window, or it raises.
The enumerator is exhaustive and stays at desk scale; the sieve stops at
`BOUND_CAP` entries.
"""
from __future__ import annotations

from collections import namedtuple
from math import gcd

from .core import NumericalSemigroup
from .errors import EmptyInput, InvalidGenerator, NotNumerical, Uncertified

__all__ = ["SieveResult", "sieve", "enumerate_by_genus", "BOUND_CAP"]

# Largest reachability table the sieve will allocate before giving up.
BOUND_CAP = 1 << 20


class SieveResult(namedtuple("SieveResult", "bound reachable frobenius genus")):
    """Outcome of one reachability sieve.

    `reachable[i]` is 1 iff i is a member, exact for all i <= bound.
    The table ends with min(generators) consecutive members, which pins
    down frobenius and genus.
    """

    __slots__ = ()


# The bytes 0 and 1 for the ASCII digits of a binary string.
_BITS = bytes.maketrans(b"01", b"\0\1")


def _sieve_once(gens: list[int], bound: int) -> bytes:
    """Membership of 0..bound by plain reachability; bit i of `t` is i.

    One shift-OR per s = g, 2g, 4g, ... <= bound closes `t` under g: the
    steps up to s add every k*g with k < 2s/g, and the last s has
    2s > bound, so every multiple of g up to bound is added.
    """
    t, mask = 1, (1 << (bound + 1)) - 1
    for g in gens:
        s = g
        while s <= bound:
            t = (t | (t << s)) & mask
            s <<= 1
    return format(t, "b").zfill(bound + 1)[::-1].encode().translate(_BITS)


def sieve(generators, bound: int | None = None) -> SieveResult:
    """Frobenius number and genus of <generators> by direct reachability.

    The default bound is the product of the two smallest generators plus
    the largest one.  Whenever the table ends less than min(generators)
    steps past its last hole, the answer is not yet pinned down and the
    bound doubles; past BOUND_CAP entries the sieve raises Uncertified.
    """
    gens = sorted(set(generators))
    if not gens:
        raise EmptyInput("at least one generator is required")
    if gens[0] < 1:
        raise InvalidGenerator(f"generator {gens[0]} is not positive")
    g = gcd(*gens)
    if g != 1:
        raise NotNumerical(f"gcd of generators is {g}, not 1")
    m = gens[0]
    if bound is None:
        second = gens[1] if len(gens) > 1 else gens[0]
        bound = gens[0] * second + gens[-1]
    bound = max(bound, m)
    while True:
        if bound + 1 > BOUND_CAP:
            raise Uncertified(
                f"no certifying run of {m} members below the {BOUND_CAP}-entry cap"
            )
        table = _sieve_once(gens, bound)
        frobenius = table.rfind(0)
        if frobenius + m <= bound:
            return SieveResult(bound, table, frobenius, table.count(0))
        bound *= 2


def _finish(member: bytearray, m: int, horizon: int, gap_count: int) -> NumericalSemigroup:
    # Everything past the decision window is a member; extend far enough
    # to cover every residue class minimum and every minimal generator.
    full = bytearray(member)
    full.extend(b"\x01" * (horizon + m + 1 - len(full)))
    top = len(full) - 1
    frobenius = -1
    for i in range(horizon, 0, -1):
        if not full[i]:
            frobenius = i
            break
    entries = []
    for i in range(m):
        x = i
        while not full[x]:
            x += m
        entries.append(x)
    msg = []
    for x in range(m, top + 1):
        if not full[x]:
            continue
        if any(full[a] and full[x - a] for a in range(m, x - m + 1)):
            continue
        msg.append(x)
    S = NumericalSemigroup(tuple(msg), tuple(entries))
    if (S.frobenius, S.genus) != (frobenius, gap_count):
        raise AssertionError(
            f"{S!r} reads F={S.frobenius}, g={S.genus} off its table; "
            f"its window has F={frobenius}, g={gap_count}"
        )
    return S


def enumerate_by_genus(m: int, genus_bound: int) -> frozenset[NumericalSemigroup]:
    """All numerical semigroups with multiplicity m and genus <= genus_bound.

    Backtracks over which integers in [1, 2*genus_bound] are gaps: each
    candidate position is forced to be a member when it is a sum of two
    already-chosen members, and otherwise branches both ways.  Every gap
    of such a semigroup is at most 2*genus - 1, so the window is complete.
    """
    if m < 1:
        raise InvalidGenerator(f"multiplicity {m} is not positive")
    if genus_bound < m - 1:
        return frozenset()
    horizon = max(2 * genus_bound, m)
    member = bytearray(horizon + 1)
    member[0] = 1
    found: list[NumericalSemigroup] = []
    # Backtracking on an explicit stack, so the depth of the window costs
    # no recursion.  A frame (n, gap_count, bit) sets member[n] to bit;
    # the positions below n then hold the choices on the path to it, and
    # the positions above n are scratch that later frames overwrite
    # before anything reads them.
    stack = [(m, m - 1, 1)]
    while stack:
        n, gap_count, bit = stack.pop()
        member[n] = bit
        n += 1
        if n > horizon:
            found.append(_finish(member, m, horizon, gap_count))
            continue
        forced = any(member[a] and member[n - a] for a in range(m, n - m + 1))
        if not forced and gap_count < genus_bound:
            stack.append((n, gap_count + 1, 0))
        stack.append((n, gap_count, 1))
    return frozenset(found)
