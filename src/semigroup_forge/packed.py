"""Packed semigroups, their packing classes, and the packed route.

A semigroup is packed when all minimal generators fit in [m, 2m-1].
`pack` maps the family at (m, e) onto its few packed members without
raising g or F (part 5): `min_genus_packed` and `min_frobenius_packed`
read the minima and the packed minimizers off them, and
`min_frobenius_full_set` walks their classes.

`_leaves` walks the family as a prefix tree of residue subsets, on a
stack of one frame per prefix (`_frame`).  `enumerate_packed` wraps
every leaf into a value.  `_minimizers` runs the walk as a
branch-and-bound on the sum (genus) or the maximum (Frobenius number)
of the tables: the incumbent, best, starts at the interval semigroup's
key and falls to each better leaf's, and the walk yields every leaf
whose key is at most best.  Each cut compares a lower bound with best
strictly, so ties survive.  An entry past the cap, best - slack, puts a
leaf's key past best (`_bound_and_slack`), so most tests ask whether
every entry of a table is within the cap.

While 0 <= cap < `_MASK_BITS` member masks answer it: bit i of a mask
is set iff i <= cap is a member (the bit strings of Bras-Amorós and
Fernández-González, Math. Comp. 2018), `_close` adjoins a generator to
a mask, and `_table` reads the table off one.  `_masks` alone reads the
width: it gives the cap's mask `full`, bits 0 to cap, and `top`, its
top m bits, or (0, 0) at wider caps.  The cap only falls, so the walk's
`full` is 0 until the incumbent that first narrows the cap and nonzero
from then on, and every frame on the stack holds its member mask iff
`full` is nonzero: that incumbent writes each frame's mask over its
table, and each later one recloses every mask at its own cap.  While
`full` is 0 a frame holds its table, and a step copies it and adjoins
a generator by `relax`, which at a leaf stops at the first entry past
the cap.  `_frame`, `_lower` and `_slots` take `full`, so they know
which one a frame holds.  The walk rests on four lemmas.

1. The mask read and its verdict.  The clear bits of a mask are the
gaps up to the cap, so it reads two keys (Selmer's formulas): the
highest clear bit plus m (`max`), and m per clear bit plus m(m-1)/2
(`sum`).  A class whose entry is past the cap is all gaps up to it, so
a read is the key of the table with each such entry cut to the least
number past the cap in its class: a lower bound on the key, exact when
every entry is within the cap.  At cap = best - slack it also decides:
a read within best means every entry is within the cap.  Under `max`
(slack 0) a cut entry alone lifts the read past best.  Under `sum` the
cut class adds more than the cap, and the other m-2 nonzero classes
add the slack: in order their levels are at least the least levels of
`_bound_and_slack`, since best is a member's key, so the cap is at
least m times the top least level plus m-1, and a cut class lies above
them all.  So a leaf reads its verdict and its key off its mask, and
one that passes has `_table` of that mask as its whole table.  Under
`max` the read is within the cap iff no bit above cap - m is clear,
iff x >= top: one comparison decides a leaf, and only a leaf that
passes reads its key.  A class son takes the same verdict at
best = cap.

2. The suffix sweep.  U_a, the monoid of a prefix's generators and m+r
for every r >= a, has a table pointwise below every leaf under child
a, so bound(U_a) (`_bound_and_slack`) is at most the key of each such
leaf, and it does not fall as a grows: the first child whose bound
exceeds best ends the loop.  A sweep keeps U_r as a mask, closed from
U_m, the prefix's mask, down one `_close` per r.  It reads bounds only
below the end the counts set (part 3), and stops at the first within
best; the frame keeps U_r, its bound and r, and goes on down only once
best falls below that bound, so it closes at most once per residue.  A
mask cut to a lower cap is the mask up to it, and `_close` makes that
cut, so a kept U_r stays exact.  Part 1 at best = cap reads the bound:
under `max` U_r's read is within the cap iff every entry is, and is
then max(U_r); under `sum` a read past the cap puts the bound past
best, and any other bound is read off `_table` of U_r.  Only interior
prefixes that pass `_SWEEP_PAYS` sweep, and only while masks run.  No
frame needs its own bound lb: its parent found lb <= best on entering
it (the root has lb = 0), and until its loop ends only leaves below it,
each at least lb, move best.

3. The counting bounds.  Below child a of a prefix with table t, q
more generators are still to come, each at least m+a (q = 1 in a
leaf's loop).  Each entry of a leaf below is some t[i] plus a sum of k
of them, at least t[i] + k(m+a), and distinct residues need distinct
pairs (i, multiset), of which there are C(q-1+k, k) for each i and k.
So the s-th least entry of the leaf is at least the s-th least of the
values t[i] + k(m+a), each counted that often, and a leaf within the
cap draws only on values within it.  The values grow with a, so the
first child that fails a count ends the loop.  Under `max` at most
`_slots`, the sum over t[i] <= cap of C(q + (cap - t[i]) // (m+a), q),
leaf entries are within the cap, and a leaf within it needs m; the
count runs at every interior child, whose subtree no mask tests.  Under
`sum` a leaf within the cap sums to at least the m least values within
it (`_least_sum`, SENTINEL when fewer fit), and one past it loses
anyway; the least sums end the loop of every interior prefix that
passes `_SWEEP_PAYS`.  While `full` is 0 each count also ends every
keyed leaf-level loop; while masks run a mask test is cheaper there,
and both counts read the prefix's entries within the cap off its mask.

4. Lowering.  `_frame` only builds frames; `_lower`, called from one
place in the walk's loop, alone sets their loop ends: when a frame
first comes to the top, and whenever best has fallen since.  The end
falls to the first child left that fails a count, found by binary
search once the last child fails, and at a sweeping frame the sweep
goes on down if its bound is past best; a cut that leaves no child
starts no sweep.  This is exact.  Each test compares a bound that does
not depend on best with it strictly, so a child cut once stays cut as
best falls, and the new end is the first child left that fails a test
at the new best.  Every leaf below a cut child has a key above the best
of that moment, no lower than the final minimum, so no minimizer is
cut; and each such leaf would have lost to that best where it was met,
so the walk yields the same leaves, in the same order, as one that
fixes each end when its frame is made.  A leaf-level end is not lowered
while its loop runs: a leaf past a newer best loses its own cap test.

5. Packing.  For S with e >= 2, P = pack(S) is generated by m and the
m + r_i, r_i the residues mod m of S's minimal generators n_i > m,
nonzero and distinct (of two with one residue, one is not minimal).
- S lies in P (n_i is m + r_i plus multiples of m), so g(P) <= g(S)
  and F(P) <= F(S).  P's e generators lie in [m, 2m-1], below every sum
  of two nonzero members, so P has S's (m, e), and P = S if S is packed.
- For a minimal generator n >= 2m of S, n - m >= m is a member of P and
  a gap of S, as n = (n - m) + m is minimal.  So an unpacked S has
  g(P) < g(S), and every genus minimizer is packed.
- The packing classes are the fibres of pack, one per packed member; the
  head of a Frobenius minimizer's class is one as well.
- A class son T of Q (`class_sons`) swaps a generator n_k > m for n_k + m,
  above every generator and not represented by the others.  T lies in Q,
  so the kept generators stay minimal, as does n_k + m, which only the
  others could sum to: T is in Q's class, F(T) >= F(Q), and its one
  parent lowers its largest generator by m.  A member S of P's class
  other than P is unpacked; with n its largest generator, S is a son of
  the semigroup Q of its other generators and n - m, which they do not
  represent (n - m is a gap of S), and none of them is n - m plus a
  member >= m, being below n.  So each member with F(P) is reached from
  P through ancestors lying between it and P, all with F(P).

Every value is made by `NumericalSemigroup(min_gens, tuple(table))`,
and F and g are read off its table on demand.
"""
from __future__ import annotations

from bisect import bisect_left
from math import comb, gcd
from typing import Iterator

from ._backend import SENTINEL, relax, residue_table
from .core import (
    NumericalSemigroup,
    SearchOutcome,
    _least_levels,
    interval_apery,
    make_semigroup,
    require_family,
)
from .errors import Degenerate, InvalidGenerator, NotPacked

__all__ = [
    "PackedFamily",
    "enumerate_packed",
    "pack",
    "is_packed",
    "class_sons",
    "class_min_frobenius",
    "min_genus_packed",
    "min_frobenius_packed",
    "min_frobenius_value_packed",
    "min_frobenius_full_set",
]


class PackedFamily(tuple):
    """All packed semigroups with the given multiplicity and dimension, in order."""

    __slots__ = ()

    @property
    def members(self) -> tuple[NumericalSemigroup, ...]:
        return self


# A prefix runs its suffix sweep, one mask closure per residue above it, only
# when it has at least this many times as many leaves below it, and only when
# its frame is made while masks run.  Without the rule the sweeps cost up to
# 16 times a full scan at large e, where most prefixes lead to one or two
# leaves; 4, 8 and 16 measured alike.
_SWEEP_PAYS = 8

# Member masks run while the cap is below this many bits, 64 words of 64 bits.
# A mask test costs a few operations on (cap+1)-bit integers, `relax` O(m)
# Python steps, so masks pay at narrow caps and lose at wide ones.  With masks
# at every width the genus search at (1000, 3), whose cap never falls below
# 988,999 bits, took 5.2 s against 0.6 s, and with masks below 64 bits per
# residue the Frobenius search there took 1.6 s against 1.1-1.2 s.
_MASK_BITS = 4096


def _leaves(
    m: int, e: int, key=None
) -> Iterator[tuple[tuple[int, ...], list[int] | int, int | None]]:
    """Each packed member at (m, e) as (min_gens, table or mask, key), in family order.

    The residue subset {a1 < a2 < ...} of {1, ..., m-1} yields the
    generators {m, m+a1, m+a2, ...}, a minimal system, and a numerical
    semigroup when gcd(m, a1, a2, ...) is 1.  The second field is the
    leaf's table, a fresh list the caller owns, or, for a leaf tested
    while masks run (only with a `key`), its member mask up to the cap
    then, which holds every entry: `_table` of it is the table.  The
    third is the leaf's key, or None without a `key`.

    With a `key` (`sum` or `max`) the walk is a branch-and-bound for the
    least key, and yields only the leaves whose key is at most the least
    one met so far, starting from the interval semigroup's, so every
    member attaining the minimum comes out, in family order, after any
    worse ones.  The module docstring proves its cuts exact.
    """
    require_family(m, e)
    best = cap = SENTINEL
    k = None  # a leaf's key, set for each leaf when there is a `key`
    bound, slack = _bound_and_slack(m, e, key)
    if key is not None:
        best = key(interval_apery(m, e))
        cap = best - slack
    half = m * (m - 1) // 2
    full, top = _masks(cap, m)
    s = _close(1, m, full) if full else residue_table(m, ())
    stack = [_frame((m,), s, m, e, key, full)]
    a = 1
    while stack:
        f = stack[-1]
        gens, s = f[0], f[1]  # every frame on the stack holds its mask iff `full`
        if best < f[3] and a < f[2]:
            _lower(f, a, best, m, e, key, bound, slack, full)
        if len(gens) == e - 1:
            g = gcd(*gens)
            for r in range(a, f[2]):
                if g == 1 or gcd(g, r) == 1:
                    if full:  # yield the mask; the caller reads its table
                        w = x = _close(s, m + r, full)
                        if key is max:  # F + m, F the highest clear bit
                            if x < top:
                                continue
                            k = (x ^ full).bit_length() - 1 + m
                        else:  # m per gap, the clear bits, plus m(m-1)/2
                            k = m * (cap + 1 - x.bit_count()) + half
                            if k > best:
                                continue
                    else:
                        w = s.copy()
                        if not relax(w, m, m + r, cap):
                            continue
                        if key is not None:
                            k = key(w)
                            if k > best:
                                continue
                    if key is not None and k < best:
                        best, cap = k, k - slack
                        full, top = _masks(cap, m)
                        if full:  # write every prefix's mask at the new cap
                            s = 1
                            for h in stack:
                                s = h[1] = _close(s, h[0][-1], full)
                    yield (*gens, m + r), w, k
        elif a < f[2] and (key is not max or _slots(s, m + a, e - len(gens), m, cap, full) >= m):
            if full:
                w = _close(s, m + a, full)
            else:
                w = s.copy()
                relax(w, m, m + a)
            stack.append(_frame((*gens, m + a), w, m, e, key, full))
            a += 1
            continue
        a = stack.pop()[0][-1] - m + 1


def _masks(cap: int, m: int) -> tuple[int, int]:
    """The cap's masks (full, top): bits 0 to cap, and the top m of them.

    Both are 0 unless 0 <= cap < `_MASK_BITS`, the one test of the width.
    """
    full = (1 << cap + 1) - 1 if 0 <= cap < _MASK_BITS else 0
    return full, full ^ full >> m


def _close(x: int, g: int, full: int) -> int:
    """The member mask x of a monoid, up to a cap, closed under adding g.

    `full` is the cap's mask (`_masks`).  Shifting by g, 2g, 4g, ... while
    the shift is at most the cap adds the multiples of g in runs that
    double, so every member up to the cap of the monoid with g adjoined is
    some set bit plus j*g with j < 2^(steps).  A bit above the cap only
    moves further up, so no step brings one back below it, and one
    `& full` at the end cuts them all, those of x included.
    """
    n = full.bit_length()  # cap + 1
    s = g
    while s < n:
        x |= x << s
        s += s
    return x & full


def _table(x: int, m: int) -> list[int]:
    """The least-element table read off the member mask x of a monoid up to a cap.

    y = x & ~(x << m) keeps each member whose predecessor by m is none,
    the least of its class, so entry i is the set bit of y in class i,
    and SENTINEL for a class with no member up to the cap.
    """
    w = [SENTINEL] * m
    y = x & ~(x << m)
    while y:
        i = y.bit_length() - 1
        w[i % m] = i
        y ^= 1 << i
    return w


def _frame(gens: tuple[int, ...], s, m: int, e: int, key, full: int) -> list:
    """The frame [gens, s, end, seen, u, ub, r] of the prefix `gens`.

    s is the prefix's member mask when `full` is nonzero, else its table;
    end is its loop's end and seen the incumbent it was set for; u, ub
    and r are U_r as a mask, bound(U_r) and r, where its suffix sweep
    stands.  Its children are the residues above its last generator's,
    up to m - e + len(gens).  With a `key`, an interior prefix that passes
    `_SWEEP_PAYS`, and a leaf-level one while `full` is 0, starts at
    seen = SENTINEL, so `_lower` sets its end, and an interior one made
    while masks run sweeps, from U_m = s with ub = SENTINEL.  Any other
    ends past its last child with seen = -1, below every incumbent, so
    its end never moves.  A frame that does not sweep has u None, ub 0.
    """
    q = e - len(gens)
    n = 2 * m - 1 - gens[-1]  # the residues above the last generator's
    pays = key is not None and q > 1 and comb(n, q) >= _SWEEP_PAYS * n
    moves = pays or key is not None and q == 1 and not full
    u, ub = (s, SENTINEL) if pays and full else (None, 0)
    return [gens, s, m + 1 - q, SENTINEL if moves else -1, u, ub, m]


def _lower(f: list, a: int, best: int, m: int, e: int, key, bound, slack: int, full: int) -> None:
    """Set the loop end of the frame `f`, whose next child is a, for `best`.

    `full` is the mask of the cap best - slack while masks run, else 0.
    The end falls to the first child that fails its count, the least sum
    under `sum` and, at a leaf-level frame, the slot count under `max`;
    at a sweeping frame, then to the first whose bound exceeds `best`.
    The module docstring proves it exact (parts 2 to 4).
    """
    gens, s, end, _, u, ub, r = f
    q = e - len(gens)
    cap = best - slack
    if key is sum:
        v = [*sorted(y for y in (_table(s, m) if full else s) if y <= cap), SENTINEL]
        fails = lambda b: _least_sum(v, m + b, q, m, cap) > best
    else:  # under `max` only a leaf-level frame counts here
        fails = lambda b: q == 1 and _slots(s, m + b, q, m, cap, full) < m
    if fails(end - 1):
        end = a + bisect_left(range(a, end - 1), True, key=fails)
    if a < end and ub > best:  # `_close` cuts the stored U_r to the new cap
        while r > a:
            r -= 1
            u = _close(u, m + r, full)
            if r < end:
                ub = (u ^ full).bit_length() - 1 + m
                if key is sum:  # an entry past the cap puts the bound past best
                    ub = SENTINEL if ub > cap else bound(_table(u, m))
                if ub <= best:
                    break
        end = min(end, r + (ub <= best))
    f[2:7] = end, best, u, ub, r


def _slots(t: list[int] | int, g: int, q: int, m: int, cap: int, full: int) -> int:
    """An upper bound on the entries <= cap of a leaf of `t` and q more generators >= g.

    The sum over the prefix's entries x <= cap of C(q + (cap - x) // g, q)
    (the module docstring, part 3).  `t` is the prefix's table when `full`
    is 0, and its member mask up to the cap otherwise, whose members with
    no predecessor by m are its entries within the cap.  Those with
    (cap - x) // g = k fill the band (cap - (k+1)g, cap - kg], so the sum
    is that of C(q + k, q) times the entries in band k, about cap/g + 1
    bands in place of one `comb` per entry.
    """
    if not full:
        return sum(comb(q + (cap - x) // g, q) for x in t if x <= cap)
    t &= ~(t << m)  # the least member of each class: its entry
    band = (1 << g) - 1
    n, c, k, s = 0, 1, 0, cap + 1 - g
    while s > 0:
        n += c * (t >> s & band).bit_count()
        k += 1
        c = c * (q + k) // k
        s -= g
    return n + c * (t & band >> -s).bit_count()


def _least_sum(v: list[int], g: int, q: int, m: int, cap: int) -> int:
    """The sum of the m least values t[i] + k*g within cap, or SENTINEL if fewer fit.

    Each value counts C(q-1+k, k) times, once per multiset of k of q
    generators.  `v` holds the entries t[i] <= cap, sorted and closed by
    SENTINEL.  The values for q generators are those for q-1 merged with
    their own list shifted by g (the multisets that use the q-th), so q
    merges of length m yield the m least.
    """
    for _ in range(q):
        out = [0]  # t[0] = 0 is the least value
        i, k, y = 1, 0, g
        for _ in range(m - 1):
            x = v[i]
            if x <= y:
                out.append(x)
                i += 1
            elif y <= cap:
                out.append(y)
                k += 1
                y = out[k] + g
            else:
                break
        out.append(SENTINEL)
        v = out
    return sum(v) - SENTINEL if len(v) > m else SENTINEL


def _bound_and_slack(m: int, e: int, key):
    """How `_leaves` bounds a search by `key`: a bound on U_a, and the slack.

    A leaf entry above the incumbent less the slack makes the leaf's key
    exceed the incumbent.  For `max` the bound is the key itself and the
    slack 0.  For `sum` both use the level count of
    `core.genus_lower_bound`.  Entry i of a table is i plus m times its
    level, and the t-th least level of a leaf is at least that of U_a and
    at least the t-th of `_least_levels`, which lifts the bound.  The
    slack is the least sum of m-2 nonzero entries.  So a table whose
    largest entry y is past best - slack has a bound past best: the bound
    counts y's level at the top place and at least the least levels below
    it, so it is at least y - (y mod m) + m(m-1)/2 + m * sum(levels[:-1])
    = y + slack + (m - 1 - y mod m) > best.
    """
    if key is not sum:
        return key, 0
    levels = [0, *_least_levels(m, e)]  # entry 0 sits at level 0
    half = m * (m - 1) // 2
    level_of = m.__rfloordiv__

    def bound(u: list[int]) -> int:
        return m * sum(map(max, levels, map(level_of, sorted(u)))) + half

    return bound, m * sum(levels[:-1]) + (m - 2) * (m - 1) // 2


def enumerate_packed(m: int, e: int) -> PackedFamily:
    """Every packed semigroup with multiplicity m and embedding dimension e.

    The members of `_leaves`, sorted by minimal generators, each wrapped
    into a value; the routes wrap only their minimizers (`_minimizers`).
    """
    return PackedFamily(NumericalSemigroup(gens, tuple(w)) for gens, w, _ in _leaves(m, e))


def _minimizers(m: int, e: int, key) -> tuple[NumericalSemigroup, ...]:
    """Packed members at (m, e) with the least `key` of their table, in order.

    `sum` ranks by genus and `max` by Frobenius number, increasing
    functions of them; the family holds both minima (part 5).  The
    branch-and-bound of `_leaves` hands over leaves with keys no worse
    than the best before them, and only the members attaining the minimum
    become values; a leaf that comes as a mask has its table read off it.
    """
    best, hits = None, []
    for gens, w, k in _leaves(m, e, key):
        if best is None or k < best:
            best, hits = k, [(gens, w)]
        else:
            hits.append((gens, w))
    return tuple(
        NumericalSemigroup(gens, tuple(w if type(w) is list else _table(w, m))) for gens, w in hits
    )


def is_packed(S: NumericalSemigroup) -> bool:
    """True iff every minimal generator lies in [m, 2m-1]."""
    return S.max_gen < 2 * S.multiplicity


def pack(S: NumericalSemigroup) -> NumericalSemigroup:
    """Packed representative of S: generators reduced mod m, shifted by m.

    It contains S, has its (m, e), and is the identity on packed input
    (part 5).  The naturals are rejected: their single generator has
    residue 0 and the map has nothing to act on.
    """
    if S.embedding_dim < 2:
        raise Degenerate("packing needs at least two minimal generators")
    m = S.multiplicity
    return make_semigroup({m + (x % m) for x in S.min_gens})


def class_sons(P: NumericalSemigroup, bound: int | None = None) -> tuple[NumericalSemigroup, ...]:
    """Sons of P in the tree of its packing class, in sorted order.

    The son lifting a generator n_k other than m to n_k + m, above the
    largest generator, exists when the others do not represent n_k + m (a
    residue they miss, when their gcd exceeds 1, stays at SENTINEL; part 5).
    A son past the kernel range raises InvalidGenerator, as in `make_semigroup`.

    With `bound`, a son is kept when its F is at most bound, when its
    table is within cap = bound + m, so n_k + m > cap skips it before its
    table.  While masks run (`_masks`) the mask of the others up to the
    cap decides both tests once: n_k + m is redundant iff its bit is set,
    and the son is kept iff its closed mask passes the `max` verdict at
    best = cap (part 1); its table, within the kernel range, is read off
    that mask.  Otherwise the table of the others decides redundancy,
    then the range check and the capped `relax`.
    """
    m = P.multiplicity
    gens = P.min_gens
    cap = SENTINEL if bound is None else bound + m
    full, top = _masks(cap, m)
    out = []
    # Lifting a larger generator gives a lexicographically smaller son,
    # so walking the generators downwards yields the sons sorted.
    for k in range(len(gens) - 1, 0, -1):
        lifted = gens[k] + m
        if lifted <= gens[-1]:
            break
        if lifted > cap:
            continue
        rest = gens[:k] + gens[k + 1 :]
        if full:
            x = 1
            for g in rest:
                x = _close(x, g, full)
            if x >> lifted & 1:
                continue
            x = _close(x, lifted, full)
            if x < top:
                continue
            w = _table(x, m)
        else:
            w = residue_table(m, rest)
            if w[lifted % m] <= lifted:
                continue
            if m * lifted >= SENTINEL:
                raise InvalidGenerator(f"generator {lifted} exceeds the 62-bit kernel range")
            if not relax(w, m, lifted, cap):
                continue
        out.append(NumericalSemigroup((*rest, lifted), tuple(w)))
    return tuple(out)


def class_min_frobenius(S: NumericalSemigroup) -> tuple[NumericalSemigroup, ...]:
    """All semigroups in the packing class of S with F(S), sorted.

    S must be packed, the class root.  A breadth-first walk down the class
    tree through the sons with F at most F(S) reaches each such member
    once (part 5), and ends, as finitely many semigroups have F <= F(S).
    """
    if not is_packed(S):
        raise NotPacked(f"not packed: {S!r} has a minimal generator >= 2*m")
    target = S.frobenius
    accepted = [S]
    frontier = [S]
    while frontier:
        frontier = [T for P in frontier for T in class_sons(P, target)]
        accepted += frontier
    return tuple(sorted(accepted))


def min_genus_packed(m: int, e: int) -> SearchOutcome:
    """The least genus at (m, e) and every minimizer, all packed (part 5), in family order."""
    hits = _minimizers(m, e, sum)
    return SearchOutcome(hits[0].genus, hits)


def min_frobenius_packed(m: int, e: int) -> SearchOutcome:
    """The least Frobenius number at (m, e) and its packed minimizers (part 5), in order."""
    hits = _minimizers(m, e, max)
    return SearchOutcome(hits[0].frobenius, hits)


def min_frobenius_value_packed(m: int, e: int) -> int:
    """The least Frobenius number at (m, e), the value of `min_frobenius_packed`."""
    return min_frobenius_packed(m, e).value


def min_frobenius_full_set(m: int, e: int) -> SearchOutcome:
    """Every Frobenius minimizer at (m, e), sorted: the classes of the packed ones (part 5)."""
    heads = min_frobenius_packed(m, e)
    collected = [T for S in heads.minimizers for T in class_min_frobenius(S)]
    return SearchOutcome(heads.value, tuple(sorted(collected)))
