"""Packed semigroups and their equivalence classes.

A semigroup is packed when all minimal generators fit in [m, 2m-1].
Packed semigroups with fixed multiplicity m and embedding dimension e
are few and easy to enumerate, and the packing map (reduce every
generator mod m, then add m) sends each member of L(m,e) to one of
them without ever raising genus or Frobenius number.  That makes the
packed family a complete set of class representatives on which both
minima can be read off, and each class can then be searched separately
for the full minimizing set.

The family is walked by one walk, `_leaves`, as bare (min_gens, table,
key) triples, the key None when the walk does not search.
`enumerate_packed` takes every leaf and wraps it into a value.
The searches go through `_minimizers`, which runs the same walk as a
branch-and-bound on the sum (genus) or the maximum (Frobenius number)
of the tables: a prefix whose bound exceeds the best key so far is
cut, as is a child whose leaves cannot fit m entries under the cap
(for the maximum) or whose m least possible entries already sum past
the best key (for the sum).  `_frame` only builds frames; `_lower`,
called from one place in the walk's loop, alone sets and lowers their
loop ends, so no cut waits on a stale key.  The searches wrap only the
members they return.  The class walk wraps every son.

Both walks mostly ask one question of a table, whether every entry is
at most a cap.  While the cap is below `_MASK_BITS` a member mask
answers it, and every table is read off a member mask: bit i is set
iff i <= cap is a member, and `_close` adjoins a generator g by
x |= x << s for s = g, 2g, 4g, ... <= cap, then cuts x & full once,
full being the cap's own mask.  Its clear bits are the gaps up to the
cap, so it reads two keys (Selmer's formulas): the highest clear bit
plus m (max), and m per clear bit plus m(m-1)/2 (sum).  The least set
bit of each residue class is that class's entry, so `_table` reads the
table up to the cap off the mask, SENTINEL for a class with no member
up to it.  The lemma: a read is the key of the table with each entry
cut to the least number past the cap in its residue class, so it is a
lower bound on the key, exact when every entry is within the cap, and
complete at any incumbent's cap, best - slack (`_bound_and_slack`).  An
entry past the cap lifts a `max` read past best, and under `sum` its
class adds more than the cap while the other m-2 nonzero classes keep
their least levels (a cut class lies above every one) and add the
slack.  So a leaf reads its key and its verdict off its mask, and a
class son its verdict off the `max` read at best = bound + m; one that
passes has every entry within the cap, so `_table` of that mask is its
whole table, and no `relax` runs.  The `max` read is within the cap
iff the cap's top m bits are all set, so that verdict is one
comparison, x >= top for top = full ^ full >> m, and only a leaf that
passes reads its key.  A passing leaf comes out of the walk with its
mask, and the searches read a table only for each member they return.
A frame holds its prefix once, under either key: its table while the
cap is wide, and its member mask while masks run, written over the
table by the incumbent that narrows the cap.  Only masks sweep: a
suffix sweep keeps U_r as a mask and reads its bound off it, and a frame
made at a wide cap builds no U_r.  The slot count reads the prefix's
mask, and the least sums read the prefix's table off it (`_leaves`,
`_slots`, `_lower`).  At caps of `_MASK_BITS` or more the capped
`relax`, whose sweep stops at the first entry above the cap, decides
each test on a table, and every keyed leaf loop ends at its counting
bound.
Every value is made by `NumericalSemigroup(min_gens, tuple(table))`,
since each walk owns its tables as lists (or reads them off masks),
and keeps only its generators and table; F and g are read off the
table on demand, and the oracle's enumerator checks those reads against
brute-force gap counts.
"""
from __future__ import annotations

from bisect import bisect_left
from math import comb, gcd
from typing import Iterator

from ._backend import SENTINEL, relax, residue_table
from .core import (
    NumericalSemigroup,
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
# leaves; 4, 8 and 16 measured alike.  An interior genus prefix that passes
# it ends its loop by least sums, swept or not, and a leaf-level one by its
# count whenever its frame is made while the cap is wide.
_SWEEP_PAYS = 8

# Member masks (`_close`) answer every cap test, give every table (`_table`)
# and run every suffix sweep only while the cap is below this many bits, 64
# words of 64 bits; wider caps build tables by `relax`, sweep none and end
# each leaf loop early.
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

    Each one is determined by the e-1 nonzero residues of its larger
    generators: the subset {a1 < a2 < ...} of {1, ..., m-1} yields the
    generators {m, m+a1, m+a2, ...}, which are automatically a minimal
    system, and a numerical semigroup when gcd(m, a1, a2, ...) is 1.
    The subsets are walked in lexicographic order as a prefix tree, on an
    explicit stack of one frame per prefix: its generators, its
    least-element table or its member mask, the end of its loop and the
    incumbent that end was computed for.  The generators give the depth
    and the children, and the last one, as its frame pops, the next child
    below.  `_frame` makes every frame and decides which prefixes bound
    their children; `_lower`, called at the top of the loop for the frame
    on top, alone sets their ends, when a frame first comes to the top and
    whenever the incumbent has fallen since.  While the cap is
    `_MASK_BITS` or more (with no key, always) each step copies the
    prefix's table and adjoins one generator by `relax`, and every frame
    holds its table.  While masks run each step closes the prefix's
    member mask under one generator instead, and every frame holds its
    mask, the root included: the incumbent that narrows the cap writes
    the mask of each frame on the stack over its table, so no frame holds
    both, and whatever needs a table reads it off a mask (`_table`).  A
    prefix one residue short of a leaf reads the gcd of its generators
    once and filters the last step by it, skipping the per-leaf `gcd`
    when that one is 1.  The second field is
    the leaf's table, a fresh list the caller owns, or, for a leaf tested
    while masks run (only with a `key`), its member mask up to the cap
    of that moment, which holds every entry: `_table` of it is a fresh
    list, read only by a caller that keeps the leaf.  The third field is
    the leaf's key, computed once by the walk, or None without a `key`.

    With a `key` (`sum` or `max`) the walk is a branch-and-bound for the
    least key, and yields only the leaves whose key is at most the least
    one met so far, starting from the interval semigroup's, so every
    member attaining the minimum comes out, in family order, after any
    worse ones that were yielded.
    - A prefix bounds its children by a suffix sweep: U_a, the monoid of
      its generators and m+r for every r >= a, has a table that lies
      pointwise below every leaf under child a, so bound(U_a) bounds the
      key below it, and the bound does not decrease as a grows.  The
      sweep keeps U_r as a member mask up to the cap, built from r = m-1
      downwards from the prefix's mask, one `_close` per r; it reads the
      bound only at children that the least-sum cut below left (all of
      them under `max`), and stops at the first whose bound is within the
      incumbent: every child up to it passes, and the ones above it are
      cut.  The frame is made with U_m, its own mask, and keeps U_r and
      its bound; the sweep goes on down from there only once the
      incumbent falls below that bound, so no U_r is built twice and a
      frame never closes more than once per residue above it.  U_r's
      `max` read, the highest clear bit plus m, is within the cap iff
      every entry of U_r is, and is then max(U_r): a clear bit y in the
      top m, cap - m < y <= cap, leaves the entry of y's class at y + m
      or more (the module docstring's lemma).  Under `max`, where
      best = cap, that read is the bound.  Under `sum` a read past the cap
      puts the bound past best (`_bound_and_slack`), and any other bound
      is read off the table of U_r, `_table` of the mask.  A mask up to
      one cap, cut to a lower one, is the mask up to it, and `_close`
      makes that cut, so a stored U_r stays exact as the incumbent falls.
      Under `sum` a bound costs more than a closure (it reads and sorts
      the table), so the sweep reads none past the least-sum cut's end.
      Only interior prefixes with enough leaves below them sweep
      (`_SWEEP_PAYS`), and only those made while masks run: a frame made
      at a wide cap builds no U_r, as a sweep on its table would cost one
      `relax` per residue, and on every cell measured whose cap starts
      wide such sweeps removed no frame.  No other frame needs bounds, as
      its own bound lb could cut no child: its parent found lb <= best on
      entering it (the root has lb = 0), lb lies below every leaf under
      it, and only those leaves move the incumbent until its loop ends,
      so best >= lb throughout.
    - A leaf loses when an entry of its table exceeds a cap past which the
      key exceeds the incumbent (`_bound_and_slack`).  While the cap is
      below `_MASK_BITS` each keyed frame holds its prefix's member mask
      up to the cap, one `_close` from its parent's; each new incumbent
      recloses the masks of every prefix on the stack at the new cap, one
      `_close` per frame, so every live mask is exact; the first one
      below the width writes each mask over its frame's table.  A leaf
      closes its prefix's mask under its last generator and reads its key
      off it (the module docstring's lemma): a read past the incumbent
      loses, and any other is the leaf's key, with every entry within the
      cap, so the leaf's table is `_table` of the same mask, and the leaf
      is yielded with that mask.  Under `max`, where best = cap, the read
      F + m is within the cap iff no bit above cap - m is clear, iff
      x >= top for top = full ^ full >> m, the cap's top m bits, kept
      beside full and rebuilt with it; so a leaf with x < top loses on one
      comparison, and only one that passes reads its key.  At wider caps
      the capped `relax` decides each leaf on a copy of its prefix's
      table, and the leaf loop's end, set by the counts below, is the only
      cut.
    - Both keys count what a child can still hold.  Below child a of a
      prefix with table t, q more generators are still to come, each at
      least m+a (q = 1 in a leaf's loop).  Each entry of a leaf below is
      some t[i] plus a sum of k of them, at least t[i] + k(m+a), and
      distinct residues need distinct pairs (i, multiset), of which there
      are C(q-1+k, k) for each i and k.  So the s-th least entry of the
      leaf is at least the s-th least of the values t[i] + k(m+a), each
      counted that often, and a leaf within the cap draws only on values
      within it.  The values grow with a, so the first child that fails
      either test below ends the sibling loop.
    - Under `max` the walk counts those values up to the cap: at most
      `_slots`, the sum over t[i] <= cap of C(q + (cap - t[i]) // (m+a), q),
      leaf entries are at most the cap, and a leaf within it needs m.  The
      count runs at every interior child, whose subtree no mask tests,
      and while masks run it reads the entries within the cap off the
      prefix's mask, in bands (`_slots`).  At
      caps of `_MASK_BITS` or more a leaf-level prefix's loop ends at the
      first child that fails it (q = 1), found by binary search.
    - Under `sum` the walk adds up the m least of them within the cap
      (`_least_sum`, SENTINEL when fewer fit): a leaf within the cap sums
      to at least that, and a leaf past it loses anyway.  The loop ends at
      the first child past the best, found by binary search, at every
      interior prefix that passes `_SWEEP_PAYS`, made wide or not, and at
      every leaf-level one made while the cap is `_MASK_BITS` or more,
      over the prefix's entries within the cap, sorted anew and, while
      masks run, read off the prefix's mask.
    - When the walk returns to a prefix whose end moves with a better
      incumbent, it lowers the prefix's end: the least-sum cut runs again
      over the children still left, then, at a sweeping prefix, the sweep
      goes on down if the bound it stopped at is past the new incumbent;
      a cut that leaves no child starts no sweep.  This is exact.  Each
      test compares a lower bound that does not depend on the incumbent
      with it strictly, so a child cut once stays cut as the incumbent
      falls, and the new end is the first child left that fails either
      test at the new incumbent.  Every
      leaf below a cut child has a key above the incumbent of that moment,
      which is no lower than the final minimum, so no minimizer is cut.
      Nor is any leaf the walk yields: the incumbent only falls, so each
      leaf under a cut child would have lost to it where it was met.  The
      walk yields the same leaves, in the same order, as one that fixes
      each end when its frame is made, and under `max`, where the bounds
      were read as each child was met, it cuts the same children too.  A
      leaf-level end is not lowered while its loop runs: a leaf past a
      newer incumbent loses its cap test.
    Pruning is strict, so ties survive.
    """
    require_family(m, e)
    best = cap = SENTINEL
    k = None  # a leaf's key, set for each leaf when there is a `key`
    bound, slack = _bound_and_slack(m, e, key)
    if key is not None:
        best = key(interval_apery(m, e))
        cap = best - slack
    half = m * (m - 1) // 2
    full = (1 << cap + 1) - 1 if cap < _MASK_BITS else 0  # bits 0..cap while masks run
    top = full ^ full >> m  # the top m bits, all set iff the `max` read is within the cap
    s = _close(1, m, full) if full else residue_table(m, ())
    stack = [_frame((m,), s, m, e, key, cap)]
    a = 1
    while stack:
        f = stack[-1]
        gens, s = f[0], f[1]  # every frame on the stack holds its mask iff `full`
        if best < f[3] and a < f[2]:
            _lower(f, a, best, m, e, key, bound, slack)
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
                        if cap < _MASK_BITS:  # write every prefix's mask at the new cap
                            full, s = (1 << cap + 1) - 1, 1
                            top = full ^ full >> m
                            for h in stack:
                                s = h[1] = _close(s, h[0][-1], full)
                    yield (*gens, m + r), w, k
        elif a < f[2] and (
            key is not max or _slots(s & ~(s << m) if full else s, m + a, e - len(gens), cap) >= m
        ):
            if full:
                w = _close(s, m + a, full)
            else:
                w = s.copy()
                relax(w, m, m + a)
            stack.append(_frame((*gens, m + a), w, m, e, key, cap))
            a += 1
            continue
        a = stack.pop()[0][-1] - m + 1


def _close(x: int, g: int, full: int) -> int:
    """The member mask x of a monoid, up to a cap, closed under adding g.

    Bit i of a mask is set iff i is a member, and `full` is the cap's mask,
    bits 0 to cap all set.  Shifting by g, 2g, 4g, ... while the shift is
    at most the cap adds the multiples of g in runs that double, so every
    member up to the cap of the monoid with g adjoined is some set bit plus
    j*g with j < 2^(steps).  A bit above the cap only moves further up, so
    no step brings one back below it, and one `& full` at the end cuts
    them all, those of x included.
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


def _frame(gens: tuple[int, ...], s, m: int, e: int, key, cap: int) -> list:
    """The frame of the prefix `gens`, holding s, its table or its member mask.

    It is [gens, s, end, seen, u, ub, r]: the prefix's table while the cap
    is `_MASK_BITS` or more, and its member mask up to the cap while masks
    run (see `_leaves`); the end of its loop and the incumbent it was
    computed for; and U_r, as a mask, bound(U_r) and r, where the suffix
    sweep stands.  Its children are the residues above its last
    generator's, up to m - e + len(gens), with q = e - len(gens)
    generators still to come.  With a `key`, an interior prefix with
    enough leaves below it (`_SWEEP_PAYS`), and a leaf-level one at caps
    of `_MASK_BITS` or more, starts at seen = SENTINEL, so `_lower` sets
    its end; of those, one made while masks run sweeps, with U_m = s and
    ub = SENTINEL.  Any other ends past its last child with seen = -1,
    below every incumbent, so its end never moves.  A frame that does not
    sweep has u None and ub 0.
    """
    q = e - len(gens)
    n = 2 * m - 1 - gens[-1]  # the residues above the last generator's
    pays = key is not None and q > 1 and comb(n, q) >= _SWEEP_PAYS * n
    moves = pays or key is not None and q == 1 and cap >= _MASK_BITS
    u, ub = (s, SENTINEL) if pays and type(s) is int else (None, 0)
    return [gens, s, m + 1 - q, SENTINEL if moves else -1, u, ub, m]


def _lower(f: list, a: int, best: int, m: int, e: int, key, bound, slack: int) -> None:
    """Set the loop end of the frame `f`, whose next child is a, for `best`.

    The end falls to the first child that fails its count, found by binary
    search only when the last child already fails: its least sum exceeds
    `best` under `sum`, over the prefix's entries within the cap, sorted
    here and read off its mask while masks run, and under `max` its leaves
    cannot fit m entries under the cap, counted only at a leaf-level
    frame.  A sweeping frame's end then falls to the first child whose
    bound exceeds `best`.  U_r's read, the highest clear bit plus m of its
    mask cut to the cap, is the bound under `max`; under `sum` a read past
    the cap puts the bound past best, and any other bound is read off
    U_r's table, `_table` of the mask.
    """
    gens, s, end, _, u, ub, r = f
    q = e - len(gens)
    cap = best - slack
    if key is sum:
        v = [*sorted(y for y in (_table(s, m) if type(s) is int else s) if y <= cap), SENTINEL]
        fails = lambda b: _least_sum(v, m + b, q, m, cap) > best
    else:  # under `max` only a leaf-level frame counts here
        y = s & ~(s << m) if type(s) is int else s
        fails = lambda b: q == 1 and _slots(y, m + b, q, cap) < m
    if fails(end - 1):
        end = a + bisect_left(range(a, end - 1), True, key=fails)
    if a < end and ub > best:
        full = (1 << cap + 1) - 1  # `_close` cuts the stored U_r to the new cap
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


def _slots(t: list[int], g: int, q: int, cap: int) -> int:
    """An upper bound on the entries <= cap of a leaf of `t` and q more generators >= g.

    The sum over the table's entries x <= cap of C(q + (cap - x) // g, q)
    (see `_leaves`).  `t` is the table, or the bit set of its entries
    within the cap, y = x & ~(x << m) for the prefix's member mask x up
    to the cap: a member whose predecessor by m is none is the least of
    its class.  The entries with (cap - x) // g = k fill the band
    (cap - (k+1)g, cap - kg], so the sum is that of C(q + k, q) times the
    bits of y in band k, about cap/g + 1 bands in place of one `comb` per
    entry.
    """
    if type(t) is list:
        return sum(comb(q + (cap - x) // g, q) for x in t if x <= cap)
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
    into a value.  Searches that keep only a few members go through
    `_minimizers` instead.
    """
    return PackedFamily(NumericalSemigroup(gens, tuple(w)) for gens, w, _ in _leaves(m, e))


def _minimizers(m: int, e: int, key) -> tuple[NumericalSemigroup, ...]:
    """Packed members at (m, e) with the least `key` of their table, in order.

    `sum` ranks by genus and `max` by Frobenius number, since g and F are
    increasing functions of them.  The family is searched by the
    branch-and-bound of `_leaves`, whose leaves come with their keys and
    no worse than the best before them; only the members attaining the
    minimum are wrapped into values.  A leaf the walk tested on a mask
    comes with that mask, and its table is read off it (`_table`) only
    here, once the leaf is among those members.
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

    Identity on packed input.  The naturals are rejected: their single
    generator has residue 0 and the map has nothing to act on.
    """
    if S.embedding_dim < 2:
        raise Degenerate("packing needs at least two minimal generators")
    m = S.multiplicity
    return make_semigroup({m + (x % m) for x in S.min_gens})


def class_sons(P: NumericalSemigroup, bound: int | None = None) -> tuple[NumericalSemigroup, ...]:
    """Sons of P in the tree of its packing class, in sorted order.

    Replacing a non-multiplicity generator n_k by n_k + m stays in the
    class; it is a son exactly when the new value exceeds the current
    largest generator and is not already representable by the remaining
    generators, which their table modulo m decides (a residue they miss,
    when their gcd exceeds 1, stays at SENTINEL).  They stay minimal, as
    the son lies inside P.  A son past the kernel range raises
    InvalidGenerator, as in `make_semigroup`.

    With `bound`, a son is kept when its F is at most bound: when its
    table stays within cap = bound + m.  The son of n_k misses n_k, so
    n_k + m > cap skips it before its table.  While the cap is below
    `_MASK_BITS` the member mask of the remaining generators up to the cap
    decides both tests, each once: n_k + m is redundant iff its bit is
    set, and the son stays within the cap iff its mask, closed under
    n_k + m, has no clear bit above bound: its `max` read is within the
    cap (the module docstring's lemma at best = cap).  That is one
    comparison, x >= top for top = full ^ full >> m, bits bound + 1 to
    the cap, as for a `max` leaf in `_leaves`.  A kept son reads
    its table off that mask (`_table`), and since n_k + m <= cap, no son
    there can leave the kernel range.  At wider caps, and without a
    bound, each candidate takes the table path: the table of the
    remaining generators, the redundancy read off it, the kernel range
    check, then `relax`, which checks the cap as it sweeps.
    """
    m = P.multiplicity
    gens = P.min_gens
    cap = SENTINEL if bound is None else bound + m
    full = (1 << cap + 1) - 1 if 0 <= cap < _MASK_BITS else 0  # bits 0..cap while masks run
    top = full ^ full >> m  # bits bound+1..cap, all set iff the son's F is within bound
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
    """All semigroups in the packing class of S with the same Frobenius number.

    S must be packed (it is then the class root, realizing the minimal
    Frobenius number of the class).  BFS over the class tree, keeping
    only sons whose Frobenius number still equals F(S): a son lies inside
    its parent, so it is those with F at most F(S), and `class_sons`
    builds no other.  Generator sums grow strictly along class edges, so
    the walk terminates.  Each member has one parent (lower its largest
    generator by m), so no member is reached twice.
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
