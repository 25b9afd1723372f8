"""Residue-table kernels.

The least-element (Apery) table of a monoid modulo one of its members,
built one generator at a time, and the minimal-generator test that reads
it.  Entry i is the least element congruent to i, or SENTINEL when the
class holds none.  `backend_name` names the kernel in `meta.backend`.
"""
from __future__ import annotations

from math import gcd

backend_name = "pure"

SENTINEL = 1 << 62


def relax(w: list[int], modulus: int, g: int, cap: int = SENTINEL) -> bool:
    """Adjoin generator g to the least-element table `w`, in place.

    `w[i]` is the least element congruent to i found so far, or SENTINEL;
    `w[0]` is 0.  This is the round-robin update of Böcker and Lipták
    (Algorithmica, 2007).  Generator g splits the residues into
    gcd(g, modulus) cycles; one sweep around a cycle starting at its
    minimum is exact, because a chain of g-steps that passes the minimum
    is dominated by the chain that starts there.  The cycle through 0 has
    its minimum, 0, at 0.  Cost O(modulus).

    Each entry the sweep passes is final, so the sweep can stop at the
    first one above `cap`: it then returns False and leaves `w` half
    updated, and the finished table would have an entry above `cap`.
    Otherwise it returns True with `w` complete.  The default cap never
    stops a sweep.  A multiple of the modulus changes no entry, so it
    returns whether the table is already within `cap`.
    """
    m = modulus
    step = g % m
    if step == 0:
        return max(w) <= cap
    d = gcd(step, m)
    cycle_len = m // d
    for lead in range(d):
        p = lead
        if lead:
            best = w[lead]
            q = lead
            for _ in range(cycle_len - 1):
                q += step
                if q >= m:
                    q -= m
                if w[q] < best:
                    best = w[q]
                    p = q
        cur = w[p]
        for _ in range(cycle_len - 1):
            p += step
            if p >= m:
                p -= m
            cur += g
            if w[p] < cur:
                cur = w[p]
            else:
                w[p] = cur
            if cur > cap:
                return False
    return True


def residue_table(modulus: int, gens) -> list[int]:
    """Least-element table of the monoid spanned by `gens` and `modulus`.

    Entry i is the least monoid element congruent to i, or SENTINEL when
    the class holds none; `modulus` among `gens` relaxes nothing.  Each
    `relax` is exact, so `gens` may come in any order.  Total cost
    O(modulus * len(gens)).
    """
    m = modulus
    if m < 1:
        raise ValueError("modulus must be positive")
    w = [SENTINEL] * m
    w[0] = 0
    for g in gens:
        relax(w, m, g)
    return w


def minimal_residues(modulus: int, w, gens) -> list[int]:
    """Residues of the minimal generators among `gens`, other than `modulus`.

    `modulus` is the least of `gens` and `w` their least-element table.
    Every minimal generator is one of the inputs.  An input x outside the
    class of 0 is one exactly when x - n is no member for each smaller
    minimal generator n other than `modulus`: any sum of two nonzero
    members that equals x uses such an n.  Members are read off the table
    (y is one iff y >= w[y % modulus]), so the test costs O(len(gens)^2).
    Residues come in the order of their generators.
    """
    m = modulus
    minimal = []
    for x in sorted(gens):
        if x % m and all(x - n < w[(x - n) % m] for n in minimal):
            minimal.append(x)
    return [x % m for x in minimal]
