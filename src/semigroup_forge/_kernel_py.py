"""Pure-Python residue-table kernels.

Twin of the compiled extension `_kernel`; both expose the same two
functions and one of them is bound by `_backend` at import time.  Keep the
algorithms here line-for-line comparable with the .pyx source.
"""
from __future__ import annotations

from math import gcd

UNREACHABLE = -1

SENTINEL = 1 << 62


def residue_table(modulus: int, gens) -> list[int]:
    """Least-element table of the monoid spanned by `gens`, modulo `modulus`.

    Entry i is the coefficient k with k*modulus + i the least monoid element
    congruent to i, or -1 when the class holds no element.  `modulus` must
    itself belong to the monoid (pass it among the generators when in doubt).

    Relaxation runs generator by generator.  Generator g splits the residues
    into gcd(g, modulus) cycles; one sweep around a cycle starting at its
    minimum is exact, because a chain of g-steps that passes the minimum is
    dominated by the chain that starts there.  Total cost O(modulus * len(gens)).
    """
    m = modulus
    if m < 1:
        raise ValueError("modulus must be positive")
    w = [SENTINEL] * m
    w[0] = 0
    for g in sorted(gens):
        step = g % m
        if step == 0:
            continue
        d = gcd(step, m)
        cycle_len = m // d
        for lead in range(d):
            best_pos = lead
            best = w[lead]
            p = lead
            for _ in range(cycle_len - 1):
                p += step
                if p >= m:
                    p -= m
                if w[p] < best:
                    best = w[p]
                    best_pos = p
            p = best_pos
            cur = w[p]
            for _ in range(cycle_len - 1):
                p += step
                if p >= m:
                    p -= m
                if cur < SENTINEL:
                    cand = cur + g
                    if cand < w[p]:
                        w[p] = cand
                cur = w[p]
    return [(w[i] - i) // m if w[i] < SENTINEL else UNREACHABLE for i in range(m)]


def minimal_residues(modulus: int, coeffs) -> list[int]:
    """Residues whose table element is a minimal generator.

    Expects a fully reachable table (gcd of the generators equal to 1).  A
    nonzero table element fails minimality exactly when it is the sum of two
    nonzero table elements, so an O(modulus^2) pair scan suffices.  Residue 0
    (the modulus itself) is never reported; the caller adds it.
    """
    m = modulus
    w = [coeffs[i] * m + i for i in range(m)]
    out = []
    for i in range(1, m):
        wi = w[i]
        decomposable = False
        for j in range(1, m):
            k = i - j
            if k < 0:
                k += m
            if k == 0 or k < j:
                continue
            if w[j] + w[k] == wi:
                decomposable = True
                break
        if not decomposable:
            out.append(i)
    return out
