"""Enumeration of complementary subspace pairs of F_q^k via Schubert cells.

generate_dec(k, q) yields the family Dec_q(k) of pairs (T1, T2): T1 spans
an l-dimensional subspace in column-echelon form, T2 is the standard-basis
complement on the non-pivot rows. Only l <= k/2 is enumerated, and for even
k at l = k/2 only the pivot sets containing row 0, i.e. the subspaces not
inside the hyperplane H = {x_0 = 0}. Each subspace is emitted once, and
every complementary pair {U, V} of F_q^k has at least one member emitted
(both are emitted for many pairs: 277,760 of the 357,120 pairs of 3-spaces
of F_2^6). The family has

    |Dec_q(k)| = sum_{l=1}^{floor(k/2)} [k,l]_q - (k even ? [k-1,k/2]_q : 0)

members ([n,l]_q the Gaussian binomial; 1 for k = 1). No covering family
of subspaces of dimension at most k/2 is smaller: every l-subspace with
l < k/2 is needed, and the k/2-spaces left out must meet pairwise, so by
the q-analogue of Erdos-Ko-Rado for half-dimensional subspaces (Godsil and
Meagher, "Erdos-Ko-Rado Theorems: Algebraic Approaches", 2016) at most
[k-1,k/2-1]_q = [k-1,k/2]_q of them can be left out.
"""

from __future__ import annotations

from itertools import combinations, takewhile

import numpy as np


def grassmannian_cells(k: int, l: int, q: int):
    """Yield every l-dimensional subspace of F_q^k exactly once.

    Pivot sets run in lexicographic order; the free entries (below each
    pivot, outside other pivot rows) run in odometer order.

    Yields:
        (t1, pivots): t1 a k x l column-echelon matrix, pivots its sorted
        pivot row tuple.
    """
    if not (0 < l < k):
        return
    for pivots in combinations(range(k), l):
        pivot_set = set(pivots)
        free = [
            (r, c)
            for c in range(l)
            for r in range(pivots[c] + 1, k)
            if r not in pivot_set
        ]
        base = np.zeros((k, l), dtype=np.int64)
        for c, p in enumerate(pivots):
            base[p, c] = 1
        n_free = len(free)
        counter = [0] * n_free
        while True:
            t1 = base.copy()
            for (r, c), v in zip(free, counter):
                t1[r, c] = v
            yield t1, pivots
            # odometer step
            i = 0
            while i < n_free:
                counter[i] += 1
                if counter[i] < q:
                    break
                counter[i] = 0
                i += 1
            if i == n_free:
                break


def complement(t1: np.ndarray, pivots, k: int) -> np.ndarray:
    """Standard-basis columns on the non-pivot rows; [T1 T2] is invertible."""
    others = [r for r in range(k) if r not in set(pivots)]
    t2 = np.zeros((k, len(others)), dtype=np.int64)
    for c, r in enumerate(others):
        t2[r, c] = 1
    return t2


def generate_dec(k: int, q: int):
    """Yield the pairs (T1, T2) of Dec_q(k).

    For k = 1 the single trivial pair (empty T1, identity T2) is produced.
    Otherwise every l-subspace for 1 <= l <= k/2 is emitted once, except
    that for even k and l = k/2 only pivot sets containing row 0 are used:
    the cells skipped are exactly the subspaces of {x_0 = 0}, which are
    pairwise non-complementary, so the k/2-spaces emitted form a vertex
    cover of the complementary-pair graph. Each unordered decomposition
    {U, V} of F_q^k thus has at least one of U, V emitted, and for many
    pairs both are.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        yield np.zeros((1, 0), dtype=np.int64), np.eye(1, dtype=np.int64)
        return
    for l in range(1, k // 2 + 1):
        cells = grassmannian_cells(k, l, q)
        if 2 * l == k:
            # pivot sets containing row 0 come first in lexicographic order
            cells = takewhile(lambda cell: cell[1][0] == 0, cells)
        for t1, pivots in cells:
            yield t1, complement(t1, pivots, k)


def dec_count(k: int, q: int) -> int:
    """|Dec_q(k)| by direct enumeration."""
    return sum(1 for _ in generate_dec(k, q))
