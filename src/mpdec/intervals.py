"""Interval-module detection and the combinatorial interval Hom predicate.

An interval module is pointwise at most one-dimensional with connected,
order-convex support. Its minimal presentation has a normal form: every
relation column has a single entry, or two entries scalable to (1, -1)
sitting at the join of the two generators it touches. check_interval
verifies the normal form structurally and then the pointwise conditions on
the compressed grid spanned by the block's own degrees.
"""

from __future__ import annotations

from itertools import product

from .fields import rank
from .grading import GradedMatrix, join, leq


def dim_at(m: GradedMatrix, gamma) -> int:
    """Pointwise dimension of coker(m) at degree gamma."""
    rows = [i for i, g in enumerate(m.row_degrees) if leq(g, gamma)]
    cols = [j for j, r in enumerate(m.col_degrees) if leq(r, gamma)]
    if not rows:
        return 0
    return len(rows) - rank(m.dense_slice(rows, cols), m.field.q)


class IntervalShape:
    """Validated interval block: presentation plus a support membership test."""

    def __init__(self, m: GradedMatrix):
        self.matrix = m
        self.gens = list(m.row_degrees)
        self.rels = list(m.col_degrees)

    def contains(self, gamma) -> bool:
        return dim_at(self.matrix, gamma) == 1


def _grid_axes(shapes, extra_points=()):
    degs = [d for s in shapes for d in s.gens + s.rels] + [tuple(p) for p in extra_points]
    dim = len(degs[0])
    axes = []
    for a in range(dim):
        vals = sorted({d[a] for d in degs})
        vals.append(vals[-1] + 1)  # sentinel beyond every finite degree
        axes.append(vals)
    return axes


def check_interval(m: GradedMatrix):
    """Return an IntervalShape if m presents an interval module, else None.

    Structural pass: each column has one entry, or exactly two whose values
    are negatives of each other and whose degree is the join of the two
    generators touched. Semantic pass on the compressed degree grid:
    pointwise dimension <= 1, support nonempty, connected under grid
    adjacency, and order-convex.
    """
    q = m.field.q
    if m.num_rows == 0:
        return None
    for j in range(m.num_cols):
        ents = m.entries(j)
        if len(ents) == 1:
            continue
        if len(ents) != 2:
            return None
        (i1, v1), (i2, v2) = ents
        if (v1 + v2) % q != 0:
            return None
        if m.col_degrees[j] != join(m.row_degrees[i1], m.row_degrees[i2]):
            return None

    shape = IntervalShape(m)
    axes = _grid_axes([shape])
    grid = {}
    for idx in product(*(range(len(ax)) for ax in axes)):
        gamma = tuple(ax[i] for ax, i in zip(axes, idx))
        d = dim_at(m, gamma)
        if d > 1:
            return None
        grid[idx] = d == 1
    support = [idx for idx, alive in grid.items() if alive]
    if not support:
        return None
    # connectivity under one-step grid adjacency
    seen = {support[0]}
    stack = [support[0]]
    while stack:
        cur = stack.pop()
        for a in range(len(axes)):
            for step in (-1, 1):
                nb = list(cur)
                nb[a] += step
                nb = tuple(nb)
                if nb in grid and grid[nb] and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    if len(seen) != len(support):
        return None
    # order convexity
    supp_set = set(support)
    for idx, alive in grid.items():
        if alive:
            continue
        below = any(all(s <= g for s, g in zip(sp, idx)) for sp in supp_set)
        above = any(all(s >= g for s, g in zip(sp, idx)) for sp in supp_set)
        if below and above:
            return None
    return shape


def interval_alpha_hom(i_shape: IntervalShape, j_shape: IntervalShape, alpha) -> bool:
    """Whether Hom^alpha from interval I to interval J is nonzero.

    Evaluated combinatorially on the joint compressed grid: for every grid
    point gamma in the connected component of supp(I) & supp(J) containing
    alpha, every point of I below gamma lies in J and every point of J
    above gamma lies in I.
    """
    alpha = tuple(alpha)
    if not i_shape.contains(alpha) or not j_shape.contains(alpha):
        return False
    axes = _grid_axes([i_shape, j_shape], extra_points=[alpha])
    idx_points = list(product(*(range(len(ax)) for ax in axes)))
    gamma_of = {
        idx: tuple(ax[i] for ax, i in zip(axes, idx)) for idx in idx_points
    }
    in_i = {idx: i_shape.contains(gamma_of[idx]) for idx in idx_points}
    in_j = {idx: j_shape.contains(gamma_of[idx]) for idx in idx_points}
    overlap = {idx for idx in idx_points if in_i[idx] and in_j[idx]}
    alpha_idx = tuple(ax.index(alpha[a]) for a, ax in enumerate(axes))
    if alpha_idx not in overlap:
        return False
    comp = {alpha_idx}
    stack = [alpha_idx]
    while stack:
        cur = stack.pop()
        for a in range(len(axes)):
            for step in (-1, 1):
                nb = list(cur)
                nb[a] += step
                nb = tuple(nb)
                if nb in overlap and nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
    for g_idx in comp:
        for idx in idx_points:
            le = all(x <= y for x, y in zip(idx, g_idx))
            ge = all(x >= y for x, y in zip(idx, g_idx))
            if le and in_i[idx] and not in_j[idx]:
                return False
            if ge and in_j[idx] and not in_i[idx]:
                return False
    return True
