"""Interval-module detection and the combinatorial interval Hom predicate.

An interval module is pointwise at most one-dimensional with connected,
order-convex support. Its minimal presentation has a normal form: every
relation column has a single entry, or two entries scalable to (1, -1)
sitting at the join of the two generators it touches. check_interval
verifies the normal form structurally and then the pointwise conditions on
the compressed grid spanned by the block's own degrees (dimension_grid).
"""

from __future__ import annotations

from itertools import product

import numpy as np

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


def _grid_axes(degs):
    """Per parameter, the sorted distinct values of degs plus a sentinel."""
    axes = []
    for a in range(len(degs[0])):
        vals = sorted({d[a] for d in degs})
        vals.append(vals[-1] + 1)  # sentinel beyond every finite degree
        axes.append(vals)
    return axes


def dimension_grid(m: GradedMatrix):
    """The compressed grid of m and dim coker(m) at every point of it.

    The axes are, per parameter, the sorted distinct values of m's own
    generator and relation degrees plus one sentinel beyond them, so every
    own degree is a grid point and its upset is a trailing box of the grid.

    Returns:
        (axes, dims): dims an int64 array of shape (len(ax) for ax in axes),
        dims[idx] the dimension at (ax[i] for ax, i in zip(axes, idx)).
        Without any degree, ([], an empty array).
    """
    degs = m.row_degrees + m.col_degrees
    if not degs:
        return [], np.zeros(0, dtype=np.int64)
    axes = _grid_axes(degs)
    index = [{v: i for i, v in enumerate(ax)} for ax in axes]

    def upset(deg):
        return tuple(slice(ix[x], None) for ix, x in zip(index, deg))

    grid = tuple(len(ax) for ax in axes)
    dims = np.zeros(grid, dtype=np.int64)
    if m.num_rows == 1:
        # closed form: 1 above the generator unless a nonzero column has
        # degree <= gamma, 0 elsewhere
        dims[upset(m.row_degrees[0])] = 1
        for r, col in zip(m.col_degrees, m.columns):
            if col:
                dims[upset(r)] = 0
        return axes, dims
    for g in m.row_degrees:
        dims[upset(g)] += 1
    if not m.num_cols:
        return axes, dims
    # rank of M^{<=gamma} depends only on the included column set: every
    # entry of an included column sits in an included row
    included = np.zeros((m.num_cols,) + grid, dtype=bool)
    for j, r in enumerate(m.col_degrees):
        included[(j,) + upset(r)] = True
    sets, inverse = np.unique(included.reshape(m.num_cols, -1), axis=1,
                              return_inverse=True)
    dense = m.to_dense()
    ranks = np.array([
        rank(dense[:, s], m.field.q) if s.any() else 0 for s in sets.T
    ], dtype=np.int64)
    return axes, dims - ranks[inverse.ravel()].reshape(grid)


def check_interval(m: GradedMatrix):
    """Return an IntervalShape if m presents an interval module, else None.

    Structural pass: each column has one entry, or exactly two whose values
    are negatives of each other and whose degree is the join of the two
    generators touched. Semantic pass on dimension_grid(m): pointwise
    dimension <= 1, support nonempty, connected under grid adjacency, and
    order-convex.
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

    _, dims = dimension_grid(m)
    live = dims == 1
    if (dims > 1).any() or not live.any():
        return None
    if m.num_rows == 1:
        # upset(g) minus the relations' upsets is order-convex, and connected
        # since every point between g and a support point lies in it
        return IntervalShape(m)
    # order convexity: no dead point both above and below the support
    up, down = live, live
    for a in range(live.ndim):
        up = np.logical_or.accumulate(up, axis=a)
        down = np.flip(
            np.logical_or.accumulate(np.flip(down, axis=a), axis=a), axis=a)
    if (up & down & ~live).any():
        return None
    # connectivity under one-step grid adjacency
    support = set(map(tuple, np.argwhere(live).tolist()))
    start = next(iter(support))
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for a in range(len(cur)):
            for step in (-1, 1):
                nb = cur[:a] + (cur[a] + step,) + cur[a + 1:]
                if nb in support and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return IntervalShape(m) if len(seen) == len(support) else None


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
    axes = _grid_axes(i_shape.gens + i_shape.rels + j_shape.gens
                      + j_shape.rels + [alpha])
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
