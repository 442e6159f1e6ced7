"""Interval-module detection and the combinatorial interval Hom predicate.

An interval module is pointwise at most one-dimensional with connected,
order-convex support, and every internal map between comparable support
points is nonzero. check_interval decides this from basis-free data on the
compressed grid spanned by the block's own degrees (dimension_grid): there
the module is constant between neighbouring grid values, and by convexity
the maps between comparable support points compose from the maps between
adjacent ones.
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


def _thick_at_a_join(m: GradedMatrix) -> bool:
    """Whether some join p of one or two generator degrees has at least two
    more generators than nonzero relations below it. Then dim M(p) >= 2,
    since rank(R_<=p) is at most the number of those relations: a reject
    by counting alone, before any rank."""
    gens = m.row_degrees
    rels = [r for r, col in zip(m.col_degrees, m.columns) if col]
    return any(
        sum(leq(g, p) for g in gens) - sum(leq(r, p) for r in rels) >= 2
        for p in {join(a, b) for a in gens for b in gens})


def _adjacent_maps_nonzero(m: GradedMatrix, axes, live) -> bool:
    """Whether M(gamma) -> M(gamma + e_a) is nonzero for every pair of
    adjacent support points of the compressed grid.

    Both spaces are one-dimensional. With S the generators of degree
    <= gamma, T those of degree <= gamma + e_a but not <= gamma, and R the
    relation columns of degree <= gamma + e_a, the map has rank
    rank([R | E_S]) - rank(R) = 1 + rank(R[T, :]) - |T|. So it is nonzero
    iff R[T, :] has full row rank, which holds trivially when T is empty.
    T holds only generators whose a-th coordinate is that of gamma + e_a.
    """
    dense = m.to_dense()
    # per axis: grid index -> generators with that coordinate; none sits
    # at the sentinel, so no step leaves the grid
    born_at = [{} for _ in axes]
    for i, g in enumerate(m.row_degrees):
        for a, (ax, x) in enumerate(zip(axes, g)):
            born_at[a].setdefault(ax.index(x), []).append(i)
    for idx in map(tuple, np.argwhere(live).tolist()):
        for a, i in enumerate(idx):
            cand = born_at[a].get(i + 1)
            nxt = idx[:a] + (i + 1,) + idx[a + 1:]
            if not cand or not live[nxt]:
                continue
            up = [ax[j] for ax, j in zip(axes, nxt)]
            born = [g for g in cand if leq(m.row_degrees[g], up)]
            if not born:
                continue
            cols = [j for j, r in enumerate(m.col_degrees) if leq(r, up)]
            if rank(dense[np.ix_(born, cols)], m.field.q) < len(born):
                return False
    return True


def check_interval(m: GradedMatrix, dims=None):
    """Return an IntervalShape if m presents an interval module, else None.

    dims, if given, is the dimension vector of dimension_grid(m) in
    row-major order, as summand_signature(m) holds it; otherwise the grid
    is built here when needed.

    On dimension_grid(m): pointwise dimension <= 1, support nonempty,
    order-convex and connected under grid adjacency, and every map between
    adjacent support points nonzero. A one-generator presentation needs no
    grid: its support is upset(g) minus the upsets of the nonzero columns,
    which is order-convex, connected (every point between g and a support
    point lies in it) and nonempty unless some nonzero column has degree
    <= g.
    """
    if m.num_rows == 0:
        return None
    if m.num_rows == 1:
        g = m.row_degrees[0]
        if any(col and leq(r, g) for r, col in zip(m.col_degrees, m.columns)):
            return None
        return IntervalShape(m)
    if dims is None:
        if _thick_at_a_join(m):
            return None
        axes, dims = dimension_grid(m)
    else:  # _thick_at_a_join's joins are grid points; dims > 1 rejects them
        axes = _grid_axes(m.row_degrees + m.col_degrees)
        dims = np.reshape(dims, [len(ax) for ax in axes])
    live = dims == 1
    if (dims > 1).any() or not live.any():
        return None
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
    if len(seen) != len(support) or not _adjacent_maps_nonzero(m, axes, live):
        return None
    return IntervalShape(m)


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
