"""Slice-clearing linear systems and their application to the sparse matrix.

The core solver answers: can a batch slice C over a target block's rows be
zeroed by (a) row additions from other blocks, encoded through morphism
pairs (Q, P) so the rest of the matrix is preserved, (b) column additions
from the target block's own columns of degree <= alpha, and (c) column
additions from designated same-degree columns? The unknowns are one scalar
per morphism basis element, one combination matrix per column source, and
optionally a matrix shared across several target blocks.
"""

from __future__ import annotations

import numpy as np

from .fields import solve
from .grading import GradedMatrix, TransformPair


class ClearTarget:
    """One target block's clearing problem.

    Attributes:
        c: the slice to zero, shape (rows, k).
        lam_terms: list of (tag, A) with A of shape (rows, k); each carries
            one scalar unknown (tag identifies the morphism pair behind it).
        col_terms: list of (tag, B) with B of shape (rows, f); each carries
            a matrix unknown of shape (f, k) (tag identifies the column
            source behind it).
    """

    def __init__(self, c: np.ndarray, lam_terms=None, col_terms=None):
        self.c = np.asarray(c, dtype=np.int64)
        self.lam_terms = list(lam_terms or [])
        self.col_terms = list(col_terms or [])


def solve_clear(targets, q: int, shared=None):
    """Solve the joint clearing system for one or more targets.

    Args:
        targets: list of ClearTarget, all with the same column count k.
        q: field order.
        shared: optional list of (rows_i, l) matrices, one per target, whose
            single (l, k) unknown is shared across all targets; entries may
            be None for targets the shared source cannot reach.

    Returns:
        None if unsolvable, else a list of per-target solutions
        (lam_values, col_values) plus the shared matrix as the last element:
        ([(lams, cols), ...], s_matrix_or_None).
    """
    if not targets:
        return [], None
    k = targets[0].c.shape[1]
    cols = []  # (vectors stacked over all targets)
    rhs_parts = []
    row_offsets = []
    total_rows = 0
    for t in targets:
        row_offsets.append(total_rows)
        total_rows += t.c.shape[0] * k
        rhs_parts.append((-t.c % q).ravel())
    rhs = np.concatenate(rhs_parts) if rhs_parts else np.zeros(0, dtype=np.int64)

    col_meta = []  # (kind, target_idx, term_idx, sub_idx)
    for ti, t in enumerate(targets):
        base = row_offsets[ti]
        for li, (_, a) in enumerate(t.lam_terms):
            v = np.zeros(total_rows, dtype=np.int64)
            v[base:base + a.shape[0] * k] = a.ravel() % q
            cols.append(v)
            col_meta.append(("lam", ti, li, 0))
        for ci, (_, b) in enumerate(t.col_terms):
            f = b.shape[1]
            for a_i in range(f):
                for kc in range(k):
                    v = np.zeros(total_rows, dtype=np.int64)
                    v[base + kc:base + t.c.shape[0] * k:k] = b[:, a_i] % q
                    cols.append(v)
                    col_meta.append(("col", ti, ci, a_i * k + kc))
    l_shared = 0
    if shared is not None:
        l_shared = next(s.shape[1] for s in shared if s is not None)
        for a_i in range(l_shared):
            for kc in range(k):
                v = np.zeros(total_rows, dtype=np.int64)
                for ti, s in enumerate(shared):
                    if s is None:
                        continue
                    base = row_offsets[ti]
                    v[base + kc:base + targets[ti].c.shape[0] * k:k] = s[:, a_i] % q
                cols.append(v)
                col_meta.append(("shared", -1, 0, a_i * k + kc))

    a_mat = (
        np.stack(cols, axis=1)
        if cols
        else np.zeros((total_rows, 0), dtype=np.int64)
    )
    x = solve(a_mat, rhs, q)
    if x is None:
        return None

    out = []
    for ti, t in enumerate(targets):
        lams = np.zeros(len(t.lam_terms), dtype=np.int64)
        colvals = [np.zeros((b.shape[1], k), dtype=np.int64) for _, b in t.col_terms]
        out.append((lams, colvals))
    s_val = np.zeros((l_shared, k), dtype=np.int64) if shared is not None else None
    for v, (kind, ti, term, sub) in zip(x, col_meta):
        if kind == "lam":
            out[ti][0][term] = v
        elif kind == "col":
            out[ti][1][term][sub // k, sub % k] = v
        else:
            s_val[sub // k, sub % k] = v
    return out, s_val


def apply_hom_pair(m: GradedMatrix, tp: TransformPair, tgt_rows, tgt_cols,
                   src_rows, src_cols, qq: np.ndarray, pp: np.ndarray):
    """Add Q times the source block's rows into the target block's rows.

    The induced disturbance of the source columns (Q . M_src = M_tgt . P)
    is reverted with column additions of target columns into source
    columns, so every proper block of the matrix is preserved; only columns
    outside both proper blocks (such as the batch columns) change.
    """
    q = m.field.q
    for a, ti in enumerate(tgt_rows):
        for b, si in enumerate(src_rows):
            c = int(qq[a, b]) % q
            if c:
                m.row_add(si, ti, c)
                tp.row_add(si, ti, c)
    for i, ci in enumerate(tgt_cols):
        for j, cj in enumerate(src_cols):
            c = int(pp[i, j]) % q
            if c:
                m.col_add(ci, cj, (-c) % q)
                tp.col_add(ci, cj, (-c) % q)


def apply_col_combo(m: GradedMatrix, tp: TransformPair, dst_col: int,
                    combo):
    """Column dst += sum of coef * source column, with transform tracking."""
    q = m.field.q
    for src, coef in combo:
        c = int(coef) % q
        if c:
            m.col_add(src, dst_col, c)
            tp.col_add(src, dst_col, c)
