"""Slice-clearing linear systems and their application to the sparse matrix.

The core solver answers: can a batch slice C over a target block's rows be
zeroed by (a) row additions from other blocks, encoded through morphism
pairs (Q, P) so the rest of the matrix is preserved, (b) column additions
from the target block's own columns of degree <= alpha, and (c) column
additions from designated same-degree columns? The unknowns are one scalar
per morphism basis element, one combination matrix of the target's own
columns, and optionally a matrix shared across several target blocks.
"""

from __future__ import annotations

import numpy as np

from .fields import solve
from .grading import GradedMatrix, TransformPair


class ClearTarget:
    """One target block's clearing problem.

    Attributes:
        c: the slice to zero, shape (rows, k).
        lam_terms: matrices A of shape (rows, k), one per morphism pair;
            each carries one scalar unknown.
        low: the target's columns of degree <= alpha, shape (rows, f); they
            carry one (f, k) matrix unknown.
    """

    def __init__(self, c: np.ndarray, lam_terms, low: np.ndarray):
        self.c = c
        self.lam_terms = lam_terms
        self.low = low


def _put_kron_eye(dst: np.ndarray, b: np.ndarray, k: int):
    """Write kron(b, I_k) into the zero block dst (np.kron is slow on the
    small matrices of a clear)."""
    for kc in range(k):
        dst[kc::k, kc::k] = b


def solve_clear(targets, q: int, shared=None):
    """Solve the joint clearing system for one or more targets.

    Target t asks for c_t + sum_i lam_i A_i + low_t U_t + s_t S = 0, the
    last term only with `shared`. Flattened row-major, B @ U is
    kron(B, I_k) @ vec(U), so the unknowns are, per target in turn, its
    lam_i and vec(U_t), then vec(S) shared by all targets.

    Args:
        targets: list of ClearTarget, all with the same column count k.
        q: field order.
        shared: None, or one (rows_t, l) matrix s_t per target whose single
            (l, k) unknown S is shared across all targets.

    Returns:
        None if unsolvable, else a list of per-target solutions
        (lam_values, U) plus the shared matrix as the last element:
        ([(lams, U), ...], S_or_None).
    """
    k = targets[0].c.shape[1]
    widths = [len(t.lam_terms) + t.low.shape[1] * k for t in targets]
    n_shared = 0 if shared is None else shared[0].shape[1] * k
    a_mat = np.zeros((sum(t.c.size for t in targets),
                      sum(widths) + n_shared), dtype=np.int64)
    r0 = c0 = 0
    for ti, (t, width) in enumerate(zip(targets, widths)):
        r1, n = r0 + t.c.size, len(t.lam_terms)
        for li, a in enumerate(t.lam_terms):
            a_mat[r0:r1, c0 + li] = a.ravel()
        _put_kron_eye(a_mat[r0:r1, c0 + n:c0 + width], t.low, k)
        if shared is not None:
            _put_kron_eye(a_mat[r0:r1, a_mat.shape[1] - n_shared:],
                          shared[ti], k)
        r0, c0 = r1, c0 + width
    x = solve(a_mat, -np.concatenate([t.c.ravel() for t in targets]), q)
    if x is None:
        return None
    out = []
    c0 = 0
    for t, width in zip(targets, widths):
        n = len(t.lam_terms)
        out.append((x[c0:c0 + n], x[c0 + n:c0 + width].reshape(-1, k)))
        c0 += width
    return out, (None if shared is None else x[c0:].reshape(-1, k))


def solve_one_entry(c: int, terms, low: np.ndarray, field):
    """solve_clear's solution, in closed form, for one target whose slice
    is a single nonzero entry c (one row, k = 1), without a shared matrix.

    The system is one equation, c + sum_i lam_i a_i + low @ u = 0, with
    the unknowns in solve_clear's order: the lam_i, then u. Its RREF
    solution puts -c / a_p on the first nonzero coefficient a_p and zero
    everywhere else, and there is none if every coefficient is zero. So
    `terms` is read only up to a_p, and may be a lazy iterable.

    Args:
        c: the entry to zero.
        terms: (a, meta) pairs in unknown order, a the 1x1 coefficient
            matrix of one lam and meta whatever the caller attaches to it.
        low: the target's low-degree columns, shape (1, f).
        field: FieldConfig of the system.

    Returns:
        None if unsolvable, else (lams, metas, U): the nonzero lam values
        with the metas of their terms (one each, or none when the low
        columns solve it) and U of shape (f, 1).
    """
    q = field.q
    u_mat = np.zeros((low.shape[1], 1), dtype=np.int64)
    for a, meta in terms:
        a = int(a[0, 0]) % q
        if a:
            return [-c * field.inv(a) % q], [meta], u_mat
    for j, a in enumerate(low[0].tolist()):
        if a % q:
            u_mat[j, 0] = -c * field.inv(a) % q
            return [], [], u_mat
    return None


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
