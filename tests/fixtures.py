"""Hand-built presentations shared across the test modules.

Every builder returns fresh objects, so tests may mutate them freely. All
fixtures are over F_2 unless a field is passed in.

The dense certificate reference is what the tests compare
mpdec.certificate against; the program itself has only the sparse check.
The column-echelon solve and rank at the end are the references for
mpdec.fields' row-reduction kernel.
"""

from __future__ import annotations

import numpy as np

from mpdec.fields import FieldConfig, column_echelon, invert, matmul, modq
from mpdec.grading import GradedMatrix


def f2() -> FieldConfig:
    return FieldConfig(2)


def join_pair_matrix(field: FieldConfig | None = None) -> GradedMatrix:
    """Two incomparable generators tied by one relation at their join.

    Indecomposable but not an interval: the pointwise dimension is 2 on
    the strict overlap of the two upper sets below the join.
    """
    fq = field if field is not None else f2()
    m = GradedMatrix([(0, 1), (1, 0)], [(2, 2)], field=fq)
    m.columns[0] = {0: 1, 1: (fq.q - 1) or 1}
    return m


def antidiagonal_batch_matrix() -> GradedMatrix:
    """Six antidiagonally graded generators, one batch of four relations.

    All generator degrees are pairwise incomparable, so no row operation is
    admissible and only the four same-degree columns can be combined. The
    unique splitting needs a genuine change of basis on the batch: it is
    invisible to single-column clearing.
    """
    dense = np.array(
        [
            [0, 1, 0, 1],
            [1, 0, 1, 0],
            [1, 1, 1, 1],
            [0, 1, 1, 0],
            [1, 1, 0, 1],
            [1, 0, 1, 1],
        ],
        dtype=np.int64,
    )
    gens = [(0, 5), (1, 4), (2, 3), (3, 2), (4, 1), (5, 0)]
    rels = [(5, 5)] * 4
    return GradedMatrix.from_dense(dense, gens, rels, field=f2())


def chain_digraph_matrix() -> GradedMatrix:
    """Three-block start state plus a two-column batch at (1,3).

    Columns 0 and 1 sit at (2,2) and belong to the initial blocks b (the
    free generator at (1,2)), c (the single generator at (1,1)) and d (the
    two-generator join block). Resolving the batch merges c and d with one
    column and leaves b with the other: summand sizes (3, 3) and (1, 1).
    """
    dense = np.array(
        [
            [1, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 1],
            [0, 0, 1, 1],
        ],
        dtype=np.int64,
    )
    gens = [(0, 1), (1, 0), (1, 1), (1, 2)]
    rels = [(2, 2), (2, 2), (1, 3), (1, 3)]
    return GradedMatrix.from_dense(dense, gens, rels, field=f2())


def chain_blocks():
    """The three blocks of chain_digraph_matrix before its batch.

    Returns:
        (b, c, d): b the free generator at (1,2), c a single generator
        truncated at (2,2), d the two-generator join block. The nonzero
        morphism spaces flow b -> c -> d.
    """
    b = GradedMatrix([(1, 2)], [], field=f2())
    c = GradedMatrix([(1, 1)], [(2, 2)], field=f2())
    c.columns[0] = {0: 1}
    d = GradedMatrix([(0, 1), (1, 0)], [(2, 2)], field=f2())
    d.columns[0] = {0: 1, 1: 1}
    return b, c, d


def staircase_pair():
    """Two staircase intervals with a 2-dimensional Hom space.

    Returns:
        (x, y, alpha): hom_space(x, y) has dimension 2 and exactly one
        basis overlap survives localisation at alpha = (6, 2).
    """
    y = GradedMatrix(
        [(1, 3), (2, 0)],
        [(2, 3), (8, 0), (4, 3), (2, 5)],
        field=f2(),
    )
    y.columns[0] = {0: 1, 1: 1}
    y.columns[1] = {1: 1}
    y.columns[2] = {0: 1}
    y.columns[3] = {0: 1}
    x = GradedMatrix(
        [(0, 7), (3, 4), (5, 1)],
        [(3, 7), (5, 4), (9, 1), (7, 6)],
        field=f2(),
    )
    x.columns[0] = {0: 1, 1: 1}
    x.columns[1] = {1: 1, 2: 1}
    x.columns[2] = {2: 1}
    x.columns[3] = {1: 1}
    return x, y, (6, 2)


def clearing_fixture():
    """Two-block state with one pending column whose upper slice is clearable.

    Returns:
        (m, b_rows, b_cols, c_rows, c_cols): columns 0-3 form the two
        blocks, column 4 at (4,3) is pending. Zeroing the upper slice needs
        a row addition from the lower block compensated by two column
        additions from upper-block columns into lower-block columns.
    """
    dense = np.array(
        [
            [1, 0, 0, 0, 1],
            [1, 1, 0, 0, 0],
            [0, 0, 1, 0, 1],
            [0, 0, 1, 1, 0],
        ],
        dtype=np.int64,
    )
    gens = [(0, 1), (1, 0), (1, 2), (3, 1)]
    rels = [(1, 1), (5, 0), (3, 2), (5, 1), (4, 3)]
    m = GradedMatrix.from_dense(dense, gens, rels, field=f2())
    return m, [0, 1], [0, 1], [2, 3], [2, 3]


def equal_rows_split_matrix() -> GradedMatrix:
    """Two summands that only a row addition between equal-degree
    generators separates.

    Generators at (0,2), (1,2), (2,1), (2,1) and one batch of two relations
    at (2,2). Adding row 2 to row 3 (both at (2,1)) clears row 3's entry in
    the first column, which splits the presentation into two summands of
    size (2, 1): rows {0, 2} with the first relation and rows {1, 3} with
    the second.
    """
    dense = np.array([[1, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int64)
    gens = [(0, 2), (1, 2), (2, 1), (2, 1)]
    rels = [(2, 2), (2, 2)]
    return GradedMatrix.from_dense(dense, gens, rels, field=f2())


def obstruction_matrix() -> GradedMatrix:
    """Batch fixture where greedy single-column clearing goes wrong.

    Clearing the first batch column's top entry first leads to a dead end;
    combining the two same-degree columns before clearing splits the
    presentation into summands of sizes (1, 1) and (2, 1).
    """
    dense = np.array([[0, 1], [1, 1], [1, 0]], dtype=np.int64)
    gens = [(0, 1), (1, 1), (2, 0)]
    rels = [(2, 2), (2, 2)]
    return GradedMatrix.from_dense(dense, gens, rels, field=f2())


def _dense(rows, size) -> np.ndarray:
    a = np.zeros((size, size), dtype=np.int64)
    for i, row in enumerate(rows):
        for k, v in row.items():
            a[i, k] = v
    return a


def dense_identity_mismatch(m_in, m_cur, tp):
    """(i, j) of the first entry, in column order, where the dense
    M_cur . P^-1 and Q . M_in differ, or None."""
    q = m_in.field.q
    diff = (modq(m_cur.to_dense() @ _dense(tp.pinv_rows, m_in.num_cols), q)
            != modq(_dense(tp.q_rows, m_in.num_rows) @ m_in.to_dense(), q))
    bad = np.argwhere(diff.T)
    return (int(bad[0][1]), int(bad[0][0])) if len(bad) else None


def dense_transform_holds(m_in, m_cur, tp) -> bool:
    """Dense reference for mpdec.certificate.transform_errors: equal
    degrees, Q and P^-1 graded and invertible, M_cur . P^-1 == Q . M_in."""
    q = m_in.field.q
    return (m_cur.row_degrees == m_in.row_degrees
            and m_cur.col_degrees == m_in.col_degrees
            and tp.check_graded(m_in.row_degrees, m_in.col_degrees)
            and invert(_dense(tp.q_rows, m_in.num_rows), q) is not None
            and invert(_dense(tp.pinv_rows, m_in.num_cols), q) is not None
            and dense_identity_mismatch(m_in, m_cur, tp) is None)


def block_partition_holds(m, block_rows, block_cols) -> bool:
    """Every row and column in exactly one block, and every entry of m in
    the block of its column."""
    row_owner = {i: b for b, rows in enumerate(block_rows) for i in rows}
    col_owner = {j: b for b, cols in enumerate(block_cols) for j in cols}
    return (sum(map(len, block_rows)) == len(row_owner)
            and sum(map(len, block_cols)) == len(col_owner)
            and set(row_owner) == set(range(m.num_rows))
            and set(col_owner) == set(range(m.num_cols))
            and all(row_owner[i] == col_owner[j]
                    for j, col in enumerate(m.columns) for i in col))


def reference_rank(a: np.ndarray, q: int) -> int:
    """Rank as the pivot count of column_echelon."""
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return 0
    return len(column_echelon(a, q)[1])


def reference_solve(a: np.ndarray, b: np.ndarray, q: int):
    """Solve A x = b, free variables zero, through the column echelon form
    of A^T and its transform: the reference for fields.solve."""
    a = modq(np.asarray(a, dtype=np.int64), q)
    b = modq(np.asarray(b, dtype=np.int64), q)
    single = b.ndim == 1
    bb = b.reshape(-1, 1) if single else b
    m, n = a.shape
    if bb.shape[0] != m:
        raise ValueError("dimension mismatch")
    _, pivot_cols, t = column_echelon(a.T, q)
    tb = matmul(t.T, bb, q)
    r = len(pivot_cols)
    if np.any(tb[r:, :] % q):
        return None
    x = np.zeros((n, bb.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivot_cols):
        x[pc, :] = tb[i, :]
    if np.any(matmul(a, x, q) != bb):
        return None
    return x[:, 0] if single else x
