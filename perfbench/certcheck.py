"""Sparse certificate and result checks used by the benchmark.

The program's own ``DecompositionReport.verify`` builds dense n x n
transforms and inverts them, which does not fit in memory at 10k
generators. This checker works on the sparse rows of the certificate:

* the transform identity ``M_final . P^-1 == Q . M_min``, column by column;
* gradedness of Q and P^-1 (``TransformPair.check_graded``);
* invertibility of Q and P^-1: a graded transform is block-triangular in a
  linear extension of the degree order, with the equal-degree index groups
  as diagonal blocks, so it is invertible iff each of those small blocks is;
* the blocks partition the rows and the columns of the final matrix;
* no entry of the final matrix lies outside its column's block.

Each function returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

from collections import Counter


def _transpose(rows, size):
    cols = [{} for _ in range(size)]
    for i, row in enumerate(rows):
        for k, v in row.items():
            cols[k][i] = v
    return cols


def _column_combination(terms, columns, q):
    """sum of coef * columns[idx] over (idx, coef) in terms, sparse mod q."""
    out = {}
    for idx, coef in terms:
        for r, v in columns[idx].items():
            out[r] = (out.get(r, 0) + coef * v) % q
    return {r: v for r, v in out.items() if v}


def _rank_mod(rows, q):
    """Rank of a small dense matrix (list of lists) over F_q."""
    rows = [[x % q for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], q - 2, q)
        rows[rank] = [(x * inv) % q for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % q for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _graded_invertible(rows, degrees, q):
    """Invertibility of a graded square transform given by sparse rows."""
    groups: dict = {}
    for i, d in enumerate(degrees):
        groups.setdefault(d, []).append(i)
    for idx in groups.values():
        dense = [[rows[i].get(k, 0) for k in idx] for i in idx]
        if _rank_mod(dense, q) < len(idx):
            return False
    return True


def certificate_errors(m_min, m_final, tp, block_rows, block_cols):
    """Problems with a decomposition certificate (empty list if sound).

    Args:
        m_min: minimized input presentation (GradedMatrix).
        m_final: final block-diagonal matrix (GradedMatrix).
        tp: TransformPair holding the sparse rows of Q and P^-1.
        block_rows, block_cols: the block partition, one index list per
            summand.
    """
    q = m_min.field.q
    n_rows, n_cols = m_min.num_rows, m_min.num_cols
    if (m_final.row_degrees != m_min.row_degrees
            or m_final.col_degrees != m_min.col_degrees):
        return ["final matrix degrees differ from the minimized input"]
    if len(tp.q_rows) != n_rows or len(tp.pinv_rows) != n_cols:
        return ["transform shape does not match the matrix"]
    errors = []
    if not tp.check_graded(m_min.row_degrees, m_min.col_degrees):
        errors.append("transform is not graded")
    elif not (_graded_invertible(tp.q_rows, m_min.row_degrees, q)
              and _graded_invertible(tp.pinv_rows, m_min.col_degrees, q)):
        errors.append("transform is not invertible")

    q_cols = _transpose(tp.q_rows, n_rows)
    pinv_cols = _transpose(tp.pinv_rows, n_cols)
    for k in range(n_cols):
        lhs = _column_combination(pinv_cols[k].items(), m_final.columns, q)
        rhs = _column_combination(m_min.columns[k].items(), q_cols, q)
        if lhs != rhs:
            errors.append(f"transform identity fails in column {k}")
            break

    row_owner = Counter(i for rows in block_rows for i in rows)
    col_owner = Counter(j for cols in block_cols for j in cols)
    if set(row_owner) != set(range(n_rows)) or max(row_owner.values(), default=1) > 1:
        errors.append("block rows do not partition the matrix rows")
    if set(col_owner) != set(range(n_cols)) or max(col_owner.values(), default=1) > 1:
        errors.append("block columns do not partition the matrix columns")
    for b, (rows, cols) in enumerate(zip(block_rows, block_cols)):
        rset = set(rows)
        if any(i not in rset for j in cols for i in m_final.columns[j]):
            errors.append(f"block {b} has an entry outside its rows")
            break
    return errors


def multiset_errors(got, expected, what):
    """Problems when two signature multisets differ (empty list if equal)."""
    got_c, exp_c = Counter(got), Counter(expected)
    if got_c == exp_c:
        return []
    missing = sum((exp_c - got_c).values())
    extra = sum((got_c - exp_c).values())
    return [f"summand multiset differs from {what}: "
            f"{missing} missing, {extra} unexpected"]
