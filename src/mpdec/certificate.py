"""Sparse check of a decomposition certificate: M_final . P^-1 == Q . M_min
for graded invertible Q and P^-1, and blocks that make M_final
block-diagonal. Both checks work on the sparse rows and return a list of
problems, empty when the certificate holds; every index must be in range.
"""

from __future__ import annotations

from collections import Counter

from .fields import rank
from .grading import sparse_combination


def _columns(rows, size):
    cols = [{} for _ in range(size)]
    for i, row in enumerate(rows):
        for k, v in row.items():
            cols[k][i] = v
    return cols


def _invertible(rows, degrees, q):
    """A graded transform is block-triangular in a linear extension of the
    degree order, with the equal-degree groups as diagonal blocks, so it is
    invertible iff each of those blocks is."""
    groups = {}
    for i, d in enumerate(degrees):
        groups.setdefault(d, []).append(i)
    return all(
        rows[g[0]].get(g[0], 0) % q if len(g) == 1 else rank(
            [[rows[i].get(k, 0) for k in g] for i in g], q) == len(g)
        for g in groups.values())


def transform_errors(m_in, m_cur, tp):
    """Problems with M_cur . P^-1 == Q . M_in for graded invertible Q and
    P^-1, given as the sparse rows of the TransformPair tp."""
    q = m_in.field.q
    rdeg, cdeg = m_in.row_degrees, m_in.col_degrees
    if m_cur.row_degrees != rdeg or m_cur.col_degrees != cdeg:
        return ["final matrix degrees differ from the minimized input"]
    if len(tp.q_rows) != len(rdeg) or len(tp.pinv_rows) != len(cdeg):
        return ["transform shape does not match the matrix"]
    errors = []
    if not tp.check_graded(rdeg, cdeg):
        errors.append("transform is not graded")
    elif not (_invertible(tp.q_rows, rdeg, q)
              and _invertible(tp.pinv_rows, cdeg, q)):
        errors.append("transform is not invertible")
    q_cols = _columns(tp.q_rows, len(rdeg))
    for k, pinv_col in enumerate(_columns(tp.pinv_rows, len(cdeg))):
        lhs = sparse_combination(pinv_col, m_cur.columns, q)
        rhs = sparse_combination(m_in.columns[k], q_cols, q)
        if lhs != rhs:
            i = min(lhs.items() ^ rhs.items())[0]
            errors.append(f"transform identity fails at ({i}, {k})")
            break
    return errors


def certificate_errors(m_min, m_final, tp, block_rows, block_cols):
    """transform_errors, plus: the blocks (one row and one column index list
    per summand) partition the rows and the columns of m_final, and no
    entry of m_final lies outside its column's block."""
    errors = transform_errors(m_min, m_final, tp)
    for what, blocks, size in (("row", block_rows, m_final.num_rows),
                               ("column", block_cols, m_final.num_cols)):
        owners = Counter(i for b in blocks for i in b)
        twice = [i for i, c in owners.items() if c > 1]
        if twice:
            errors.append(f"{what} {min(twice)} lies in two blocks")
        elif set(owners) != set(range(size)):
            errors.append(f"block {what}s do not cover the matrix")
    for rows, cols in zip(block_rows, block_cols):
        rset = set(rows)
        outside = [(i, j) for j in cols for i in m_final.columns[j]
                   if i not in rset]
        if outside:
            errors.append("entry outside block at (%d, %d)" % outside[0])
            break
    return errors
