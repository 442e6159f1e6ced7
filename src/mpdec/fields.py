"""Prime-field scalar arithmetic and dense linear algebra over F_q.

All matrices here are plain numpy int64 arrays with entries reduced mod q.
The graded structure lives one layer up (see grading.py); this module only
knows about solving, kernels and echelon forms.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    i = 2
    while i * i <= q:
        if q % i == 0:
            return False
        i += 1
    return True


class FieldConfig:
    """The prime field F_q.

    Attributes:
        q: field order, a prime (default 2).
    """

    def __init__(self, q: int = 2):
        if not _is_prime(q):
            raise ValueError(f"field order must be prime, got {q}")
        self.q = q
        # inverse table; q is small in practice
        self._inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            self._inv[a] = pow(a, q - 2, q)

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero scalar."""
        a = int(a) % self.q
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return int(self._inv[a])

    def neg(self, a: int) -> int:
        return (-int(a)) % self.q

    def __eq__(self, other):
        return isinstance(other, FieldConfig) and other.q == self.q

    def __hash__(self):
        return hash(("FieldConfig", self.q))

    def __repr__(self):
        return f"FieldConfig(q={self.q})"


@lru_cache(maxsize=None)
def _field(q: int) -> FieldConfig:
    """One FieldConfig (and inverse table) per field order."""
    return FieldConfig(q)


def modq(a: np.ndarray, q: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % q


def matmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    return (np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64)) % q


def column_echelon(a: np.ndarray, q: int):
    """Column echelon form E = A @ T with invertible T.

    Pivot of each nonzero column is its lowest-index nonzero row; pivot rows
    are strictly increasing over the nonzero columns, and every pivot entry
    is 1 with zeros to its right.

    Args:
        a: matrix over F_q.
        q: field order.

    Returns:
        (echelon, pivot_rows, transform) where pivot_rows[c] is the pivot row
        of echelon column c (nonzero columns come first), and
        echelon == a @ transform mod q.
    """
    fq = _field(q)
    e = modq(np.array(a, dtype=np.int64, copy=True), q)
    m, n = e.shape
    t = np.eye(n, dtype=np.int64)
    pivots = []
    col = 0
    for row in range(m):
        if col >= n:
            break
        # find a column at or after `col` with a nonzero entry in this row
        # whose entries above the row are already zero
        sel = -1
        for j in range(col, n):
            if e[row, j] != 0:
                sel = j
                break
        if sel < 0:
            continue
        if sel != col:
            e[:, [col, sel]] = e[:, [sel, col]]
            t[:, [col, sel]] = t[:, [sel, col]]
        c = fq.inv(e[row, col])
        if c != 1:
            e[:, col] = (e[:, col] * c) % q
            t[:, col] = (t[:, col] * c) % q
        mask = e[row] != 0
        mask[col] = False
        if mask.any():
            f = e[row, mask]
            e[:, mask] = (e[:, mask] - e[:, col:col + 1] * f) % q
            t[:, mask] = (t[:, mask] - t[:, col:col + 1] * f) % q
        pivots.append(row)
        col += 1
    return e, pivots, t


def rref(a: np.ndarray, q: int, ncols=None):
    """Reduced row echelon form R = T @ A for some invertible T, by row
    operations on a row-major copy; T is not built.

    Pivots are taken only in the first `ncols` columns (all by default), so
    reducing [A | B] with ncols = A's width leaves T @ B on the right.

    Returns:
        (r, pivots): r[i] has its leading 1 in column pivots[i], which is
        zero in every other row; pivots increase, and rows from
        len(pivots) on are zero in the first ncols columns.
    """
    r = np.array(a, dtype=np.int64) % q
    m, n = r.shape
    ncols = n if ncols is None else ncols
    inv = _field(q)._inv
    pivots = []
    row = 0
    for col in range(ncols):
        if row == m:
            break
        nz = np.flatnonzero(r[row:, col])
        if not nz.size:
            continue
        p = row + int(nz[0])
        if p != row:
            r[[row, p]] = r[[p, row]]
        c = inv[r[row, col]]
        if c != 1:
            r[row, col:] = (r[row, col:] * c) % q
        # columns left of col are zero in this row, so only col: changes
        mask = r[:, col] != 0
        mask[row] = False
        if mask.any():
            r[mask, col:] = (r[mask, col:]
                             - r[mask, col:col + 1] * r[row, col:]) % q
        pivots.append(col)
        row += 1
    return r, pivots


def rank(a: np.ndarray, q: int) -> int:
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return 0
    return len(rref(a, q)[1])


def solve(a: np.ndarray, b: np.ndarray, q: int):
    """Solve A x = b over F_q, free variables set to zero.

    Args:
        a: coefficient matrix (m x n).
        b: right-hand side, shape (m,) or (m, k).

    Returns:
        x with a @ x = b mod q, or None if inconsistent.
    """
    a = modq(np.asarray(a, dtype=np.int64), q)
    b = modq(np.asarray(b, dtype=np.int64), q)
    single = b.ndim == 1
    bb = b.reshape(-1, 1) if single else b
    m, n = a.shape
    if bb.shape[0] != m:
        raise ValueError("dimension mismatch")
    r, pivot_cols = rref(np.hstack([a, bb]), q, ncols=n)
    # rows beyond the pivots must have zero rhs
    k = len(pivot_cols)
    if r[k:, n:].any():
        return None
    x = np.zeros((n, bb.shape[1]), dtype=np.int64)
    x[pivot_cols] = r[:k, n:]
    if np.any(matmul(a, x, q) != bb):
        return None
    return x[:, 0] if single else x


def kernel_support(a: np.ndarray, q: int) -> np.ndarray:
    """Mask of the columns j with x[j] != 0 for some x in {x : A x = 0}.

    The kernel is spanned by one vector per free column f of the RREF,
    e_f minus the RREF's column f on the pivots, so its support is the
    free columns plus every pivot column whose RREF row meets a free
    column. It depends on no choice of basis. All False at full column
    rank.
    """
    r, pivots = rref(a, q)
    free = np.ones(r.shape[1], dtype=bool)
    free[pivots] = False
    support = free.copy()
    support[pivots] = r[:len(pivots), free].any(axis=1)
    return support


def kernel_basis(a: np.ndarray, q: int) -> np.ndarray:
    """Basis of {x : A x = 0}, returned as columns of an n x dim matrix."""
    a = modq(np.asarray(a, dtype=np.int64), q)
    m, n = a.shape
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    e, pivots, t = column_echelon(a, q)
    r = len(pivots)
    # columns of t beyond the rank map to zero columns of e
    return t[:, r:].copy()


def invert(a: np.ndarray, q: int):
    """Inverse of a square matrix, or None if singular."""
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("not square")
    x = solve(a, np.eye(n, dtype=np.int64), q)
    return x

