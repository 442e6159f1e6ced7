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


def rank(a: np.ndarray, q: int) -> int:
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return 0
    _, pivots, _ = column_echelon(a, q)
    return len(pivots)


def row_reduce(a: np.ndarray, q: int):
    """Reduced row echelon form R = T @ A with invertible T.

    Returns:
        (rref, pivot_cols, transform).
    """
    e, pivots, t = column_echelon(np.asarray(a, dtype=np.int64).T, q)
    return e.T, pivots, t.T


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
    rref, pivot_cols, t = row_reduce(a, q)
    tb = matmul(t, bb, q)
    # rows beyond the pivots must have zero rhs
    r = len(pivot_cols)
    if np.any(tb[r:, :] % q):
        return None
    x = np.zeros((n, bb.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivot_cols):
        x[pc, :] = tb[i, :]
    if np.any(matmul(a, x, q) != bb):
        return None
    return x[:, 0] if single else x


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

