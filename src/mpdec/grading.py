"""Degrees in Z^d, graded matrices, admissible operations and minimization.

A presentation is a graded matrix: rows are generators, columns are
relations, each carrying a degree in Z^d, and an entry (i, j) may be nonzero
only when the column degree dominates the row degree componentwise.
Admissible row/column additions preserve the presented module up to
isomorphism; TransformPair accumulates them into a certificate.
"""

from __future__ import annotations

import operator

import numpy as np

from .fields import FieldConfig

Degree = tuple


class InadmissibleOperation(Exception):
    """Raised when a row/column addition would violate the grading."""


def leq(a: Degree, b: Degree) -> bool:
    """Componentwise a <= b in the product order."""
    if len(a) != len(b):
        raise ValueError("degree dimension mismatch")
    return all(map(operator.le, a, b))


def join(a: Degree, b: Degree) -> Degree:
    """Least upper bound (componentwise max)."""
    if len(a) != len(b):
        raise ValueError("degree dimension mismatch")
    return tuple(max(x, y) for x, y in zip(a, b))


def colex_key(a: Degree):
    """Sort key realizing a linear extension of the product order."""
    return tuple(reversed(a))


class GradedMatrix:
    """Sparse column-major graded matrix over F_q.

    Attributes:
        num_rows, num_cols: shape.
        row_degrees, col_degrees: lists of integer tuples, all of one length d.
        columns: one dict {row_index: nonzero scalar} per column.
        field: FieldConfig.
    """

    def __init__(self, row_degrees, col_degrees, columns=None, field=None):
        self.row_degrees = [tuple(g) for g in row_degrees]
        self.col_degrees = [tuple(r) for r in col_degrees]
        self.num_rows = len(self.row_degrees)
        self.num_cols = len(self.col_degrees)
        self.field = field if field is not None else FieldConfig(2)
        if columns is None:
            columns = [{} for _ in range(self.num_cols)]
        self.columns = [dict(c) for c in columns]

    @property
    def dim(self) -> int:
        degs = self.row_degrees or self.col_degrees
        return len(degs[0]) if degs else 0

    @classmethod
    def from_dense(cls, dense, row_degrees, col_degrees, field=None) -> "GradedMatrix":
        dense = np.asarray(dense, dtype=np.int64)
        m = cls(row_degrees, col_degrees, field=field)
        dense = dense % m.field.q
        for j in range(m.num_cols):
            m.columns[j] = {int(i): int(dense[i, j]) for i in np.flatnonzero(dense[:, j])}
        return m

    def dense_slice(self, rows, cols) -> np.ndarray:
        """Dense (rows) x (cols) array over parent indices; entries in other
        rows are left out."""
        rmap = {r: a for a, r in enumerate(rows)}
        out = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for b, j in enumerate(cols):
            for i, v in self.columns[j].items():
                a = rmap.get(i)
                if a is not None:
                    out[a, b] = v
        return out

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.num_rows, self.num_cols), dtype=np.int64)
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                a[i, j] = v
        return a

    def entries(self, j: int):
        """Sorted (row, scalar) pairs of column j."""
        return sorted(self.columns[j].items())

    def copy(self) -> "GradedMatrix":
        return GradedMatrix(self.row_degrees, self.col_degrees, self.columns, self.field)

    def validate(self):
        """Check the graded invariant and entry sanity; raise on violation."""
        q = self.field.q
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                if not (0 <= i < self.num_rows):
                    raise ValueError(f"column {j}: row index {i} out of range")
                if v % q == 0:
                    raise ValueError(f"column {j}: stored zero at row {i}")
                if not leq(self.row_degrees[i], self.col_degrees[j]):
                    raise ValueError(
                        f"grading violated at ({i},{j}): "
                        f"{self.col_degrees[j]} does not dominate {self.row_degrees[i]}"
                    )

    def equal(self, other: "GradedMatrix") -> bool:
        return (
            self.row_degrees == other.row_degrees
            and self.col_degrees == other.col_degrees
            and self.field.q == other.field.q
            and all(a == b for a, b in zip(self.columns, other.columns))
        )

    # -- raw (unchecked) elementary operations ------------------------------

    def col_add(self, src: int, dst: int, c: int):
        """Column dst += c * column src (no admissibility check)."""
        q = self.field.q
        dcol = self.columns[dst]
        for i, v in self.columns[src].items():
            nv = (dcol.get(i, 0) + c * v) % q
            if nv:
                dcol[i] = nv
            elif i in dcol:
                del dcol[i]

    def row_add(self, src: int, dst: int, c: int):
        """Row dst += c * row src (no admissibility check)."""
        q = self.field.q
        for col in self.columns:
            v = col.get(src)
            if v is None:
                continue
            nv = (col.get(dst, 0) + c * v) % q
            if nv:
                col[dst] = nv
            elif dst in col:
                del col[dst]

    def submatrix(self, rows, cols) -> "GradedMatrix":
        """Submatrix on the given parent index lists, reindexed locally."""
        rows = list(rows)
        cols = list(cols)
        rmap = {r: a for a, r in enumerate(rows)}
        sub = GradedMatrix(
            [self.row_degrees[r] for r in rows],
            [self.col_degrees[c] for c in cols],
            field=self.field,
        )
        for a, c in enumerate(cols):
            sub.columns[a] = {
                rmap[i]: v for i, v in self.columns[c].items() if i in rmap
            }
        return sub

    def restrict_leq(self, alpha: Degree):
        """The submatrix M^{<=alpha} with its parent index maps.

        Returns:
            (sub, row_ids, col_ids): rows i with G(i) <= alpha and columns j
            with R(j) <= alpha, as a reindexed GradedMatrix.
        """
        row_ids = [i for i, g in enumerate(self.row_degrees) if leq(g, alpha)]
        col_ids = [j for j, r in enumerate(self.col_degrees) if leq(r, alpha)]
        return self.submatrix(row_ids, col_ids), row_ids, col_ids


def admissible_row_add(m: GradedMatrix, src: int, dst: int, c: int, tp=None):
    """Row dst += c * row src; requires G(src) >= G(dst)."""
    if c % m.field.q == 0:
        raise InadmissibleOperation("zero coefficient")
    if not leq(m.row_degrees[dst], m.row_degrees[src]):
        raise InadmissibleOperation(
            f"row add {src}->{dst}: {m.row_degrees[src]} does not dominate "
            f"{m.row_degrees[dst]}"
        )
    m.row_add(src, dst, c)
    if tp is not None:
        tp.row_add(src, dst, c)


def admissible_col_add(m: GradedMatrix, src: int, dst: int, c: int, tp=None):
    """Column dst += c * column src; requires R(src) <= R(dst)."""
    if c % m.field.q == 0:
        raise InadmissibleOperation("zero coefficient")
    if not leq(m.col_degrees[src], m.col_degrees[dst]):
        raise InadmissibleOperation(
            f"col add {src}->{dst}: {m.col_degrees[dst]} does not dominate "
            f"{m.col_degrees[src]}"
        )
    m.col_add(src, dst, c)
    if tp is not None:
        tp.col_add(src, dst, c)


def sparse_combination(coefs, vectors, q: int) -> dict:
    """Sparse sum of coef * vectors[idx] over idx -> coef, mod q, without
    zero entries."""
    out = {}
    for idx, coef in coefs.items():
        for r, v in vectors[idx].items():
            out[r] = (out.get(r, 0) + coef * v) % q
    return {r: v for r, v in out.items() if v}


class TransformPair:
    """Accumulated invertible graded transforms (Q, Pinv).

    Maintains M_current = Q . M_input . Pinv^{-1}; mpdec.certificate checks
    the inversion-free identity M_current . Pinv == Q . M_input. Rows of
    both factors are stored sparsely.
    """

    def __init__(self, m: int, n: int, field: FieldConfig):
        self.m = m
        self.n = n
        self.field = field
        self.q_rows = [{i: 1} for i in range(m)]
        self.pinv_rows = [{j: 1} for j in range(n)]

    def row_add(self, src: int, dst: int, c: int):
        """Mirror of a row addition on the tracked matrix."""
        q = self.field.q
        drow = self.q_rows[dst]
        for k, v in self.q_rows[src].items():
            nv = (drow.get(k, 0) + c * v) % q
            if nv:
                drow[k] = nv
            elif k in drow:
                del drow[k]

    def col_add(self, src: int, dst: int, c: int):
        """Mirror of a column addition: Pinv row src -= c * Pinv row dst."""
        q = self.field.q
        srow = self.pinv_rows[src]
        for k, v in self.pinv_rows[dst].items():
            nv = (srow.get(k, 0) - c * v) % q
            if nv:
                srow[k] = nv
            elif k in srow:
                del srow[k]

    def col_transform(self, positions, t_inv: np.ndarray):
        """Mirror of a column transform N <- N . T on the given positions.

        Args:
            positions: column indices being transformed.
            t_inv: inverse of T over F_q.
        """
        q = self.field.q
        t_inv = np.asarray(t_inv, dtype=np.int64) % q
        old = [self.pinv_rows[p] for p in positions]
        for a, p in enumerate(positions):
            self.pinv_rows[p] = sparse_combination(
                {b: int(c) for b, c in enumerate(t_inv[a]) if c}, old, q)

    def check_graded(self, row_degrees, col_degrees) -> bool:
        """Q graded w.r.t. (G, G) and Pinv graded w.r.t. (R, R)."""
        for i, row in enumerate(self.q_rows):
            for k in row:
                if not leq(row_degrees[i], row_degrees[k]):
                    return False
        for i, row in enumerate(self.pinv_rows):
            for k in row:
                if not leq(col_degrees[i], col_degrees[k]):
                    return False
        return True


def sort_and_batch(m: GradedMatrix):
    """Group columns by degree, ordered by a linear extension of <=.

    Returns:
        list of (degree, column index list), in colexicographic degree order
        with ties inside a batch broken by original column index.
    """
    groups: dict = {}
    for j, r in enumerate(m.col_degrees):
        groups.setdefault(r, []).append(j)
    return [(deg, groups[deg]) for deg in sorted(groups, key=colex_key)]


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def column_components(m: GradedMatrix, cols=None):
    """Partition columns into connected components of shared row support."""
    if cols is None:
        cols = range(m.num_cols)
    cols = list(cols)
    uf = _UnionFind(len(cols))
    owner: dict = {}
    for a, j in enumerate(cols):
        for i in m.columns[j]:
            if i in owner:
                uf.union(a, owner[i])
            else:
                owner[i] = a
    comps: dict = {}
    for a, j in enumerate(cols):
        comps.setdefault(uf.find(a), []).append(j)
    return list(comps.values())


def minimize(m: GradedMatrix):
    """Minimize a presentation.

    Cancels generator/relation pairs joined by an equal-degree entry using
    admissible operations, then deletes redundant columns (a column is
    redundant iff it lies in the span of the other columns of degree <= its
    own). The presented module is unchanged.

    Returns:
        (minimal GradedMatrix, report) where report is a dict with
        "cancelled_pairs": list of (gen degree, rel degree) and
        "deleted_columns": count of redundant relations removed.
    """
    from .fields import kernel_support as _kernel_support
    from .fields import solve as _solve

    q = m.field.q
    fq = m.field
    work = m.copy()
    alive_rows = [True] * work.num_rows
    alive_cols = [True] * work.num_cols
    cancelled = []

    def find_equal_pair():
        for j in range(work.num_cols):
            if not alive_cols[j]:
                continue
            rdeg = work.col_degrees[j]
            for i in work.columns[j]:
                if alive_rows[i] and work.row_degrees[i] == rdeg:
                    return i, j
        return None

    while True:
        hit = find_equal_pair()
        if hit is None:
            break
        i, j = hit
        u = work.columns[j][i]
        uinv = fq.inv(u)
        # clear the rest of column j with admissible row additions from i
        for i2, v in list(work.columns[j].items()):
            if i2 != i and alive_rows[i2]:
                work.row_add(i, i2, (-v * uinv) % q)
        # clear the rest of row i with admissible column additions from j
        for j2 in range(work.num_cols):
            if j2 != j and alive_cols[j2] and i in work.columns[j2]:
                v = work.columns[j2][i]
                work.col_add(j, j2, (-v * uinv) % q)
        cancelled.append((work.row_degrees[i], work.col_degrees[j]))
        alive_rows[i] = False
        alive_cols[j] = False
        work.columns[j] = {}

    # drop entries in dead rows, then dead/zero columns
    for j in range(work.num_cols):
        if alive_cols[j]:
            work.columns[j] = {
                i: v for i, v in work.columns[j].items() if alive_rows[i]
            }

    deleted = 0
    live_cols = [j for j in range(work.num_cols) if alive_cols[j]]
    for j in live_cols:
        if not work.columns[j]:
            alive_cols[j] = False
            deleted += 1
    live_cols = [j for j in range(work.num_cols) if alive_cols[j]]

    # redundant columns, tested inside each incidence component
    for comp in column_components(work, live_cols):
        if len(comp) < 2:
            continue
        comp_alive = list(comp)
        # a column can lie in the span of others only if it takes part in a
        # linear dependency of the whole component
        rows = sorted({i for c in comp for i in work.columns[c]})
        support = _kernel_support(work.dense_slice(rows, comp), q)
        if not support.any():
            continue
        dependent = {comp[b] for b in range(len(comp)) if support[b]}
        for j in sorted(dependent, key=lambda c: colex_key(work.col_degrees[c]), reverse=True):
            others = [
                c
                for c in comp_alive
                if c != j and leq(work.col_degrees[c], work.col_degrees[j])
            ]
            if not others:
                continue
            rows = sorted({i for c in others + [j] for i in work.columns[c]})
            a = work.dense_slice(rows, others)
            target = work.dense_slice(rows, [j])[:, 0]
            if _solve(a, target, q) is not None:
                alive_cols[j] = False
                comp_alive.remove(j)
                deleted += 1

    row_ids = [i for i in range(work.num_rows) if alive_rows[i]]
    col_ids = [j for j in range(work.num_cols) if alive_cols[j]]
    out = work.submatrix(row_ids, col_ids)
    report = {"cancelled_pairs": cancelled, "deleted_columns": deleted}
    return out, report


def is_minimal(m: GradedMatrix) -> bool:
    """True iff minimize would change nothing (up to nothing, exactly)."""
    for j in range(m.num_cols):
        if not m.columns[j]:
            return False
        rdeg = m.col_degrees[j]
        for i in m.columns[j]:
            if m.row_degrees[i] == rdeg:
                return False
    out, report = minimize(m)
    return out.num_cols == m.num_cols and out.num_rows == m.num_rows
