"""Scalar arithmetic and dense linear algebra over F_q."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import reference_rank, reference_solve
from mpdec.fields import (
    FieldConfig,
    column_echelon,
    invert,
    kernel_basis,
    kernel_support,
    matmul,
    rank,
    rref,
    solve,
)


def brute_force_rank(a: np.ndarray, q: int) -> int:
    """Rank via the size of the row span, enumerated exhaustively."""
    span = {tuple(np.zeros(a.shape[1], dtype=np.int64))}
    for row in a:
        new = {
            tuple((np.array(v) + c * row) % q)
            for v in span
            for c in range(1, q)
        }
        span |= new
    k = 0
    while q ** k < len(span):
        k += 1
    assert q ** k == len(span)
    return k


class TestFieldConfig:
    def test_rejects_composite_order(self):
        with pytest.raises(ValueError):
            FieldConfig(4)

    def test_inverse_table(self):
        fq = FieldConfig(7)
        for a in range(1, 7):
            assert (a * fq.inv(a)) % 7 == 1
        with pytest.raises(ZeroDivisionError):
            fq.inv(0)

    def test_neg(self):
        assert FieldConfig(5).neg(2) == 3
        assert FieldConfig(2).neg(1) == 1


class TestSolve:
    def test_identity(self):
        x = solve(np.eye(2, dtype=np.int64), np.array([1, 0]), 2)
        assert x.tolist() == [1, 0]

    def test_free_variable_zeroed(self):
        x = solve(np.array([[1, 1]]), np.array([1]), 2)
        assert x.tolist() == [1, 0]

    def test_back_substitution_f3(self):
        a = np.array([[1, 1], [0, 1]])
        x = solve(a, np.array([2, 1]), 3)
        assert x.tolist() == [1, 1]
        assert matmul(a, x.reshape(-1, 1), 3).ravel().tolist() == [2, 1]

    def test_inconsistent(self):
        assert solve(np.zeros((2, 2), dtype=np.int64), np.array([1, 0]), 2) is None

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 2 ** 12 - 1), st.integers(0, 15), st.sampled_from([2, 3]))
    def test_consistent_systems_solve_exactly(self, bits, xbits, q):
        a = np.array([(bits >> k) % q for k in range(12)]).reshape(4, 3) % q
        x = np.array([(xbits >> k) % q for k in range(3)]) % q
        b = matmul(a, x.reshape(-1, 1), q).ravel()
        got = solve(a, b, q)
        assert got is not None
        assert np.array_equal(matmul(a, got.reshape(-1, 1), q).ravel(), b)


class TestKernelBasis:
    def test_symmetric_kernel(self):
        k = kernel_basis(np.array([[1, 1]]), 2)
        assert k.shape == (2, 1)
        assert sorted(k[:, 0].tolist()) == [1, 1]

    def test_invertible_empty(self):
        assert kernel_basis(np.eye(3, dtype=np.int64), 2).shape == (3, 0)

    def test_zero_matrix(self):
        k = kernel_basis(np.zeros((2, 3), dtype=np.int64), 2)
        assert k.shape == (3, 3)
        assert rank(k, 2) == 3

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 12 - 1))
    def test_spans_exact_kernel(self, bits):
        q = 2
        a = np.array([(bits >> k) & 1 for k in range(12)]).reshape(3, 4)
        kb = kernel_basis(a, q)
        members = {
            tuple(matmul(kb, np.array(c).reshape(-1, 1), q).ravel())
            for c in np.ndindex(*(q,) * kb.shape[1])
        }
        truth = {
            x
            for x in np.ndindex(*(q,) * 4)
            if not np.any(matmul(a, np.array(x).reshape(-1, 1), q))
        }
        assert members == truth


class TestColumnEchelon:
    def test_identity_fixed_point(self):
        e, piv, t = column_echelon(np.eye(3, dtype=np.int64), 2)
        assert np.array_equal(e, np.eye(3))
        assert np.array_equal(t, np.eye(3))
        assert piv == [0, 1, 2]

    def test_rank_one(self):
        e, piv, t = column_echelon(np.ones((2, 2), dtype=np.int64), 2)
        assert len(piv) == 1
        assert not np.any(e[:, 1])

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 16 - 1))
    def test_matches_brute_force_rank(self, bits):
        a = np.array([(bits >> k) & 1 for k in range(16)]).reshape(4, 4)
        assert rank(a, 2) == brute_force_rank(a, 2)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 16 - 1), st.sampled_from([2, 5]))
    def test_transform_invertible_and_exact(self, bits, q):
        a = np.array([(bits >> k) % q for k in range(16)]).reshape(4, 4) % q
        e, piv, t = column_echelon(a, q)
        assert invert(t, q) is not None
        assert np.array_equal(e, matmul(a, t, q))


@st.composite
def systems(draw):
    """(a, b, q): an m x n system over F_q with m, n in 0..5, k in 1..2
    right-hand sides or a vector; columns and rows are repeated to make it
    rank-deficient, and b is in the column span or arbitrary (usually
    inconsistent)."""
    q = draw(st.sampled_from([2, 3, 5]))
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.integers(0, q - 1)
    a = np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n)),
                 dtype=np.int64).reshape(m, n)
    if n > 1 and draw(st.booleans()):
        a[:, -1] = (draw(st.integers(0, q - 1)) * a[:, 0]) % q
    if m > 1 and draw(st.booleans()):
        a[-1] = a[0]
    k = draw(st.integers(1, 2))
    if draw(st.booleans()):
        x = np.array(draw(st.lists(entries, min_size=n * k, max_size=n * k)),
                     dtype=np.int64).reshape(n, k)
        b = matmul(a, x, q)
    else:
        b = np.array(draw(st.lists(entries, min_size=m * k, max_size=m * k)),
                     dtype=np.int64).reshape(m, k)
    return a, (b[:, 0] if draw(st.booleans()) else b), q


def _is_rref(r, pivots, ncols):
    if list(pivots) != sorted(set(pivots)) or any(p >= ncols for p in pivots):
        return False
    for i, p in enumerate(pivots):
        col = np.zeros(r.shape[0], dtype=np.int64)
        col[i] = 1
        if r[i, :p].any() or not np.array_equal(r[:, p], col):
            return False
    return not r[len(pivots):, :ncols].any()


class TestRref:
    @settings(deadline=None, max_examples=150)
    @given(systems(), st.data())
    def test_rref_consistency(self, system, data):
        """r = T @ a for an invertible T, in the documented form."""
        r, piv = rref(np.array([[1, 1, 0], [0, 1, 1]]), 2)
        assert r.tolist() == [[1, 0, 1], [0, 1, 1]] and piv == [0, 1]
        a, _, q = system
        before = a.copy()
        ncols = data.draw(st.integers(0, a.shape[1]))
        r, piv = rref(a, q, ncols=ncols)
        assert np.array_equal(a, before)
        assert r.shape == a.shape
        assert _is_rref(r, piv, ncols)
        # an invertible T exists iff r and a have the same row space
        rk = reference_rank(a, q)
        assert reference_rank(r, q) == rk
        assert reference_rank(np.vstack([a, r]), q) == rk
        # its left part is the unique RREF of a's left part
        assert np.array_equal(r[:, :ncols], rref(a[:, :ncols], q)[0])

    @settings(deadline=None, max_examples=300)
    @given(systems())
    def test_solve_and_rank_match_the_column_echelon_reference(self, system):
        a, b, q = system
        got, want = solve(a, b, q), reference_solve(a, b, q)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got, want)
        assert rank(a, q) == reference_rank(a, q)

    @settings(deadline=None, max_examples=150)
    @given(systems())
    def test_kernel_support_is_kernel_basis_support(self, system):
        a, _, q = system
        kb = kernel_basis(a, q)
        want = kb.any(axis=1) if kb.size else np.zeros(a.shape[1], bool)
        assert kernel_support(a, q).tolist() == want.tolist()
