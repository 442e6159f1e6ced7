"""Slice-clearing systems and tracked application of morphism pairs."""

import numpy as np

from fixtures import clearing_fixture
from mpdec.blockreduce import (
    ClearTarget,
    apply_col_combo,
    apply_hom_pair,
    solve_clear,
)
from mpdec.certificate import transform_errors
from mpdec.decomposer import decompose
from mpdec.fields import matmul
from mpdec.grading import TransformPair
from mpdec.hom import hom_pairs


def fixture_blocks():
    m, b_rows, b_cols, c_rows, c_cols = clearing_fixture()
    mb = m.submatrix(b_rows, b_cols)
    mc = m.submatrix(c_rows, c_cols)
    return m, mb, mc, b_rows, b_cols, c_rows, c_cols


class TestSolveClear:
    def test_upper_slice_certificate_exists(self):
        m, mb, mc, b_rows, b_cols, c_rows, c_cols = fixture_blocks()
        q = m.field.q
        alpha = (4, 3)
        n_b = m.to_dense()[np.ix_(b_rows, [4])]
        n_c = m.to_dense()[np.ix_(c_rows, [4])]
        lam_terms = [matmul(qq, n_c, q) for qq, _ in hom_pairs(mc, mb)]
        low = [j for j, r in enumerate(mb.col_degrees) if all(
            x <= y for x, y in zip(r, alpha))]
        bu = mb.to_dense()[:, low]
        sol = solve_clear([ClearTarget(n_b, lam_terms, bu)], q)
        assert sol is not None
        per_target, shared = sol
        lams, u = per_target[0]
        # replay: the slice really becomes zero
        acc = n_b.copy()
        for lam, a in zip(lams, lam_terms):
            acc = (acc + lam * a) % q
        acc = (acc + matmul(bu, u, q)) % q
        assert not np.any(acc)

    def test_no_certificate_without_morphisms(self):
        m, mb, mc, b_rows, b_cols, c_rows, c_cols = fixture_blocks()
        q = m.field.q
        n_b = m.to_dense()[np.ix_(b_rows, [4])]
        # type (b) operations alone cannot reach the slice
        low = [0]
        sol = solve_clear([ClearTarget(n_b, [], mb.to_dense()[:, low])], q)
        assert sol is None

    def test_zero_slice_trivial_certificate(self):
        sol = solve_clear([ClearTarget(np.zeros((2, 1), dtype=np.int64), [],
                                       np.zeros((2, 0), dtype=np.int64))], 2)
        assert sol is not None

    def test_synthetic_exact_solution(self):
        q = 3
        rng = np.random.default_rng(11)
        a = rng.integers(0, q, size=(4, 2))
        b = rng.integers(0, q, size=(4, 3))
        lam_star, u_star = 2, rng.integers(0, q, size=(3, 2))
        c = (-(lam_star * a + b @ u_star)) % q
        sol = solve_clear([ClearTarget(c, [a], b)], q)
        assert sol is not None
        per_target, _ = sol
        lams, u = per_target[0]
        acc = (c + lams[0] * a + b @ u) % q
        assert not np.any(acc)

    def test_success_invariant_under_column_basis_change(self):
        # solvable for slice C implies solvable for C T, T invertible
        q = 2
        rng = np.random.default_rng(7)
        b = rng.integers(0, q, size=(3, 2))
        u_star = rng.integers(0, q, size=(2, 2))
        c = (-(b @ u_star)) % q
        t = np.array([[1, 1], [0, 1]], dtype=np.int64)
        for rhs in (c, (c @ t) % q):
            sol = solve_clear([ClearTarget(rhs, [], b)], q)
            assert sol is not None

    def test_shared_unknown_spans_targets(self):
        q = 2
        s1 = np.array([[1], [0]], dtype=np.int64)
        s2 = np.array([[1], [1]], dtype=np.int64)
        c1 = s1.copy()
        c2 = s2.copy()
        no_low = np.zeros((2, 0), dtype=np.int64)
        sol = solve_clear([ClearTarget(c1, [], no_low),
                           ClearTarget(c2, [], no_low)], q, shared=[s1, s2])
        assert sol is not None
        _, s_val = sol
        assert s_val.shape == (1, 1) and s_val[0, 0] == 1


class TestApplyHomPair:
    def test_blocks_preserved_and_tracked(self):
        m, mb, mc, b_rows, b_cols, c_rows, c_cols = fixture_blocks()
        q = m.field.q
        m_in = m.copy()
        tp = TransformPair(m.num_rows, m.num_cols, m.field)
        pairs = hom_pairs(mc, mb)
        assert pairs
        qq, pp = pairs[0]
        apply_hom_pair(m, tp, b_rows, b_cols, c_rows, c_cols, qq, pp)
        # proper blocks are bit-identical, only the pending column moved
        assert m.submatrix(b_rows, b_cols).equal(mb)
        assert m.submatrix(c_rows, c_cols).equal(mc)
        assert transform_errors(m_in, m, tp) == []
        assert tp.check_graded(m.row_degrees, m.col_degrees)
        m.validate()

    def test_col_combo_tracked(self):
        m, *_ = fixture_blocks()
        m_in = m.copy()
        tp = TransformPair(m.num_rows, m.num_cols, m.field)
        apply_col_combo(m, tp, 4, [(2, 1)])
        assert transform_errors(m_in, m, tp) == []
        m.validate()


class TestEndToEnd:
    def test_clearing_fixture_decomposes(self):
        m = clearing_fixture()[0]
        for strategy in ("exhaustive", "aida"):
            report = decompose(m.copy(), strategy=strategy, verify=True)
            sizes = sorted((s.num_rows, s.num_cols) for s in report.summands)
            assert sizes == [(2, 2), (2, 3)]
