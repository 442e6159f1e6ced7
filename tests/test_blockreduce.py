"""Slice-clearing systems and tracked application of morphism pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import clearing_fixture
from mpdec.blockreduce import (
    ClearTarget,
    apply_col_combo,
    apply_hom_pair,
    solve_clear,
    solve_one_entry,
)
from mpdec.certificate import transform_errors
from mpdec.decomposer import _group_sources, decompose
from mpdec.fields import FieldConfig, matmul
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


def _clear_by_solve_clear(c, terms, low, q):
    """The general path: every term into solve_clear, grouped per source;
    (sources, U) as _try_clear hands them to trial.clear, or None."""
    sol = solve_clear([ClearTarget(np.array([[c]], dtype=np.int64),
                                   [a for a, _ in terms], low)], q)
    if sol is None:
        return None
    (lams, u_mat), = sol[0]
    return _group_sources(lams, [meta for _, meta in terms], q), u_mat


def _clear_in_closed_form(c, terms, low, q):
    sol = solve_one_entry(c, iter(terms), low, FieldConfig(q))
    if sol is None:
        return None
    lams, metas, u_mat = sol
    return _group_sources(lams, metas, q), u_mat


def _same_clear(x, y):
    if x is None or y is None:
        return x is None and y is None
    (sx, ux), (sy, uy) = x, y
    return (np.array_equal(ux, uy) and len(sx) == len(sy)
            and all(a == b and np.array_equal(qa, qb)
                    and np.array_equal(pa, pb)
                    for (a, qa, pa), (b, qb, pb) in zip(sx, sy)))


def _term(a, src, qq, pp):
    return (np.array([[a]], dtype=np.int64),
            (src, np.array([qq], dtype=np.int64),
             np.array([pp], dtype=np.int64)))


@st.composite
def one_entry_systems(draw):
    """(q, c, terms, low): one equation c + sum lam_i a_i + low @ u = 0,
    with one to three morphism pairs per source."""
    q = draw(st.sampled_from((2, 3, 5)))
    # zero about half the time, so that leading zero coefficients, systems
    # solved by the low columns only and all-zero systems all occur
    coef = st.one_of(st.just(0), st.integers(1, q - 1))
    entries = st.lists(st.integers(0, q - 1), min_size=2, max_size=2)
    terms = []
    for src in range(draw(st.integers(0, 3))):
        for _ in range(draw(st.integers(1, 3))):
            terms.append(_term(draw(coef), src, draw(entries), draw(entries)))
    low = np.array(draw(st.lists(coef, max_size=3)), dtype=np.int64)
    return q, draw(st.integers(1, q - 1)), terms, low.reshape(1, -1)


class TestSolveOneEntry:
    """The closed form records what solve_clear plus _group_sources
    record, and reads no term past the one it uses."""

    @settings(deadline=None, max_examples=300)
    @given(one_entry_systems())
    def test_matches_solve_clear(self, system):
        q, c, terms, low = system
        assert _same_clear(_clear_in_closed_form(c, terms, low, q),
                           _clear_by_solve_clear(c, terms, low, q))

    @pytest.mark.parametrize("q", (2, 3, 5))
    @pytest.mark.parametrize("srcs, used, low", [
        # leading zero coefficients: the third term is the first nonzero
        ((0, 1, 2, 2), 2, [1]),
        # several pairs per source: the second pair of source 0
        ((0, 0, 1), 1, []),
        # no term reaches the entry: the second low column solves it
        ((0, 1), None, [0, 1]),
        # every coefficient zero: no solution
        ((0, 1), None, [0, 0]),
    ])
    def test_named_cases(self, q, srcs, used, low):
        # coefficient 1 from the used term on, 0 before it
        terms = [_term(int(used is not None and i >= used), src, [1, 1], [1])
                 for i, src in enumerate(srcs)]
        low = np.array([low], dtype=np.int64).reshape(1, -1)
        read = []

        def lazy():
            for t in terms:
                read.append(t)
                yield t

        sol = solve_one_entry(1, lazy(), low, FieldConfig(q))
        assert _same_clear(_clear_in_closed_form(1, terms, low, q),
                           _clear_by_solve_clear(1, terms, low, q))
        if used is not None:
            assert len(read) == used + 1 and sol[1][0] is terms[used][1]
            assert sol[0] == [q - 1] and not sol[2].any()
        elif low.any():
            assert len(read) == len(terms) and sol[:2] == ([], [])
            assert sol[2][:, 0].tolist() == [0, q - 1]
        else:
            assert sol is None


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
