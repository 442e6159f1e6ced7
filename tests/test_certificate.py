"""Sparse certificate checks against a dense reference and tampering."""

from functools import lru_cache

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fixtures import (
    block_partition_holds,
    chain_digraph_matrix,
    dense_identity_mismatch,
    dense_transform_holds,
)
from mpdec.certificate import certificate_errors, transform_errors
from mpdec.decomposer import decompose
from mpdec.fields import FieldConfig
from mpdec.generators import gen_grid, gen_intervals, gen_random_er
from mpdec.grading import TransformPair

# small instances over F_2 and F_3; the grid ones have equal-degree groups
POOL = [(q, kind, seed) for q in (2, 3)
        for kind in ("intervals", "random-er", "grid") for seed in range(3)]


@lru_cache(maxsize=None)
def _report(q, kind, seed):
    fq = FieldConfig(q)
    if kind == "intervals":
        m, _ = gen_intervals(4, seed=seed, mixed=True, field=fq)
    elif kind == "random-er":
        m = gen_random_er(7, 6, 0.4, seed=seed, field=fq)
    else:
        m, _ = gen_grid(8, 7, 3, 0.3, seed, field=fq)
    return decompose(m)


def _pieces(report):
    """Fresh, mutable copies of a report's certificate."""
    tp = TransformPair(report.matrix.num_rows, report.matrix.num_cols,
                       report.matrix.field)
    tp.q_rows = [dict(r) for r in report.transform.q_rows]
    tp.pinv_rows = [dict(r) for r in report.transform.pinv_rows]
    return (report.minimized_input, report.matrix.copy(), tp,
            [list(r) for r in report.block_rows],
            [list(c) for c in report.block_cols])


def _add(table, i, k, c, q):
    v = (table[i].get(k, 0) + c) % q
    if v:
        table[i][k] = v
    else:
        table[i].pop(k, None)


class TestProgramCertificates:
    def test_pool_accepted(self):
        for key in POOL:
            report = _report(*key)
            m_min, m_final, tp, brows, bcols = _pieces(report)
            assert certificate_errors(m_min, m_final, tp, brows, bcols) \
                == [], key
            assert dense_transform_holds(m_min, m_final, tp)
            assert block_partition_holds(m_final, brows, bcols)
            assert report.verify()


class TestReproducedHoles:
    """Faults the transform identity alone does not see: overlapping
    blocks, and a degree changed in the final matrix."""

    def test_overlapping_blocks(self):
        m_min, m_final, tp, brows, bcols = _pieces(_report(2, "intervals", 1))
        brows[1] += brows[0]
        errors = certificate_errors(m_min, m_final, tp, brows, bcols)
        assert errors == [f"row {min(brows[0])} lies in two blocks"]

    def test_tampered_degree(self):
        m_min, m_final, tp, brows, bcols = _pieces(_report(2, "intervals", 1))
        j = bcols[0][0]
        deg = m_final.col_degrees[j]
        m_final.col_degrees[j] = (deg[0] + 5,) + deg[1:]
        errors = certificate_errors(m_min, m_final, tp, brows, bcols)
        assert errors[0] == "final matrix degrees differ from the minimized input"


class TestMessages:
    def _chain(self):
        return _pieces(decompose(chain_digraph_matrix()))

    def test_not_graded(self):
        m_min, m_final, tp, brows, bcols = self._chain()
        degs = m_min.row_degrees
        i, k = next((i, k) for i in range(len(degs)) for k in range(len(degs))
                    if not all(a <= b for a, b in zip(degs[i], degs[k])))
        _add(tp.q_rows, i, k, 1, 2)
        assert transform_errors(m_min, m_final, tp)[0] == \
            "transform is not graded"

    def test_not_invertible(self):
        m_min, m_final, tp, brows, bcols = self._chain()
        tp.pinv_rows[0] = {}
        assert transform_errors(m_min, m_final, tp)[0] == \
            "transform is not invertible"

    def test_identity_first_mismatch_in_column_order(self):
        m_min, m_final, tp, brows, bcols = self._chain()
        j = m_final.num_cols - 1
        i = max(m_final.columns[j])
        _add(m_final.columns, j, i, 1, 2)
        assert transform_errors(m_min, m_final, tp) == [
            "transform identity fails at (%d, %d)"
            % dense_identity_mismatch(m_min, m_final, tp)]

    def test_entry_outside_block(self):
        m_min, m_final, tp, brows, bcols = self._chain()
        brows[0], brows[1] = brows[1], brows[0]
        assert certificate_errors(m_min, m_final, tp, brows, bcols)[0] \
            .startswith("entry outside block at (")

    def test_uncovered_columns(self):
        m_min, m_final, tp, brows, bcols = self._chain()
        bcols[0].pop()
        assert "block columns do not cover the matrix" in certificate_errors(
            m_min, m_final, tp, brows, bcols)

    def test_shape_mismatch(self):
        m_min, m_final, tp, brows, bcols = self._chain()
        tp.q_rows.pop()
        assert transform_errors(m_min, m_final, tp) == [
            "transform shape does not match the matrix"]


class TestTamperFuzz:
    """certificate_errors is empty exactly when the dense reference and the
    partition check both accept, after one tampered entry or index."""

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_one_tamper(self, data):
        key = data.draw(st.sampled_from(POOL))
        q = key[0]
        m_min, m_final, tp, brows, bcols = _pieces(_report(*key))
        kind = data.draw(st.sampled_from(
            ["q_rows", "pinv_rows", "matrix", "block_rows", "block_cols"]))
        if kind in ("block_rows", "block_cols"):
            blocks = brows if kind == "block_rows" else bcols
            assume(len(blocks) > 1)
            src = data.draw(st.sampled_from(
                [b for b, idx in enumerate(blocks) if idx]))
            dst = data.draw(st.sampled_from(
                [b for b in range(len(blocks)) if b != src]))
            pos = data.draw(st.integers(0, len(blocks[src]) - 1))
            blocks[dst].append(blocks[src].pop(pos))
        else:
            n_rows, n_cols = m_min.num_rows, m_min.num_cols
            table, rows, cols = {
                "q_rows": (tp.q_rows, n_rows, n_rows),
                "pinv_rows": (tp.pinv_rows, n_cols, n_cols),
                "matrix": (m_final.columns, n_cols, n_rows),
            }[kind]
            assume(rows and cols)
            _add(table, data.draw(st.integers(0, rows - 1)),
                 data.draw(st.integers(0, cols - 1)),
                 data.draw(st.integers(1, q - 1)), q)
        errors = certificate_errors(m_min, m_final, tp, brows, bcols)
        assert (errors == []) == (
            dense_transform_holds(m_min, m_final, tp)
            and block_partition_holds(m_final, brows, bcols))
        mismatch = dense_identity_mismatch(m_min, m_final, tp)
        assert [e for e in errors if "identity" in e] == (
            ["transform identity fails at (%d, %d)" % mismatch]
            if mismatch else [])
