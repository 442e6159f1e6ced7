"""Degrees, graded matrices, admissible operations, minimization, batching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import antidiagonal_batch_matrix, f2, join_pair_matrix
from mpdec.certificate import transform_errors
from mpdec.fields import FieldConfig
from mpdec.generators import gen_intervals, gen_random_er, mix
from mpdec.grading import (
    GradedMatrix,
    InadmissibleOperation,
    TransformPair,
    admissible_col_add,
    admissible_row_add,
    colex_key,
    column_components,
    is_minimal,
    join,
    leq,
    minimize,
    sort_and_batch,
)


class TestOrder:
    def test_incomparable_join(self):
        assert not leq((0, 1), (1, 0))
        assert not leq((1, 0), (0, 1))
        assert join((0, 1), (1, 0)) == (1, 1)

    def test_comparable(self):
        assert leq((1, 1), (2, 2))

    def test_join_componentwise_max(self):
        assert join((1, 4), (3, 2)) == (3, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            leq((1,), (1, 2))


class TestAdmissibleOps:
    def test_row_add_comparable_allowed(self):
        m = GradedMatrix([(1, 1), (0, 1)], [(2, 2)], field=f2())
        m.columns[0] = {0: 1}
        admissible_row_add(m, 0, 1, 1)
        assert m.columns[0] == {0: 1, 1: 1}
        m.validate()

    def test_row_add_incomparable_rejected(self):
        m = GradedMatrix([(0, 1), (1, 0)], [(2, 2)], field=f2())
        with pytest.raises(InadmissibleOperation):
            admissible_row_add(m, 0, 1, 1)

    def test_col_add_upward_allowed(self):
        m = GradedMatrix([(0, 0)], [(1, 1), (2, 2)], field=f2())
        m.columns[0] = {0: 1}
        admissible_col_add(m, 0, 1, 1)
        m.validate()
        assert m.columns[1] == {0: 1}

    def test_col_add_downward_rejected(self):
        m = GradedMatrix([(0, 0)], [(1, 1), (2, 2)], field=f2())
        with pytest.raises(InadmissibleOperation):
            admissible_col_add(m, 1, 0, 1)


class TestRestrict:
    def test_below_everything_empty(self):
        sub, rows, cols = join_pair_matrix().restrict_leq((0, 0))
        assert sub.num_rows == 0 and sub.num_cols == 0

    def test_full_at_relation_degree(self):
        m = join_pair_matrix()
        sub, rows, cols = m.restrict_leq((2, 2))
        assert rows == [0, 1] and cols == [0]
        assert sub.equal(m)

    def test_rows_only_below_relation(self):
        sub, rows, cols = join_pair_matrix().restrict_leq((1, 1))
        assert rows == [0, 1] and cols == []


class TestMinimize:
    def test_already_minimal_unchanged(self):
        m = join_pair_matrix()
        out, report = minimize(m)
        assert out.equal(m)
        assert report["cancelled_pairs"] == []
        assert report["deleted_columns"] == 0

    def test_equal_degree_pair_cancels(self):
        m = GradedMatrix([(1, 1)], [(1, 1)], field=f2())
        m.columns[0] = {0: 1}
        out, report = minimize(m)
        assert out.num_rows == 0 and out.num_cols == 0
        assert report["cancelled_pairs"] == [((1, 1), (1, 1))]

    def test_free_module_unchanged(self):
        m = GradedMatrix([(0, 0), (1, 1)], [], field=f2())
        out, _ = minimize(m)
        assert out.equal(m)

    def test_redundant_column_deleted(self):
        m = GradedMatrix([(0, 0)], [(1, 1), (2, 2)], field=f2())
        m.columns[0] = {0: 1}
        m.columns[1] = {0: 1}
        out, report = minimize(m)
        assert out.num_cols == 1
        assert report["deleted_columns"] == 1

    def test_cancellation_preserves_module(self):
        # one generator killed by an equal-degree relation inside a chain
        m = GradedMatrix([(0, 0), (1, 1)], [(1, 1), (2, 2)], field=f2())
        m.columns[0] = {0: 1, 1: 1}
        m.columns[1] = {1: 1}
        out, _ = minimize(m)
        out.validate()
        assert is_minimal(out)
        # the surviving module is the interval [ (0,0), (2,2) )
        assert out.row_degrees == [(0, 0)]
        assert out.col_degrees == [(2, 2)]

    def test_idempotent(self):
        m = gen_random_er(8, 8, 0.4, seed=5)
        again, report = minimize(m)
        assert again.equal(m)
        assert report["cancelled_pairs"] == [] and report["deleted_columns"] == 0

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10 ** 6))
    def test_generated_outputs_minimal(self, seed):
        m = gen_random_er(5, 5, 0.5, seed=seed)
        m.validate()
        assert is_minimal(m)


class TestSortAndBatch:
    def test_distinct_degrees_singleton_batches(self):
        m = GradedMatrix([(0, 0)], [(1, 0), (0, 1), (1, 1)], field=f2())
        batches = sort_and_batch(m)
        assert [len(cols) for _, cols in batches] == [1, 1, 1]

    def test_common_degree_single_batch(self):
        batches = sort_and_batch(antidiagonal_batch_matrix())
        assert len(batches) == 1
        assert batches[0][0] == (5, 5)
        assert sorted(batches[0][1]) == [0, 1, 2, 3]

    def test_linear_extension(self):
        m = GradedMatrix([(0, 0)], [(1, 3), (1, 3), (2, 2)], field=f2())
        batches = sort_and_batch(m)
        assert len(batches) == 2
        degrees = [alpha for alpha, _ in batches]
        for i in range(len(degrees)):
            for j in range(i + 1, len(degrees)):
                assert not leq(degrees[j], degrees[i]) or degrees[i] == degrees[j]
        assert degrees == sorted(degrees, key=colex_key)


class TestTransformPair:
    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10 ** 6))
    def test_tracks_mix_exactly(self, seed):
        m, _ = gen_intervals(6, seed=seed, mixed=False)
        mixed, tp = mix(m, op_count=40, seed=seed + 1, return_transform=True)
        assert transform_errors(m, mixed, tp) == []
        assert tp.check_graded(m.row_degrees, m.col_degrees)
        mixed.validate()

    def test_identity_on_no_ops(self):
        tp = TransformPair(3, 2, FieldConfig(2))
        assert tp.q_rows == [{0: 1}, {1: 1}, {2: 1}]
        assert tp.pinv_rows == [{0: 1}, {1: 1}]


class TestColumnComponents:
    def test_disjoint_columns_split(self):
        m = GradedMatrix([(0, 0), (0, 0)], [(1, 1), (1, 1)], field=f2())
        m.columns[0] = {0: 1}
        m.columns[1] = {1: 1}
        comps = column_components(m, [0, 1])
        assert sorted(sorted(c) for c in comps) == [[0], [1]]

    def test_shared_row_joins(self):
        m = GradedMatrix([(0, 0)], [(1, 1), (1, 1)], field=f2())
        m.columns[0] = {0: 1}
        m.columns[1] = {0: 1}
        comps = column_components(m, [0, 1])
        assert [sorted(c) for c in comps] == [[0, 1]]
