"""Pointwise dimensions, interval detection, and the interval_auto decision."""

import pytest

from fixtures import antidiagonal_batch_matrix, f2, join_pair_matrix
from mpdec.decomposer import decompose
from mpdec.generators import gen_intervals
from mpdec.grading import GradedMatrix
from mpdec.intervals import check_interval, dim_at


class TestDimAt:
    def test_join_pair_pointwise(self):
        m = join_pair_matrix()
        assert dim_at(m, (1, 1)) == 2
        assert dim_at(m, (2, 2)) == 1
        assert dim_at(m, (3, 3)) == 1
        assert dim_at(m, (0, 0)) == 0
        assert dim_at(m, (0, 1)) == 1

    def test_free_generator(self):
        m = GradedMatrix([(1, 0)], [], field=f2())
        assert dim_at(m, (0, 0)) == 0
        assert dim_at(m, (1, 0)) == 1
        assert dim_at(m, (5, 5)) == 1


class TestCheckInterval:
    def test_free_generator_is_interval(self):
        shape = check_interval(GradedMatrix([(2, 3)], [], field=f2()))
        assert shape is not None
        assert shape.contains((2, 3))
        assert not shape.contains((1, 3))

    def test_l_shape_is_interval(self):
        m = GradedMatrix([(0, 2), (2, 0)], [(2, 2), (4, 2), (2, 4)], field=f2())
        m.columns[0] = {0: 1, 1: 1}
        m.columns[1] = {1: 1}
        m.columns[2] = {0: 1}
        shape = check_interval(m)
        assert shape is not None
        assert shape.contains((0, 2)) and shape.contains((2, 0))
        # the branches merge at (2, 2) and die at (4, 2) and (2, 4)
        assert shape.contains((2, 2))
        assert not shape.contains((4, 2))
        assert not shape.contains((2, 4))

    def test_join_pair_rejected(self):
        # indecomposable, but pointwise dimension 2 at the meet point
        assert check_interval(join_pair_matrix()) is None

    def test_antidiagonal_summand_rejected(self):
        assert check_interval(antidiagonal_batch_matrix()) is None

    def test_three_entry_column_rejected(self):
        m = GradedMatrix(
            [(0, 3), (1, 1), (3, 0)], [(3, 3)], field=f2()
        )
        m.columns[0] = {0: 1, 1: 1, 2: 1}
        assert check_interval(m) is None

    def test_generated_intervals_detected(self):
        m, _ = gen_intervals(30, seed=3, mixed=False)
        report = decompose(m, strategy="interval_auto")
        assert report.interval_decomposable
        for s in report.summands:
            assert check_interval(s) is not None


class TestIntervalAuto:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recovers_ground_truth(self, seed):
        m, sigs = gen_intervals(40, seed=seed, mixed=True)
        report = decompose(m, strategy="interval_auto", verify=True)
        assert report.interval_decomposable
        assert report.num_summands == 40
        assert report.signature_multiset() == sigs

    def test_fallback_on_non_interval_input(self):
        m = antidiagonal_batch_matrix()
        fast = decompose(m.copy(), strategy="interval_auto", verify=True)
        slow = decompose(m.copy(), strategy="exhaustive", verify=True)
        assert not fast.interval_decomposable
        assert fast.signature_multiset() == slow.signature_multiset()

    def test_join_pair_not_interval_decomposable(self):
        report = decompose(join_pair_matrix(), strategy="interval_auto")
        assert not report.interval_decomposable
        assert report.num_summands == 1
