"""Pointwise dimensions, interval detection, and the interval_auto decision."""

import random
from itertools import product

import pytest

from fixtures import antidiagonal_batch_matrix, f2, join_pair_matrix
from mpdec.decomposer import decompose, summand_signature
from mpdec.fields import FieldConfig
from mpdec.generators import gen_intervals
from mpdec.grading import GradedMatrix, join, leq
from mpdec.intervals import check_interval, dim_at, dimension_grid


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


# ---------------------------------------------------------------------------
# dimension_grid, summand_signature and check_interval against a point-by-point
# reference built on dim_at


def _random_presentation(rng):
    """1-4 generators, 2 or 3 parameters, F_2 or F_3; columns at generator
    joins with entries (v, -v), single-entry columns (possibly at the
    generator's own degree, so not minimal), and random columns (possibly
    zero)."""
    q = rng.choice([2, 3])
    d = rng.choice([2, 3])
    k = rng.randint(1, 4)
    gens = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(k)]
    rels, cols = [], []
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if kind < 0.4 and k >= 2:
            i1, i2 = rng.sample(range(k), 2)
            v = rng.randint(1, q - 1)
            rels.append(join(gens[i1], gens[i2]))
            cols.append({i1: v, i2: (-v) % q})
        elif kind < 0.7:
            i = rng.randrange(k)
            rels.append(tuple(x + rng.randint(0, 2) for x in gens[i]))
            cols.append({i: rng.randint(1, q - 1)})
        else:
            r = tuple(rng.randint(0, 5) for _ in range(d))
            rels.append(r)
            cols.append({i: rng.randint(1, q - 1) for i in range(k)
                         if leq(gens[i], r) and rng.random() < 0.6})
    return GradedMatrix(gens, rels, cols, FieldConfig(q))


def _reference_grid(m):
    """Axes (own degree values plus a sentinel) and dim_at at every point."""
    degs = m.row_degrees + m.col_degrees
    axes = []
    for a in range(len(degs[0])):
        vals = sorted({g[a] for g in degs})
        axes.append(vals + [vals[-1] + 1])
    dims = {
        idx: dim_at(m, tuple(ax[i] for ax, i in zip(axes, idx)))
        for idx in product(*(range(len(ax)) for ax in axes))
    }
    return axes, dims


def _normal_form(m) -> bool:
    """Every column has one entry, or two entries (v, -v) at the join."""
    for j, col in enumerate(m.columns):
        if len(col) == 1:
            continue
        if len(col) != 2:
            return False
        (i1, v1), (i2, v2) = sorted(col.items())
        if (v1 + v2) % m.field.q or m.col_degrees[j] != join(
                m.row_degrees[i1], m.row_degrees[i2]):
            return False
    return True


def _reference_is_interval(m) -> bool:
    """Normal form, then the point-by-point scan: dimension <= 1, nonempty
    support, connected under grid adjacency, and no dead point with
    support both below and above it."""
    if m.num_rows == 0 or not _normal_form(m):
        return False
    axes, dims = _reference_grid(m)
    if max(dims.values()) > 1:
        return False
    support = [idx for idx, dim in dims.items() if dim == 1]
    if not support:
        return False
    seen, stack = {support[0]}, [support[0]]
    while stack:
        cur = stack.pop()
        for a in range(len(axes)):
            for step in (-1, 1):
                nb = cur[:a] + (cur[a] + step,) + cur[a + 1:]
                if dims.get(nb) == 1 and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    if len(seen) != len(support):
        return False
    for idx, dim in dims.items():
        if dim == 0 and any(leq(s, idx) for s in support) and any(
                leq(idx, s) for s in support):
            return False
    return True


class TestDimensionGrid:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pointwise_reference(self, seed):
        rng = random.Random(seed)
        decisions = set()
        for _ in range(150):
            m = _random_presentation(rng)
            ref_axes, ref_dims = _reference_grid(m)
            axes, dims = dimension_grid(m)
            assert axes == ref_axes
            points = sorted(ref_dims)
            assert [int(dims[idx]) for idx in points] == [
                ref_dims[idx] for idx in points]
            assert summand_signature(m) == (
                tuple(sorted(m.row_degrees)), tuple(sorted(m.col_degrees)),
                tuple(ref_dims[idx] for idx in points))
            expected = _reference_is_interval(m)
            assert (check_interval(m) is not None) == expected
            decisions.add((m.num_rows == 1, _normal_form(m), expected))
        # both decisions occur, and some normal forms fail pointwise
        assert {(True, True, True), (False, True, True),
                (False, True, False)} <= decisions

    def test_no_degrees(self):
        m = GradedMatrix([], [], field=f2())
        assert summand_signature(m) == ((), (), ())
        assert check_interval(m) is None

    # each passes the normal-form pass and must fail a pointwise condition
    @pytest.mark.parametrize("gens,rels,cols", [
        # free generators at (0, 0) and (1, 1): dimension 2 at (1, 1)
        ([(0, 0), (1, 1)], [], []),
        # each generator dies at (1, 1) before the two supports meet
        ([(0, 1), (1, 0)], [(1, 1), (1, 1)], [{0: 1}, {1: 1}]),
        # connected through (0, 1) ~ (1, 1), but (1, 0) is dead between
        # (0, 0) and (1, 1)
        ([(0, 0), (1, 1)], [(1, 0)], [{0: 1}]),
    ], ids=["dimension_two", "disconnected", "not_convex"])
    def test_rejected(self, gens, rels, cols):
        m = GradedMatrix(gens, rels, cols, f2())
        assert _normal_form(m)
        assert not _reference_is_interval(m)
        assert check_interval(m) is None
