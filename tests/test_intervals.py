"""Pointwise dimensions, interval detection, and the interval_auto decision."""

import random
from itertools import product

import numpy as np
import pytest

from fixtures import antidiagonal_batch_matrix, f2, join_pair_matrix
from mpdec.decomposer import decompose, summand_signature
from mpdec.fields import FieldConfig, rank
from mpdec.generators import _direct_sum, gen_intervals, mix
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

    def test_one_generator_killed_at_its_degree(self):
        m = GradedMatrix([(1, 2)], [(1, 2), (3, 3)], field=f2())
        m.columns[0] = {0: 1}
        m.columns[1] = {0: 1}
        assert check_interval(m) is None

    def test_one_generator_zero_column_at_its_degree(self):
        m = GradedMatrix([(1, 2)], [(1, 2), (3, 3)], field=f2())
        m.columns[1] = {0: 1}
        shape = check_interval(m)
        assert shape is not None
        assert shape.contains((1, 2)) and shape.contains((2, 5))
        assert not shape.contains((3, 3))

    @pytest.mark.parametrize("seed", range(5))
    def test_one_generator_matches_the_grid(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            rels = [(rng.randrange(4), rng.randrange(4))
                    for _ in range(rng.randrange(4))]
            m = GradedMatrix([(rng.randrange(4), rng.randrange(4))], rels,
                             field=f2())
            for j in range(len(rels)):
                if rng.random() < 0.6:
                    m.columns[j] = {0: 1}
            _, dims = dimension_grid(m)
            assert (check_interval(m) is not None) == bool((dims == 1).any())

    @pytest.mark.parametrize("seed", range(3))
    def test_given_dims_decide_alone(self, seed):
        """With the dimension vector given, check_interval skips the
        thick-at-a-join pre-reject: such a join is a grid point of
        dimension > 1, so the vector alone rejects it."""
        rng = random.Random(seed)
        cases = [join_pair_matrix(), antidiagonal_batch_matrix()]
        for _ in range(60):
            gens = [(rng.randrange(4), rng.randrange(4))
                    for _ in range(rng.randrange(2, 4))]
            rels = [(rng.randrange(5), rng.randrange(5))
                    for _ in range(rng.randrange(5))]
            m = GradedMatrix(gens, rels, field=f2())
            for j, r in enumerate(rels):
                m.columns[j] = {i: 1 for i, g in enumerate(gens)
                                if leq(g, r) and rng.random() < 0.6}
            cases.append(m)
        rejected = 0
        for m in cases:
            _, dims = dimension_grid(m)
            alone = check_interval(m, dims.ravel())
            assert (alone is None) == (check_interval(m) is None)
            rejected += alone is None and bool((dims > 1).any())
        assert rejected

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


def _dead_generators(m, hi, cache):
    """Generators whose class vanishes at hi: e_g in the span of the
    relation columns of degree <= hi. Cached by that column set."""
    cols = tuple(j for j, r in enumerate(m.col_degrees) if leq(r, hi))
    if cols not in cache:
        q = m.field.q
        r = m.to_dense()[:, list(cols)]
        base = rank(r, q)
        unit = np.eye(m.num_rows, dtype=np.int64)
        cache[cols] = {g for g in range(m.num_rows)
                       if rank(np.hstack([r, unit[:, [g]]]), q) == base}
    return cache[cols]


def _reference_is_interval(m) -> bool:
    """Point-by-point scan: dimension <= 1, nonempty support, connected
    under grid adjacency, no dead point with support both below and above
    it, and every map M(lo) -> M(hi) between comparable support points
    nonzero (some generator below lo whose class survives at hi)."""
    if m.num_rows == 0:
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
    point = {idx: tuple(ax[i] for ax, i in zip(axes, idx)) for idx in support}
    below = {idx: {g for g, d in enumerate(m.row_degrees) if leq(d, point[idx])}
             for idx in support}
    cache = {}
    for hi in support:
        dead = _dead_generators(m, point[hi], cache)
        if any(leq(lo, hi) and below[lo] <= dead for lo in support):
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
            assert (check_interval(m, summand_signature(m)[2])
                    is not None) == expected
            decisions.add((m.num_rows == 1, expected))
        assert {(True, True), (False, True), (False, False)} <= decisions

    def test_no_degrees(self):
        m = GradedMatrix([], [], field=f2())
        assert summand_signature(m) == ((), (), ())
        assert check_interval(m) is None

    # each must fail a pointwise condition
    @pytest.mark.parametrize("gens,rels,cols", [
        # free generators at (0, 0) and (1, 1): dimension 2 at (1, 1)
        ([(0, 0), (1, 1)], [], []),
        # each generator dies at (1, 1) before the two supports meet
        ([(0, 1), (1, 0)], [(1, 1), (1, 1)], [{0: 1}, {1: 1}]),
        # connected through (0, 1) ~ (1, 1), but (1, 0) is dead between
        # (0, 0) and (1, 1)
        ([(0, 0), (1, 1)], [(1, 0)], [{0: 1}]),
        # thin, connected and convex, but the direct sum of [0, 1) and
        # [1, 2) on the x-axis: the map from (0, 0) to (1, 0) is zero
        ([(0, 0), (1, 0)], [(1, 0), (2, 0)], [{0: 1}, {1: 1}]),
    ], ids=["dimension_two", "disconnected", "not_convex", "touching"])
    def test_rejected(self, gens, rels, cols):
        m = GradedMatrix(gens, rels, cols, f2())
        assert not _reference_is_interval(m)
        assert check_interval(m) is None


# ---------------------------------------------------------------------------
# interval flags over odd q: the decision must not depend on the basis


def _staircase(rng, q):
    """A staircase interval with 1-4 corners, rows rescaled by random units.

    Generators at (x_i, y_i), x ascending and y descending; a relation
    e_i - e_{i+1} at each neighbour join (x_{i+1}, y_i); with probability
    0.7 a cap relation e_0 above every corner.
    """
    k = 1 + rng.randrange(4)
    xs = sorted(rng.sample(range(40), k))
    ys = sorted(rng.sample(range(40), k), reverse=True)
    rels = [(xs[i + 1], ys[i]) for i in range(k - 1)]
    cols = [{i: 1, i + 1: q - 1} for i in range(k - 1)]
    if rng.random() < 0.7:
        rels.append((xs[-1] + 1 + rng.randrange(5),
                     ys[0] + 1 + rng.randrange(5)))
        cols.append({0: 1})
    scale = [rng.randint(1, q - 1) for _ in range(k)]
    cols = [{i: v * scale[i] % q for i, v in col.items()} for col in cols]
    return GradedMatrix(list(zip(xs, ys)), rels, cols, FieldConfig(q))


def _join_pair(rng, q):
    """Two generators tied at a point strictly above their join: not an
    interval (dimension 2 at the join)."""
    x, y = rng.randrange(40), rng.randrange(40)
    cols = [{0: rng.randint(1, q - 1), 1: rng.randint(1, q - 1)}]
    return GradedMatrix([(x, y + 1), (x + 1, y)], [(x + 2, y + 2)], cols,
                        FieldConfig(q))


class TestOddFieldFlags:
    def test_sign_repro(self):
        # presents an interval: scaling row 1 by -1 gives {0: 1, 1: 2}
        m = GradedMatrix([(0, 1), (1, 0)], [(1, 1)], [{0: 1, 1: 1}],
                         FieldConfig(3))
        assert check_interval(m) is not None
        report = decompose(m, verify=True)
        assert report.interval_flags == [True]
        assert report.interval_decomposable is True

    @pytest.mark.parametrize("q", [3, 5])
    def test_rescaled_blocks(self, q):
        rng = random.Random(q)
        for _ in range(40):
            assert check_interval(_staircase(rng, q)) is not None
            assert check_interval(_join_pair(rng, q)) is None

    @pytest.mark.parametrize("q", [3, 5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_staircase_sums(self, q, seed):
        rng = random.Random(100 * q + seed)
        stairs = [_staircase(rng, q) for _ in range(12)]
        pairs = [_join_pair(rng, q) for _ in range(3)]
        truth = sorted([(summand_signature(b), True) for b in stairs]
                       + [(summand_signature(b), False) for b in pairs])
        blocks = stairs + pairs
        m = mix(_direct_sum(blocks, FieldConfig(q)), seed=seed)
        report = decompose(m, verify=True)
        assert sorted(zip(report.signatures, report.interval_flags)) == truth
        assert report.interval_decomposable is False
