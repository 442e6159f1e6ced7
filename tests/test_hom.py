"""Morphism spaces between presentations and their localisation at a degree."""

import itertools
import random

import numpy as np
import pytest

from fixtures import chain_blocks, f2, join_pair_matrix, staircase_pair
from mpdec.fields import FieldConfig, matmul
from mpdec.grading import GradedMatrix
from mpdec.hom import (
    BlockHom,
    alpha_quotient,
    cokernel_at,
    hom_pairs,
    hom_space,
)
from mpdec.intervals import check_interval, interval_alpha_hom


class TestHomSpace:
    def test_chain_block_dimensions(self):
        b, c, d = chain_blocks()
        blocks = {"b": b, "c": c, "d": d}
        expected = {("b", "c"): 1, ("c", "d"): 1, ("b", "d"): 2}
        for sn, src in blocks.items():
            for tn, tgt in blocks.items():
                dim = hom_space(src, tgt).dim
                if sn == tn:
                    assert dim == 1
                else:
                    assert dim == expected.get((sn, tn), 0)

    def test_equal_free_generators(self):
        a = GradedMatrix([(1, 2)], [], field=f2())
        assert hom_space(a, a.copy()).dim == 1

    def test_incomparable_free_generators(self):
        a = GradedMatrix([(0, 1)], [], field=f2())
        b = GradedMatrix([(1, 0)], [], field=f2())
        assert hom_space(a, b).dim == 0
        assert hom_space(b, a).dim == 0

    def test_comparable_free_generators(self):
        a = GradedMatrix([(0, 0)], [], field=f2())
        b = GradedMatrix([(1, 1)], [], field=f2())
        # a free module maps to another iff its generator sits above
        assert hom_space(b, a).dim == 1
        assert hom_space(a, b).dim == 0

    def test_pairs_satisfy_intertwining(self):
        x, y, _ = staircase_pair()
        q = x.field.q
        for qq, pp in hom_pairs(x, y):
            lhs = matmul(qq, x.to_dense(), q)
            rhs = matmul(y.to_dense(), pp, q)
            assert np.array_equal(lhs, rhs)


class TestCokernelAt:
    def test_free_generator(self):
        m = GradedMatrix([(1, 1)], [], field=f2())
        assert cokernel_at(m, (2, 2)).dim == 1

    def test_join_pair_at_relation_degree(self):
        assert cokernel_at(join_pair_matrix(), (2, 2)).dim == 1

    def test_join_pair_beyond_relation(self):
        assert cokernel_at(join_pair_matrix(), (3, 3)).dim == 1

    def test_join_pair_below_relation(self):
        assert cokernel_at(join_pair_matrix(), (1, 1)).dim == 2

    def test_below_support(self):
        assert cokernel_at(join_pair_matrix(), (0, 0)).dim == 0


class TestAlphaQuotient:
    def test_staircase_pair(self):
        x, y, alpha = staircase_pair()
        hom = hom_space(x, y)
        assert hom.dim == 2
        local = alpha_quotient(hom.pairs, x, y, alpha)
        assert local.dim == 1

    def test_vanishing_below_support(self):
        m = join_pair_matrix()
        hom = hom_space(m, m.copy())
        local = alpha_quotient(hom.pairs, m, m.copy(), (0, 0))
        assert local.dim == 0

    def test_identity_endomorphism_survives(self):
        _, c, _ = chain_blocks()
        hom = hom_space(c, c.copy())
        local = alpha_quotient(hom.pairs, c, c.copy(), (1, 1))
        assert local.dim == 1

    def test_never_exceeds_hom_dim(self):
        b, c, d = chain_blocks()
        for src in (b, c, d):
            for tgt in (b, c, d):
                hom = hom_space(src, tgt)
                for alpha in [(1, 1), (1, 2), (2, 2), (1, 3)]:
                    local = alpha_quotient(hom.pairs, src, tgt, alpha)
                    assert local.dim <= hom.dim
                    assert local.dim == len(local.representatives)


def random_single_generator(rng, d, q):
    """One generator and 0-3 relations above it, some of them zero."""
    gen = tuple(rng.randint(0, 2) for _ in range(d))
    rels = [tuple(g + rng.randint(0, 2) for g in gen)
            for _ in range(rng.randint(0, 3))]
    m = GradedMatrix([gen], rels, field=FieldConfig(q))
    for j in range(len(rels)):
        if rng.random() < 0.8:
            m.columns[j] = {0: rng.randint(1, q - 1)}
    return m


class TestSingleGeneratorReps:
    """BlockHom's closed form for one-generator presentations agrees with
    the generic alpha quotient."""

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_alpha_quotient(self, q, d):
        rng = random.Random(1000 * q + d)
        for _ in range(60):
            src = random_single_generator(rng, d, q)
            tgt = random_single_generator(rng, d, q)
            pairs = hom_pairs(src, tgt)
            block_hom = BlockHom(use_homset=True)
            degs = (src.row_degrees + src.col_degrees
                    + tgt.row_degrees + tgt.col_degrees)
            axes = [sorted({g[a] for g in degs}) for a in range(d)]
            for alpha in itertools.product(*axes):
                fast = block_hom.sources(src, tgt, alpha)
                slow = alpha_quotient(pairs, src, tgt, alpha).representatives
                assert len(fast) == len(slow), (src, tgt, alpha)
                for (fast_q, fast_p), (slow_q, slow_p) in zip(fast, slow):
                    assert np.array_equal(fast_q, slow_q)
                    assert np.array_equal(fast_p, slow_p)

    def test_raw_pairs_only_when_alive(self):
        m = GradedMatrix([(1, 1)], [], field=f2())
        tgt = m.copy()
        block_hom = BlockHom(use_homset=True)
        assert block_hom.sources(m, tgt, (0, 5)) == []
        assert block_hom.computations == 0
        assert len(block_hom.sources(m, tgt, (2, 2))) == 1
        assert block_hom.computations == 1


def interval_fixtures():
    free = GradedMatrix([(0, 0)], [], field=f2())
    lshape = GradedMatrix([(0, 0)], [(3, 0)], field=f2())
    lshape.columns[0] = {0: 1}
    tall = GradedMatrix([(0, 1)], [(4, 4)], field=f2())
    tall.columns[0] = {0: 1}
    return free, lshape, tall


class TestIntervalAlphaHom:
    def test_reflexive(self):
        free, lshape, _ = interval_fixtures()
        for m in (free, lshape):
            shape = check_interval(m)
            assert shape is not None
            assert interval_alpha_hom(shape, shape, (0, 0))

    def test_staircase_pair_at_alpha(self):
        x, y, alpha = staircase_pair()
        sx, sy = check_interval(x), check_interval(y)
        assert sx is not None and sy is not None
        assert interval_alpha_hom(sx, sy, alpha)

    def test_agrees_with_general_path(self):
        free, lshape, tall = interval_fixtures()
        shapes = [(m, check_interval(m)) for m in (free, lshape, tall)]
        points = [(0, 0), (1, 0), (0, 1), (2, 2), (3, 3)]
        for msrc, ssrc in shapes:
            for mtgt, stgt in shapes:
                hom = hom_space(msrc, mtgt)
                for alpha in points:
                    if not (ssrc.contains(alpha) and stgt.contains(alpha)):
                        continue
                    fast = interval_alpha_hom(ssrc, stgt, alpha)
                    general = alpha_quotient(hom.pairs, msrc, mtgt,
                                             alpha).dim > 0
                    assert fast == general

    def test_transitive(self):
        x, y, alpha = staircase_pair()
        sx, sy = check_interval(x), check_interval(y)
        sid = check_interval(x.copy())
        if interval_alpha_hom(sx, sid, alpha) and interval_alpha_hom(sid, sy, alpha):
            assert interval_alpha_hom(sx, sy, alpha)

    def test_antisymmetry_for_distinct_supports(self):
        _, lshape, tall = interval_fixtures()
        sl, st_ = check_interval(lshape), check_interval(tall)
        both = interval_alpha_hom(sl, st_, (1, 1)) and interval_alpha_hom(
            st_, sl, (1, 1)
        )
        assert not both
