"""Full decomposition pipeline and report certificates."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    chain_digraph_matrix,
    clearing_fixture,
    equal_rows_split_matrix,
    f2,
    join_pair_matrix,
    obstruction_matrix,
)
from mpdec import decomposer, hom
from mpdec.decomposer import STRATEGIES, decompose, summand_signature
from mpdec.fields import FieldConfig
from mpdec.generators import gen_grid, gen_intervals, gen_random_er, mix
from mpdec.grading import GradedMatrix
from test_golden import _corpus as golden_corpus

STRATS = ("exhaustive", "aida")


class TestDecomposeFixtures:
    @pytest.mark.parametrize("strategy", STRATS)
    def test_disjoint_free_generators(self, strategy):
        m = GradedMatrix([(0, 1), (1, 0)], [], field=f2())
        report = decompose(m, strategy=strategy, verify=True)
        assert report.num_summands == 2

    @pytest.mark.parametrize("strategy", STRATS)
    def test_join_pair_indecomposable(self, strategy):
        report = decompose(join_pair_matrix(), strategy=strategy, verify=True)
        assert report.num_summands == 1
        s = report.summands[0]
        assert (s.num_rows, s.num_cols) == (2, 1)

    @pytest.mark.parametrize("strategy", STRATS)
    def test_obstruction_splits(self, strategy):
        report = decompose(obstruction_matrix(), strategy=strategy, verify=True)
        sizes = sorted((s.num_rows, s.num_cols) for s in report.summands)
        assert sizes == [(1, 1), (2, 1)]

    @pytest.mark.parametrize("strategy", STRATS)
    def test_chain_digraph_block_partition(self, strategy):
        report = decompose(chain_digraph_matrix(), strategy=strategy, verify=True)
        assert report.num_summands == 2
        by_size = {
            (s.num_rows, s.num_cols): (sorted(rows), sorted(cols))
            for s, rows, cols in zip(
                report.summands, report.block_rows, report.block_cols
            )
        }
        assert set(by_size) == {(3, 3), (1, 1)}
        # rows split as the first three generators against the free one;
        # the two batch columns at (2, 2) split one to each side
        assert by_size[(3, 3)][0] == [0, 1, 2]
        assert by_size[(1, 1)][0] == [3]
        big_cols, small_cols = by_size[(3, 3)][1], by_size[(1, 1)][1]
        assert big_cols[:2] == [0, 1]
        assert sorted(big_cols[2:] + small_cols) == [2, 3]

    @pytest.mark.parametrize("strategy", STRATS)
    def test_clearing_fixture(self, strategy):
        report = decompose(clearing_fixture()[0], strategy=strategy, verify=True)
        sizes = sorted((s.num_rows, s.num_cols) for s in report.summands)
        assert sizes == [(2, 2), (2, 3)]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_equal_rows_split(self, strategy):
        report = decompose(equal_rows_split_matrix(), strategy=strategy)
        assert report.num_summands == 2
        assert report.verify()

    def test_summands_are_indecomposable(self):
        for src in (chain_digraph_matrix(), clearing_fixture()[0],
                    obstruction_matrix()):
            report = decompose(src, strategy="exhaustive")
            for s in report.summands:
                again = decompose(s.copy(), strategy="exhaustive", verify=True)
                assert again.num_summands == 1


class TestCountersAndConservation:
    def test_distinctly_graded_skips_subspace_search(self):
        m = gen_intervals(20, seed=4, mixed=True)[0]
        report = decompose(m, strategy="exhaustive")
        assert report.counters["subspace_iterations"] == 0

    def test_generator_and_relation_conservation(self):
        for seed in range(5):
            m = gen_random_er(8, 6, 0.35, seed=seed)
            report = decompose(m.copy(), strategy="aida", verify=True)
            assert sum(s.num_rows for s in report.summands) == m.num_rows
            assert sum(s.num_cols for s in report.summands) == m.num_cols

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10 ** 6))
    def test_strategies_agree_on_random_input(self, seed):
        m = gen_random_er(7, 6, 0.4, seed=seed)
        mixed, _ = mix(m.copy(), op_count=60, seed=seed + 1,
                       return_transform=True)
        reports = [
            decompose(mixed.copy(), strategy=s, verify=True) for s in STRATS
        ]
        assert reports[0].signature_multiset() == reports[1].signature_multiset()

    def test_certificate_on_every_report(self):
        for seed in range(3):
            m = gen_random_er(6, 6, 0.4, seed=100 + seed)
            report = decompose(m.copy(), strategy="exhaustive", verify=False)
            assert report.verify()


def _track_versions(monkeypatch):
    """Count each block's merges: its version is its state between two
    merges. Returns the dict of counts, keyed by block id."""
    versions = defaultdict(int)
    merge = decomposer._State.merge

    def tracked_merge(state, bids, cols):
        keep = merge(state, bids, cols)
        versions[keep] += 1
        return keep

    monkeypatch.setattr(decomposer._State, "merge", tracked_merge)
    return versions


class TestHomCache:
    """Raw Hom bases are solved once per pair of block versions, across
    batches: a block's proper presentation is one object until its next
    merge, and BlockHom keys on the objects."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_version_pair_solved_once(self, seed, monkeypatch):
        asked, solved = [], []
        clear_sources = decomposer._State.clear_sources
        hom_pairs = hom.hom_pairs
        versions = _track_versions(monkeypatch)

        def tracked_clear_sources(state, src_bid, tgt_bid, alpha):
            asked.append((state, src_bid, tgt_bid))
            try:
                return clear_sources(state, src_bid, tgt_bid, alpha)
            finally:
                asked.pop()

        def tracked_hom_pairs(src, tgt):
            state, src_bid, tgt_bid = asked[-1]
            assert src is state.blocks[src_bid].proper
            assert tgt is state.blocks[tgt_bid].proper
            solved.append((src_bid, versions[src_bid],
                           tgt_bid, versions[tgt_bid]))
            return hom_pairs(src, tgt)

        monkeypatch.setattr(decomposer._State, "clear_sources",
                            tracked_clear_sources)
        monkeypatch.setattr(hom, "hom_pairs", tracked_hom_pairs)
        m, _ = gen_intervals(100, seed=seed, mixed=True)
        report = decompose(m, strategy="interval_auto")
        assert solved
        assert len(set(solved)) == len(solved)
        assert report.counters["hom_computations"] == len(solved)

    def test_block_holding_a_batch_column_is_rejected(self):
        state = decomposer._State(join_pair_matrix(), True, True)
        state.begin_batch()
        state.merge([0, 1], [0])
        with pytest.raises(decomposer.DecompositionError):
            state.proper_matrix(0)
        state.begin_batch()
        assert state.proper_matrix(0).num_cols == 1


class TestAidaCertificates:
    """aida's certificate identity holds where batches share rows with
    columns already owned by other blocks, and its summands agree with
    exhaustive's."""

    @pytest.mark.parametrize("q", [2, 3])
    def test_small_grid_corpus(self, q):
        for seed in range(20):
            m, _ = gen_grid(60, 60, 3, 0.06, seed=seed, field=FieldConfig(q))
            report = decompose(m, strategy="aida")
            assert report.verify(), f"seed {seed} over F_{q}"
            reference = decompose(m, strategy="exhaustive")
            assert (report.signature_multiset()
                    == reference.signature_multiset()), f"seed {seed} over F_{q}"

    def test_grid_repro(self):
        m, _ = gen_grid(80, 80, 3, 0.05, seed=3)
        assert decompose(m, strategy="aida").verify()


class TestIntervalDecision:
    """Every report says whether every summand is an interval."""

    @pytest.mark.parametrize("seed", [30, 32])
    def test_interval_decomposable_grid(self, seed):
        m, _ = gen_grid(40, 40, 3, 0.08, seed=seed)
        report = decompose(m, strategy="interval_auto", verify=True)
        assert report.interval_decomposable is True
        assert all(report.interval_flags)

    def test_decision_matches_flags(self):
        inputs = [gen_random_er(7, 6, 0.4, seed=s) for s in range(5)]
        inputs += [gen_grid(30, 30, 3, 0.1, seed=s)[0] for s in range(5)]
        decisions = set()
        for m in inputs:
            for s in STRATEGIES:
                report = decompose(m, strategy=s)
                assert report.interval_decomposable == all(
                    report.interval_flags)
                decisions.add(report.interval_decomposable)
        assert decisions == {True, False}


class TestSignatures:
    def test_signature_separates_fixtures(self):
        assert summand_signature(join_pair_matrix()) != summand_signature(
            obstruction_matrix()
        )

    def test_signature_invariant_under_mixing(self):
        m = gen_random_er(6, 5, 0.4, seed=77)
        mixed, _ = mix(m.copy(), op_count=50, seed=78, return_transform=True)
        ra = decompose(m, strategy="exhaustive")
        rb = decompose(mixed, strategy="exhaustive")
        assert ra.signature_multiset() == rb.signature_multiset()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            decompose(join_pair_matrix(), strategy="nope")


def _pruning_corpus():
    """Seeded subspace-enumeration grids over F_2 and F_3, and mixed
    interval sums.

    The last grid has a subspace trial whose first-part clear adds source
    rows into a block's second-part columns, where the block's own
    lower-degree columns then clear them: pruning that clear as if the
    block were still swept loses a summand (25 instead of 26).
    """
    out = []
    for seed in range(16):
        q = 2 if seed % 2 == 0 else 3
        out.append(gen_grid(60, 40, 6, 0.1, seed, field=FieldConfig(q))[0])
    for seed in range(2):
        out.append(gen_intervals(60, seed, mixed=True)[0])
    out.append(gen_grid(40, 40, 3, 0.08, 41, field=FieldConfig(3))[0])
    return out


def _one_entry(trial, tgt_bids, positions, s_pos):
    """Whether _try_clear solves this clear in closed form."""
    return (len(tgt_bids) == 1 and not len(s_pos)
            and trial.slices[tgt_bids[0]][:, positions].size == 1)


class TestClearPruning:
    """A clear the sweep rules out fails before any solve, and a failed
    single-block clear is not tried again before the next column transform.
    Both are exact: the summands do not change."""

    def test_no_solve_for_an_unreached_swept_target(self, monkeypatch):
        current, solves, pruned = [], [], []
        try_clear = decomposer._try_clear
        solve_clear = decomposer.blockreduce.solve_clear

        def tracked_try_clear(state, trial, tgt_bids, positions, source_bids,
                              alpha, s_pos=()):
            current.append((trial, tgt_bids))
            before = len(solves)
            # a one-entry clear never reaches solve_clear, so only the
            # others show the pruning
            one_entry = _one_entry(trial, tgt_bids, positions, s_pos)
            try:
                ok = try_clear(state, trial, tgt_bids, positions,
                               source_bids, alpha, s_pos)
            finally:
                current.pop()
            if not ok and len(solves) == before and not one_entry:
                pruned.append(tgt_bids)
            return ok

        def tracked_solve_clear(targets, q, shared=None):
            trial, tgt_bids = current[-1]
            solves.append(tgt_bids)
            if (len(targets) == 1 and shared is None and targets[0].c.any()
                    and not any(a.any() for a in targets[0].lam_terms)):
                # only where a clear's row additions reached the target
                # outside the positions they zeroed
                assert tgt_bids[0] in trial.unreduced
            return solve_clear(targets, q, shared=shared)

        monkeypatch.setattr(decomposer, "_try_clear", tracked_try_clear)
        monkeypatch.setattr(decomposer.blockreduce, "solve_clear",
                            tracked_solve_clear)
        for m in _pruning_corpus():
            decompose(m)
        assert pruned

    def test_failed_block_not_retried_before_coltrans(self, monkeypatch):
        failed, skipped = {}, []
        try_clear = decomposer._try_clear
        coltrans = decomposer._Trial.coltrans
        clear_block = decomposer._clear_block

        def tracked_try_clear(state, trial, tgt_bids, positions,
                              source_bids, alpha, s_pos=()):
            single = len(tgt_bids) == 1 and not len(s_pos)
            if single:
                assert tgt_bids[0] not in failed.get(trial, set())
            ok = try_clear(state, trial, tgt_bids, positions, source_bids,
                           alpha, s_pos)
            if single and not ok:
                failed.setdefault(trial, set()).add(tgt_bids[0])
            return ok

        def tracked_coltrans(trial, *args):
            failed.pop(trial, None)
            return coltrans(trial, *args)

        def tracked_clear_block(state, trial, bid, *args):
            if bid in failed.get(trial, set()):
                skipped.append(bid)
            return clear_block(state, trial, bid, *args)

        monkeypatch.setattr(decomposer, "_try_clear", tracked_try_clear)
        monkeypatch.setattr(decomposer._Trial, "coltrans", tracked_coltrans)
        monkeypatch.setattr(decomposer, "_clear_block", tracked_clear_block)
        for m in _pruning_corpus():
            decompose(m)
        assert skipped

    def test_outputs_agree_without_the_sweep(self):
        for m in _pruning_corpus():
            default = decompose(m.copy())
            unswept = decompose(m.copy(), use_sweep=False)
            assert unswept.verify()
            assert (unswept.signature_multiset()
                    == default.signature_multiset())


class TestOneEntryClear:
    def test_no_source_queried_past_the_chosen_one(self, monkeypatch):
        """A one-entry clear that a source solves queries the nonzero
        sources in order up to that one, and none after it."""
        queried, recorded = [], []
        checked, spared = [], []
        try_clear = decomposer._try_clear
        clear_sources = decomposer._State.clear_sources
        trial_clear = decomposer._Trial.clear

        def tracked_clear_sources(state, src_bid, tgt_bid, alpha):
            queried.append(src_bid)
            return clear_sources(state, src_bid, tgt_bid, alpha)

        def tracked_clear(trial, tgt_bid, positions, sources, u_mat):
            recorded.append(sources)
            return trial_clear(trial, tgt_bid, positions, sources, u_mat)

        def tracked_try_clear(state, trial, tgt_bids, positions, source_bids,
                              alpha, s_pos=()):
            del queried[:], recorded[:]
            pool = [b for b in source_bids
                    if b not in tgt_bids and trial.slices[b].any()]
            one_entry = _one_entry(trial, tgt_bids, positions, s_pos)
            ok = try_clear(state, trial, tgt_bids, positions, source_bids,
                           alpha, s_pos)
            if one_entry and ok and recorded and recorded[0]:
                (src, _, _), = recorded[0]
                assert queried == pool[:pool.index(src) + 1]
                checked.append(src)
                if src != pool[-1]:
                    spared.append(src)
            return ok

        monkeypatch.setattr(decomposer, "_try_clear", tracked_try_clear)
        monkeypatch.setattr(decomposer._State, "clear_sources",
                            tracked_clear_sources)
        monkeypatch.setattr(decomposer._Trial, "clear", tracked_clear)
        for m in _pruning_corpus():
            decompose(m)
        assert checked and spared


class TestClearSources:
    def test_sources_come_from_the_target_component(self, monkeypatch):
        """Every clear runs inside _exhaustive_component and draws its
        sources from the component it resolves, as in the paper's AIDA."""
        stack, queried = [], []
        component = decomposer._exhaustive_component
        clear_sources = decomposer._State.clear_sources

        def tracked_component(state, trial, bids, positions):
            stack.append(set(bids))
            try:
                return component(state, trial, bids, positions)
            finally:
                stack.pop()

        def tracked_clear_sources(state, src_bid, tgt_bid, alpha):
            assert stack and {src_bid, tgt_bid} <= stack[-1]
            queried.append(src_bid)
            return clear_sources(state, src_bid, tgt_bid, alpha)

        monkeypatch.setattr(decomposer, "_exhaustive_component",
                            tracked_component)
        monkeypatch.setattr(decomposer._State, "clear_sources",
                            tracked_clear_sources)
        for m in golden_corpus():
            decompose(m)
        assert queried


class TestLowColumnCache:
    def test_one_echelon_form_per_block_version(self, monkeypatch):
        """low_cols_dense builds a block's low columns and their echelon
        form once per (block, version, column set), across batches, and
        what it hands out equals a fresh slice of the matrix. A block's
        version is its state between two merges."""
        keys, echelons = [], []
        low_cols_dense = decomposer._State.low_cols_dense
        column_echelon = decomposer.column_echelon
        versions = _track_versions(monkeypatch)

        def tracked_low_cols_dense(state, bid, alpha):
            low = low_cols_dense(state, bid, alpha)
            bu, u_cols, _ = low
            assert np.array_equal(
                bu, state.m.dense_slice(state.blocks[bid].rows, u_cols))
            keys.append((bid, versions[bid], tuple(u_cols)))
            return low

        def tracked_column_echelon(a, q):
            echelons.append(a.shape)
            return column_echelon(a, q)

        monkeypatch.setattr(decomposer._State, "low_cols_dense",
                            tracked_low_cols_dense)
        monkeypatch.setattr(decomposer, "column_echelon",
                            tracked_column_echelon)
        repeated = 0
        for m in _pruning_corpus():
            del keys[:], echelons[:]
            versions.clear()
            decompose(m)
            assert len(echelons) == len({k for k in keys if k[2]})
            repeated += len(keys) - len(set(keys))
        assert repeated

    def test_merge_resets_derived_data(self):
        """A block's proper presentation and low columns are one object
        each until its next merge, and are then built anew with the
        merged rows and columns."""
        state = decomposer._State(join_pair_matrix(), True, True)
        state.begin_batch()
        proper = state.proper_matrix(0)
        low = state.low_cols_dense(0, (3, 3))
        assert state.proper_matrix(0) is proper
        assert state.low_cols_dense(0, (3, 3)) is low
        assert (proper.num_rows, proper.num_cols, low[1]) == (1, 0, [])
        state.merge([0, 1], [0])
        state.begin_batch()
        merged = state.proper_matrix(0)
        bu, cols, ech = state.low_cols_dense(0, (3, 3))
        assert merged is not proper
        assert (merged.num_rows, merged.num_cols, cols) == (2, 1, [0])
        # the same (empty) column set as before the merge, over both rows
        assert state.low_cols_dense(0, (1, 1))[0].shape == (2, 0)
        fresh = state.m.dense_slice([0, 1], [0])
        assert np.array_equal(merged.to_dense(), fresh)
        assert np.array_equal(bu, fresh)
        assert ech is not None
