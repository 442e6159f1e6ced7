"""Batch-wise decomposition of a graded presentation into indecomposables.

The main routine walks the column batches (maximal equal-degree groups) in a
linear extension of the product order, and resolves each batch on one trial
(dense slices plus an operation log, committed once). It first sweeps each
pending column against the reduced low-degree columns of the blocks it
touches, then resolves each connected (blocks, columns) component on its
own, as the paper's AIDA does: it tries to zero each block's sub-batch
outright with sources from the component, and splits what survives by
subspace enumeration over the component's columns. Its cost is exponential
only in k, the width of the batch. Every summand also gets an interval
flag; interval_decomposable is their conjunction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import blockreduce
from .certificate import certificate_errors
from .fields import column_echelon, invert
from .grading import (
    GradedMatrix,
    TransformPair,
    _UnionFind,
    leq,
    minimize,
    sort_and_batch,
    sparse_combination,
)
# hom_pairs: perfbench/test_perfbench.py::
# test_tracer_reaches_every_binding_and_restores_it checks this binding
from .hom import BlockHom, hom_pairs  # noqa: F401
from .intervals import check_interval, dimension_grid
from .subspaces import generate_dec


class DecompositionError(Exception):
    """Internal invariant violation during decomposition."""


# ---------------------------------------------------------------------------
# graph utilities


def _support_components(bids, cols, support):
    """Connected components of the bipartite block/column support graph.

    Args:
        bids: block ids.
        cols: column labels.
        support: one boolean row per block, True where the block has an
            entry in the column at that position.

    Returns:
        list of (sorted block ids, sorted columns), one per component, in
        order of first appearance over bids and then cols.
    """
    nb = len(bids)
    uf = _UnionFind(nb + len(cols))
    for a, row in enumerate(support):
        for c in np.flatnonzero(row):
            uf.union(a, nb + int(c))
    groups = {}
    for x in range(nb + len(cols)):
        groups.setdefault(uf.find(x), ([], []))
    for a, b in enumerate(bids):
        groups[uf.find(a)][0].append(b)
    for c, j in enumerate(cols):
        groups[uf.find(nb + c)][1].append(j)
    return [(sorted(gb), sorted(gc)) for gb, gc in groups.values()]


# ---------------------------------------------------------------------------
# state


class Block:
    """A row/column index pair presenting one (tentative) summand, with its
    proper presentation and low-column slices (_State.proper_matrix,
    low_cols_dense), which merge resets."""

    __slots__ = ("bid", "rows", "cols", "proper", "low")

    def __init__(self, bid: int, rows, cols):
        self.bid = bid
        self.rows = sorted(rows)
        self.cols = sorted(cols)
        self.proper = None
        self.low = {}

    def __repr__(self):
        return f"Block({self.bid}, rows={self.rows}, cols={self.cols})"


class _State:
    def __init__(self, m: GradedMatrix, use_sweep: bool, use_homset: bool):
        self.m = m
        self.q = m.field.q
        self.use_sweep = use_sweep
        self.hom = BlockHom(use_homset)
        self.tp = TransformPair(m.num_rows, m.num_cols, m.field)
        # one block per generator to start with; block ids are row indices
        self.blocks = {i: Block(i, [i], []) for i in range(m.num_rows)}
        self.row_block = list(range(m.num_rows))
        # blocks that received columns of the batch in progress
        self._holds_batch = set()
        self.stats = {
            "k_max": 0,
            "subspace_iterations": 0,
            "hom_computations": 0,
            "sweep_ops": 0,
            "merges": 0,
        }

    # -- block views --------------------------------------------------------

    def proper_cols(self, bid: int):
        """The block's columns, none of which has the batch degree.

        A block gets columns of the batch in progress only when its
        component is merged, and no later query of that batch touches it:
        the components are disjoint. So every column of a queried block is
        proper, and its proper presentation changes only at a merge.
        """
        if bid in self._holds_batch:
            raise DecompositionError(
                f"block {bid} already owns a column of the batch in progress")
        return self.blocks[bid].cols

    def proper_matrix(self, bid: int) -> GradedMatrix:
        """The block's proper presentation: one object until its next merge."""
        b = self.blocks[bid]
        if b.proper is None:
            b.proper = self.m.submatrix(b.rows, self.proper_cols(bid))
        return b.proper

    def support_blocks(self, cols):
        """Blocks owning a row with an entry in any of the given columns."""
        out = set()
        for j in cols:
            for i in self.m.columns[j]:
                out.add(self.row_block[i])
        return sorted(out)

    def low_cols_dense(self, bid: int, alpha):
        """The block's columns of degree < alpha: (dense matrix over its
        rows, parent ids, column_echelon of the matrix or None).

        Built once per column set until the block's next merge: proper
        columns change only there. The echelon form is built only for the
        sweep, and only if there is a column.
        """
        b = self.blocks[bid]
        cols = [c for c in self.proper_cols(bid)
                if leq(self.m.col_degrees[c], alpha)]
        key = tuple(cols)
        low = b.low.get(key)
        if low is None:
            bu = self.m.dense_slice(b.rows, cols)
            ech = None
            if cols and self.use_sweep:
                ech = column_echelon(bu, self.q)
            low = b.low[key] = (bu, cols, ech)
        return low

    def clear_sources(self, src_bid: int, tgt_bid: int, alpha):
        return self.hom.sources(self.proper_matrix(src_bid),
                                self.proper_matrix(tgt_bid), alpha)

    def begin_batch(self):
        """Start a batch: no block holds its columns yet, and the Hom data
        of the previous batch degree is dropped."""
        self._holds_batch.clear()
        self.hom.new_batch()

    # -- structure updates --------------------------------------------------

    def merge(self, bids, cols) -> int:
        """Merge blocks and assign the given batch columns; returns new bid."""
        bids = sorted(set(bids))
        keep = bids[0]
        b = self.blocks[keep]
        for other in bids[1:]:
            ob = self.blocks.pop(other)
            b.rows = sorted(b.rows + ob.rows)
            b.cols = sorted(b.cols + ob.cols)
            for r in ob.rows:
                self.row_block[r] = keep
        for c in cols:
            if c not in b.cols:
                b.cols = sorted(b.cols + [c])
        if cols:
            self._holds_batch.add(keep)
        b.proper, b.low = None, {}
        if len(bids) > 1:
            self.stats["merges"] += 1
        return keep

    # -- physical operations ------------------------------------------------

    def apply_coltrans(self, positions, t: np.ndarray):
        """Replace the columns at `positions` by their product with t."""
        q = self.q
        t = np.asarray(t, dtype=np.int64) % q
        t_inv = invert(t, q)
        if t_inv is None:
            raise DecompositionError("batch column transform not invertible")
        old = [self.m.columns[p] for p in positions]
        for jc, p in enumerate(positions):
            self.m.columns[p] = sparse_combination(
                {ic: int(c) for ic, c in enumerate(t[:, jc]) if c}, old, q)
        self.tp.col_transform(positions, t_inv)

    def apply_clear(self, tgt_bid, sources):
        """Apply the morphism-pair row additions of a solved clearing.

        The morphism pairs are taken between proper presentations, so the
        compensating column additions restore every proper block exactly;
        only batch columns change.

        Args:
            tgt_bid: target block id.
            sources: list of (src_bid, Qsum, Psum) morphism-pair sums.
        """
        tgt_proper = self.proper_cols(tgt_bid)
        for src_bid, qq, pp in sources:
            blockreduce.apply_hom_pair(
                self.m, self.tp, self.blocks[tgt_bid].rows, tgt_proper,
                self.blocks[src_bid].rows, self.proper_cols(src_bid),
                qq, pp,
            )

    def apply_col_solution(self, x: np.ndarray, src_cols, dst_cols) -> int:
        """Column dst_cols[j] += sum over a of x[a, j] * column src_cols[a].

        Returns:
            the number of destination columns that received an addition.
        """
        changed = 0
        for jc, dst in enumerate(dst_cols):
            combo = [
                (src_cols[a], int(x[a, jc])) for a in range(len(src_cols))
                if x[a, jc] % self.q
            ]
            if combo:
                blockreduce.apply_col_combo(self.m, self.tp, dst, combo)
                changed += 1
        return changed


# ---------------------------------------------------------------------------
# trial framework: dense slice copies plus an operation log, committed once
# per batch; snapshots undo the subspace trials that fail


class _Trial:
    """Dense slices of the batch's blocks plus the operation log.

    A subspace trial acts on one component only: blocks outside it are
    zero at its positions, so coltrans, col_ops, snapshot and restore take
    the component's blocks. `low` maps each block the batch touches to its
    low_cols_dense, built once: no low column changes before the commit.
    `failed` holds the blocks whose single-target clear failed since the
    last coltrans (_clear_block); `unreduced` the blocks whose slice a
    clear may have left unreduced against their low columns (_try_clear).
    """

    def __init__(self, state: _State, slices, low, cols, alpha):
        self.state = state
        self.alpha = alpha
        self.cols = list(cols)
        self.slices = slices
        self.low = low
        self.log = []
        self.failed = set()
        self.unreduced = set()

    def snapshot(self, bids):
        return ({b: self.slices[b].copy() for b in bids}, len(self.log),
                set(self.failed), set(self.unreduced))

    def restore(self, snap):
        slices, n, self.failed, self.unreduced = snap
        self.slices.update(slices)
        del self.log[n:]

    def nonzero(self, bid, positions) -> bool:
        return bool(self.slices[bid][:, positions].any())

    def coltrans(self, bids, positions, t: np.ndarray):
        q = self.state.q
        for b in bids:
            s = self.slices[b]
            s[:, positions] = (s[:, positions] @ t) % q
        self.failed.clear()
        self.log.append(("coltrans", list(positions), t.copy()))

    def clear(self, tgt_bid, positions, sources, u_mat):
        """Record and simulate one clearing operation.

        Args:
            tgt_bid: target block.
            positions: local column positions being cleared.
            sources: list of (src_bid, Qsum, Psum).
            u_mat: (f, len(positions)) combination of the target's f
                low-degree columns (self.low).
        """
        q = self.state.q
        partial = len(positions) < len(self.cols)
        for src_bid, qq, _ in sources:
            add = qq @ self.slices[src_bid]
            # a source entry outside `positions` lands unreduced
            if partial and (np.delete(add, positions, axis=1) % q).any():
                self.unreduced.add(tgt_bid)
            self.slices[tgt_bid] = (self.slices[tgt_bid] + add) % q
        self.slices[tgt_bid][:, positions] = (
            self.slices[tgt_bid][:, positions] + self.low[tgt_bid][0] @ u_mat
        ) % q
        self.log.append(("clear", tgt_bid, list(positions), sources, u_mat))

    def col_ops(self, bids, src_pos, dst_pos, s_mat):
        """Column additions src_pos -> dst_pos on the slices of bids."""
        q = self.state.q
        for b in bids:
            s = self.slices[b]
            s[:, dst_pos] = (s[:, dst_pos] + s[:, src_pos] @ s_mat) % q
        self.log.append(("colops", list(src_pos), list(dst_pos), s_mat.copy()))

    def commit(self):
        st = self.state
        for op in self.log:
            if op[0] == "coltrans":
                _, positions, t = op
                st.apply_coltrans([self.cols[p] for p in positions], t)
            elif op[0] == "colops":
                _, src_pos, dst_pos, s_mat = op
                st.apply_col_solution(s_mat, [self.cols[p] for p in src_pos],
                                      [self.cols[p] for p in dst_pos])
            else:
                _, tgt_bid, positions, sources, u_mat = op
                st.apply_clear(tgt_bid, sources)
                st.apply_col_solution(u_mat, self.low[tgt_bid][1],
                                      [self.cols[p] for p in positions])
        self.log = []


# ---------------------------------------------------------------------------
# clearing solves on trial slices


def _lam_terms(state: _State, trial: _Trial, tgt_bid, positions,
               source_bids, alpha):
    """Yield (A, (src, Q, P)) per morphism pair of each source block whose
    slice is nonzero, in order; a source is queried only when reached."""
    for src in source_bids:
        if not trial.slices[src].any():
            continue
        for qq, pp in state.clear_sources(src, tgt_bid, alpha):
            yield ((qq @ trial.slices[src][:, positions]) % state.q,
                   (src, qq, pp))


def _group_sources(lams, lam_meta, q):
    """Sum the chosen scalar multiples of morphism pairs per source block."""
    by_src = {}
    for lv, (src, qq, pp) in zip(lams, lam_meta):
        lv = int(lv) % q
        if lv == 0:
            continue
        acc = by_src.setdefault(src, [None, None])
        acc[0] = (lv * qq) % q if acc[0] is None else (acc[0] + lv * qq) % q
        acc[1] = (lv * pp) % q if acc[1] is None else (acc[1] + lv * pp) % q
    return [(src, qp[0], qp[1]) for src, qp in sorted(by_src.items())]


def _try_clear(state: _State, trial: _Trial, tgt_bids, positions,
               source_bids, alpha, s_pos=()):
    """Try to zero the target blocks' slices at `positions` jointly.

    Each target takes morphism-pair row additions from the source blocks
    outside tgt_bids and column additions from its own columns of degree
    <= alpha. With s_pos, one matrix of column additions from the columns
    at s_pos (applied to every block) is shared across the targets; since
    every source block's s_pos slice is already zero, the recorded
    per-target clears and the single global column operation commute, so
    they can be applied in sequence. Returns True and records the
    operations on success. A one-entry system is solved in closed form
    (blockreduce.solve_one_entry), which reads the sources lazily.

    Without s_pos and after the sweep, a nonzero target that no source
    reaches fails at once: the sweep leaves every slice column zero at the
    pivot rows of the echelon form of the block's low columns (_sweep_block),
    and a nonzero vector in the span of those columns is nonzero at some
    pivot row, so c + bu @ U = 0 has no solution. coltrans, col_ops and
    the column additions of a clear keep that; a clear's row additions
    keep it only at the positions they zero, so a target they reached
    elsewhere (trial.unreduced) is solved in full.
    """
    cs = [trial.slices[tgt][:, positions] for tgt in tgt_bids]
    if not any(map(np.ndarray.any, cs)):
        return True
    tgt_set = set(tgt_bids)
    src_pool = [b for b in source_bids if b not in tgt_set]
    if len(tgt_bids) == 1 and not len(s_pos) and cs[0].size == 1:
        tgt = tgt_bids[0]
        sol = blockreduce.solve_one_entry(
            int(cs[0][0, 0]),
            _lam_terms(state, trial, tgt, positions, src_pool, alpha),
            trial.low[tgt][0], state.m.field)
        if sol is None:
            return False
        lams, lam_meta, u_mat = sol
        trial.clear(tgt, positions, _group_sources(lams, lam_meta, state.q),
                    u_mat)
        return _check_cleared(trial, tgt_bids, positions)
    targets, metas = [], []
    for tgt, c in zip(tgt_bids, cs):
        terms = list(_lam_terms(state, trial, tgt, positions, src_pool, alpha))
        lam_terms = [a for a, _ in terms]
        lam_meta = [meta for _, meta in terms]
        if (state.use_sweep and not len(s_pos) and c.any()
                and tgt not in trial.unreduced
                and not any(a.any() for a in lam_terms)):
            return False
        targets.append(
            blockreduce.ClearTarget(c, lam_terms, trial.low[tgt][0]))
        metas.append(lam_meta)
    shared = None
    if len(s_pos):
        shared = [trial.slices[tgt][:, s_pos] for tgt in tgt_bids]
    sol = blockreduce.solve_clear(targets, state.q, shared=shared)
    if sol is None:
        return False
    per_target, s_val = sol
    for tgt, (lams, u_mat), lam_meta in zip(tgt_bids, per_target, metas):
        sources = _group_sources(lams, lam_meta, state.q)
        if sources or u_mat.any():
            trial.clear(tgt, positions, sources, u_mat)
    if s_val is not None and s_val.any():
        trial.col_ops(source_bids, s_pos, positions, s_val)
    return _check_cleared(trial, tgt_bids, positions)


def _check_cleared(trial: _Trial, tgt_bids, positions) -> bool:
    """True once every target's slice at `positions` is zero; else raise."""
    for tgt in tgt_bids:
        if trial.nonzero(tgt, positions):
            raise DecompositionError("solved clearing left a nonzero slice")
    return True


def _clear_block(state: _State, trial: _Trial, bid, positions, source_bids):
    """Outright clear of one block at `positions`; no retry after a failure.

    A block whose clear failed since the last coltrans is not tried again:
    every later single-block clear of it before the next coltrans has
    positions that cover its support and sources that are a subset of the
    failed one's, each with its slice unchanged or zeroed there. So any
    solution of the retry, padded with zeros, would have solved the
    failed system.
    """
    if bid in trial.failed:
        return False
    if _try_clear(state, trial, [bid], positions, source_bids, trial.alpha):
        return True
    trial.failed.add(bid)
    return False


def _exhaustive_split(state: _State, trial: _Trial, bids, positions):
    """Recursively split (blocks, batch columns) into merge groups.

    Returns:
        list of (block id set, local column position set), one per group
        to be merged.
    """
    groups = []
    bids = sorted(bids)
    support = [np.any(trial.slices[b][:, positions], axis=0) for b in bids]
    for comp_bids, comp_pos in _support_components(bids, positions, support):
        if not comp_pos:
            continue  # blocks untouched by the batch stay as they are
        if not comp_bids:
            raise DecompositionError(
                "batch column vanished on a minimal presentation"
            )
        groups.extend(
            _exhaustive_component(state, trial, comp_bids, comp_pos))
    return groups


def _exhaustive_component(state: _State, trial: _Trial, bids, positions):
    """One connected component: iterate subspace pairs, else merge."""
    alpha = trial.alpha
    # per-block outright clears first; a success can split the component
    cleared_any = False
    for b in sorted(bids):
        if trial.nonzero(b, positions) and _clear_block(
                state, trial, b, positions, bids):
            cleared_any = True
    if cleared_any:
        return _exhaustive_split(state, trial, bids, positions)
    k = len(positions)
    if k == 1:
        return [(set(bids), set(positions))]
    for t1, t2 in generate_dec(k, state.q):
        state.stats["subspace_iterations"] += 1
        l = t1.shape[1]
        snap = trial.snapshot(bids)
        tfull = np.hstack([t1, t2])
        trial.coltrans(bids, positions, tfull)
        pos1 = positions[:l]
        pos2 = positions[l:]
        # step 1: clear each block's first-part slice where possible
        for b in sorted(bids):
            _clear_block(state, trial, b, pos1, bids)
        b1 = [b for b in sorted(bids) if trial.nonzero(b, pos1)]
        if l and not b1:
            raise DecompositionError(
                "batch columns vanished on a minimal presentation"
            )
        if len(b1) == len(bids):
            trial.restore(snap)
            continue
        # step 2: jointly clear the second part on the first-part blocks,
        # with shared column additions from the first-part columns
        if not _try_clear(state, trial, b1, pos2, bids, alpha, s_pos=pos1):
            trial.restore(snap)
            continue
        b2 = [b for b in bids if b not in set(b1)]
        return (_exhaustive_split(state, trial, b1, pos1)
                + _exhaustive_split(state, trial, b2, pos2))
    return [(set(bids), set(positions))]


# ---------------------------------------------------------------------------
# sweep


def _sweep_block(state: _State, sl, cols, low):
    """Reduce the pending columns against the echelonized low-degree columns
    of one block (low_cols_dense), by column operations only.

    The block's dense slice sl of the pending columns is reduced in place:
    afterwards it is zero at every pivot row of the echelon form. The
    echelon form is the identity at its pivot rows, so the coefficients of
    a column are its entries there, and one product reduces all columns.
    """
    _, u_cols, ech = low
    if ech is None:
        return
    q = state.q
    e, piv, t = ech
    r = len(piv)
    c = sl[piv]
    sl[...] = (sl - e[:, :r] @ c) % q
    state.stats["sweep_ops"] += state.apply_col_solution(
        (-t[:, :r] @ c) % q, u_cols, cols)


# ---------------------------------------------------------------------------
# main routine


def _process_batch(state: _State, alpha, batch_cols):
    """Sweep, resolve each (blocks, columns) component on its own
    (_exhaustive_split), and commit once.

    Each clear draws its sources from the target's own component. That is
    exact: a source outside it is zero on the component's columns, so the
    system splits into one part per component. Components are disjoint in
    rows and batch columns, so committing them together equals committing
    them one at a time.
    """
    state.stats["k_max"] = max(state.stats["k_max"], len(batch_cols))
    state.begin_batch()
    cols = list(batch_cols)
    low = {b: state.low_cols_dense(b, alpha)
           for b in state.support_blocks(cols)}
    slices = {}
    for b, lo in low.items():
        sl = state.m.dense_slice(state.blocks[b].rows, cols)
        if state.use_sweep:
            _sweep_block(state, sl, cols, lo)
        if sl.any():
            slices[b] = sl
    trial = _Trial(state, slices, low, cols, alpha)
    groups = _exhaustive_split(state, trial, list(slices),
                               list(range(len(cols))))
    trial.commit()
    for gbids, gpos in groups:
        state.merge(sorted(gbids), sorted(cols[p] for p in gpos))


def summand_signature(m: GradedMatrix):
    """Isomorphism-separating signature of a minimal presentation.

    Sorted generator degrees, sorted relation degrees, and the dimension
    vector of the cokernel on the grid spanned by the presentation's own
    degrees plus one sentinel value per axis (intervals.dimension_grid, in
    row-major order).
    """
    _, dims = dimension_grid(m)
    return (tuple(sorted(m.row_degrees)), tuple(sorted(m.col_degrees)),
            tuple(dims.ravel().tolist()))


@dataclass
class DecompositionReport:
    """Result of a decomposition run."""

    summands: list
    signatures: list
    interval_flags: list
    block_rows: list
    block_cols: list
    strategy: str
    k_max: int
    counters: dict
    timings: dict
    transform: TransformPair
    minimized_input: GradedMatrix
    matrix: GradedMatrix
    interval_decomposable: bool
    warnings: list = dataclass_field(default_factory=list)

    @property
    def num_summands(self) -> int:
        return len(self.summands)

    def signature_multiset(self):
        return sorted(self.signatures)

    def verify(self) -> bool:
        """Sparse certificate check (mpdec.certificate)."""
        return not certificate_errors(self.minimized_input, self.matrix,
                                      self.transform, self.block_rows,
                                      self.block_cols)


STRATEGIES = ("exhaustive", "aida", "interval_auto")


def decompose(m: GradedMatrix, strategy: str = "exhaustive",
              use_sweep: bool = True, use_homset: bool = True,
              verify: bool = False) -> DecompositionReport:
    """Decompose a graded presentation into indecomposable summands.

    Args:
        m: graded presentation matrix (minimized automatically if needed).
        strategy: "exhaustive", "aida" or "interval_auto". Accepted for
            compatibility and echoed in the report: all three run the same
            path. Any other name raises ValueError.
        use_sweep: reduce batch columns against low-degree block columns
            before any clearing.
        use_homset: restrict clearing to Hom^alpha representatives
            (otherwise full Hom bases).
        verify: run the certificate check before returning.

    Returns:
        DecompositionReport with one minimal presentation per summand.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    m.validate()
    warnings = []
    timings = {}
    t0 = time.perf_counter()
    minimized, mrep = minimize(m)
    timings["minimize"] = time.perf_counter() - t0
    if mrep["cancelled_pairs"] or mrep["deleted_columns"]:
        warnings.append(
            "input presentation was not minimal: cancelled "
            f"{len(mrep['cancelled_pairs'])} pair(s), deleted "
            f"{mrep['deleted_columns']} redundant column(s)"
        )
    state = _State(minimized.copy(), use_sweep, use_homset)
    t1 = time.perf_counter()
    for alpha, cols in sort_and_batch(state.m):
        _process_batch(state, alpha, cols)
    timings["reduce"] = time.perf_counter() - t1
    t2 = time.perf_counter()
    summands, signatures, flags, brows, bcols = [], [], [], [], []
    for bid in sorted(state.blocks):
        blk = state.blocks[bid]
        sub = state.m.submatrix(blk.rows, blk.cols)
        summands.append(sub)
        signatures.append(summand_signature(sub))
        flags.append(check_interval(sub, dims=signatures[-1][2]) is not None)
        brows.append(list(blk.rows))
        bcols.append(list(blk.cols))
    timings["signatures"] = time.perf_counter() - t2
    timings["total"] = time.perf_counter() - t0
    state.stats["hom_computations"] = state.hom.computations
    report = DecompositionReport(
        summands=summands,
        signatures=signatures,
        interval_flags=flags,
        block_rows=brows,
        block_cols=bcols,
        strategy=strategy,
        k_max=state.stats["k_max"],
        counters=dict(state.stats),
        timings=timings,
        transform=state.tp,
        minimized_input=minimized,
        matrix=state.m,
        interval_decomposable=all(flags),
        warnings=warnings,
    )
    errors = verify and certificate_errors(minimized, state.m, state.tp,
                                           brows, bcols)
    if errors:
        raise DecompositionError(
            f"certificate verification failed: {errors[0]}")
    return report
