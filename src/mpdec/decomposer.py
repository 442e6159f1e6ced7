"""Batch-wise decomposition of a graded presentation into indecomposables.

The main routine walks the column batches (maximal equal-degree groups) in a
linear extension of the product order. Within a batch it first sweeps each
pending column against the reduced low-degree columns of the blocks it
touches, then tries to zero each block's sub-batch outright, and finally
dispatches the surviving (blocks, columns) connected components to one of
two strategies: exhaustive subspace enumeration, or the digraph-driven
strategy with per-component enumeration plus cocycle clearing. The
interval_auto strategy runs the exhaustive path and reads the
interval-decomposability decision off the summands.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import blockreduce
from .fields import column_echelon, invert
from .grading import (
    GradedMatrix,
    TransformPair,
    _UnionFind,
    leq,
    minimize,
    sort_and_batch,
)
from .hom import (
    AlphaHomBasis,
    HomBasis,
    alpha_quotient,
    cokernel_at,
    hom_pairs,
)
from .intervals import check_interval, dimension_grid
from .subspaces import generate_dec


class DecompositionError(Exception):
    """Internal invariant violation during decomposition."""


# ---------------------------------------------------------------------------
# graph utilities


def strongly_connected_components(vertices, edges):
    """Tarjan's algorithm; returns SCCs as sorted vertex lists.

    Args:
        vertices: iterable of hashable vertex names.
        edges: dict vertex -> iterable of successor vertices.
    """
    index_counter = [0]
    stack = []
    lowlink = {}
    index = {}
    on_stack = set()
    result = []

    def strong_connect(node):
        index[node] = index_counter[0]
        lowlink[node] = index_counter[0]
        index_counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(edges.get(node, ())):
            if succ not in index:
                strong_connect(succ)
                lowlink[node] = min(lowlink[node], lowlink[succ])
            elif succ in on_stack:
                lowlink[node] = min(lowlink[node], index[succ])
        if lowlink[node] == index[node]:
            comp = []
            while True:
                succ = stack.pop()
                on_stack.remove(succ)
                comp.append(succ)
                if succ == node:
                    break
            result.append(sorted(comp))

    for v in sorted(vertices):
        if v not in index:
            strong_connect(v)
    return result


def condensation_order(vertices, edges):
    """SCCs of the digraph in a topological order, edge sources first.

    Returns:
        list of SCCs (sorted vertex lists); if an edge u -> v runs between
        two components, the component of u comes first. Ties are broken by
        smallest contained vertex.
    """
    sccs = strongly_connected_components(vertices, edges)
    comp_of = {}
    for ci, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = ci
    succs = {ci: set() for ci in range(len(sccs))}
    preds = {ci: 0 for ci in range(len(sccs))}
    for u, vs in edges.items():
        for v in vs:
            cu, cv = comp_of[u], comp_of[v]
            if cu != cv and cv not in succs[cu]:
                succs[cu].add(cv)
                preds[cv] += 1
    ready = sorted(
        (ci for ci in range(len(sccs)) if preds[ci] == 0),
        key=lambda ci: sccs[ci][0],
    )
    order = []
    while ready:
        ci = ready.pop(0)
        order.append(sccs[ci])
        changed = False
        for cv in succs[ci]:
            preds[cv] -= 1
            if preds[cv] == 0:
                ready.append(cv)
                changed = True
        if changed:
            ready.sort(key=lambda c: sccs[c][0])
    if len(order) != len(sccs):
        raise DecompositionError("condensation is not acyclic")
    return order


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
    """A row/column index pair presenting one (tentative) summand."""

    __slots__ = ("bid", "rows", "cols", "version")

    def __init__(self, bid: int, rows, cols):
        self.bid = bid
        self.rows = sorted(rows)
        self.cols = sorted(cols)
        self.version = 0

    def __repr__(self):
        return f"Block({self.bid}, rows={self.rows}, cols={self.cols})"


class _State:
    def __init__(self, m: GradedMatrix, strategy: str, use_sweep: bool,
                 use_homset: bool):
        self.m = m
        self.q = m.field.q
        self.strategy = strategy
        self.use_sweep = use_sweep
        self.use_homset = use_homset
        self.tp = TransformPair(m.num_rows, m.num_cols, m.field)
        # one block per generator to start with; block ids are row indices
        self.blocks = {i: Block(i, [i], []) for i in range(m.num_rows)}
        self.row_block = list(range(m.num_rows))
        self._hom_cache = {}
        self._alpha_cache = {}
        self._proper_cache = {}
        self._cok_cache = {}
        self.stats = {
            "k_max": 0,
            "kappa_max": 0,
            "subspace_iterations": 0,
            "hom_computations": 0,
            "sweep_ops": 0,
            "merges": 0,
        }

    # -- block views --------------------------------------------------------

    def proper_matrix(self, bid: int, alpha) -> GradedMatrix:
        b = self.blocks[bid]
        key = (bid, b.version, tuple(alpha))
        cached = self._proper_cache.get(key)
        if cached is None:
            cached = self.m.submatrix(b.rows, self.proper_cols(bid, alpha))
            self._proper_cache[key] = cached
        return cached

    def proper_cols(self, bid: int, alpha):
        b = self.blocks[bid]
        return [c for c in b.cols if self.m.col_degrees[c] != alpha]

    def support_blocks(self, cols):
        """Blocks owning a row with an entry in any of the given columns."""
        out = set()
        for j in cols:
            for i in self.m.columns[j]:
                out.add(self.row_block[i])
        return sorted(out)

    def low_cols_dense(self, bid: int, alpha):
        """Dense matrix of the block's columns of degree < alpha, over its rows."""
        b = self.blocks[bid]
        cols = [c for c in b.cols if leq(self.m.col_degrees[c], alpha)
                and self.m.col_degrees[c] != alpha]
        return self.m.dense_slice(b.rows, cols), cols

    # -- caches -------------------------------------------------------------

    def hom_between(self, src_bid: int, tgt_bid: int, alpha):
        """Raw morphism pair basis between the blocks' proper presentations."""
        bs, bt = self.blocks[src_bid], self.blocks[tgt_bid]
        key = (src_bid, bs.version, tgt_bid, bt.version, tuple(alpha))
        if key not in self._hom_cache:
            self.stats["hom_computations"] += 1
            self._hom_cache[key] = hom_pairs(
                self.proper_matrix(src_bid, alpha),
                self.proper_matrix(tgt_bid, alpha),
            )
        return self._hom_cache[key]

    def cok_at(self, bid: int, alpha):
        b = self.blocks[bid]
        key = (bid, b.version, tuple(alpha))
        if key not in self._cok_cache:
            self._cok_cache[key] = cokernel_at(self.proper_matrix(bid, alpha), alpha)
        return self._cok_cache[key]

    def alpha_reps(self, src_bid: int, tgt_bid: int, alpha):
        """Hom^alpha representative pairs (falls back to the raw basis)."""
        bs, bt = self.blocks[src_bid], self.blocks[tgt_bid]
        key = (src_bid, bs.version, tgt_bid, bt.version, tuple(alpha))
        if key not in self._alpha_cache:
            # without an admissible Q position every pair has Q = 0 and
            # vanishes at alpha
            if not any(
                leq(self.m.row_degrees[i], self.m.row_degrees[j])
                for i in bt.rows for j in bs.rows
            ):
                self._alpha_cache[key] = AlphaHomBasis([], [], 0)
                return self._alpha_cache[key]
            raw = self.hom_between(src_bid, tgt_bid, alpha)
            src = self.proper_matrix(src_bid, alpha)
            tgt = self.proper_matrix(tgt_bid, alpha)
            hb = HomBasis(raw, len(raw), len(raw))
            aq = alpha_quotient(
                hb, src, tgt, alpha,
                cok_src=self.cok_at(src_bid, alpha),
                cok_tgt=self.cok_at(tgt_bid, alpha),
            )
            self._alpha_cache[key] = aq
        return self._alpha_cache[key]

    def clear_sources(self, src_bid: int, tgt_bid: int, alpha):
        if self.use_homset:
            return self.alpha_reps(src_bid, tgt_bid, alpha).representatives
        return self.hom_between(src_bid, tgt_bid, alpha)

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
        b.version += 1
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
        old = [dict(self.m.columns[p]) for p in positions]
        for jc, p in enumerate(positions):
            new = {}
            for ic in range(len(positions)):
                c = int(t[ic, jc])
                if c == 0:
                    continue
                for i, v in old[ic].items():
                    nv = (new.get(i, 0) + c * v) % q
                    if nv:
                        new[i] = nv
                    elif i in new:
                        del new[i]
            self.m.columns[p] = new
        self.tp.col_transform(positions, t_inv)

    def apply_clear(self, tgt_bid, alpha, sources):
        """Apply the morphism-pair row additions of a solved clearing.

        The morphism pairs are taken between proper presentations (columns
        of degree other than alpha), so the compensating column additions
        restore every proper block exactly; only degree-alpha columns
        change.

        Args:
            tgt_bid: target block id.
            alpha: batch degree.
            sources: list of (src_bid, Qsum, Psum) morphism-pair sums.
        """
        tb = self.blocks[tgt_bid]
        tgt_proper = self.proper_cols(tgt_bid, alpha)
        for src_bid, qq, pp in sources:
            blockreduce.apply_hom_pair(
                self.m, self.tp, tb.rows, tgt_proper,
                self.blocks[src_bid].rows, self.proper_cols(src_bid, alpha),
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
# trial framework: dense slice copies plus an operation log, committed only
# when a subspace trial fully succeeds


class _Trial:
    def __init__(self, state: _State, bids, cols, alpha):
        self.state = state
        self.alpha = alpha
        self.cols = list(cols)
        self.slices = {
            b: state.m.dense_slice(state.blocks[b].rows, self.cols)
            for b in bids
        }
        self.log = []

    def snapshot(self):
        return {b: s.copy() for b, s in self.slices.items()}, len(self.log)

    def restore(self, snap):
        slices, n = snap
        self.slices = {b: s.copy() for b, s in slices.items()}
        del self.log[n:]

    def nonzero(self, bid, positions) -> bool:
        return bool(np.any(self.slices[bid][:, positions]))

    def coltrans(self, positions, t: np.ndarray):
        q = self.state.q
        for s in self.slices.values():
            s[:, positions] = (s[:, positions] @ t) % q
        self.log.append(("coltrans", list(positions), t.copy()))

    def clear(self, tgt_bid, positions, sources, u_mat, u_cols):
        """Record and simulate one clearing operation.

        Args:
            tgt_bid: target block.
            positions: local column positions being cleared.
            sources: list of (src_bid, Qsum, Psum).
            u_mat: (len(u_cols), len(positions)) combination of the target's
                low-degree columns, or None.
            u_cols: parent ids of those columns.
        """
        q = self.state.q
        for src_bid, qq, _ in sources:
            self.slices[tgt_bid] = (
                self.slices[tgt_bid] + qq @ self.slices[src_bid]
            ) % q
        if u_mat is not None and u_mat.size:
            bu = self.state.m.dense_slice(
                self.state.blocks[tgt_bid].rows, u_cols)
            self.slices[tgt_bid][:, positions] = (
                self.slices[tgt_bid][:, positions] + bu @ u_mat
            ) % q
        self.log.append(
            ("clear", tgt_bid, list(positions), sources,
             None if u_mat is None else u_mat.copy(), list(u_cols))
        )

    def col_ops(self, src_pos, dst_pos, s_mat):
        """Global column additions src_pos -> dst_pos on every slice."""
        q = self.state.q
        for s in self.slices.values():
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
                _, tgt_bid, positions, sources, u_mat, u_cols = op
                st.apply_clear(tgt_bid, self.alpha, sources)
                if u_mat is not None:
                    st.apply_col_solution(u_mat, u_cols,
                                          [self.cols[p] for p in positions])
        self.log = []


# ---------------------------------------------------------------------------
# clearing solves on trial slices


def _collect_lam_terms(state: _State, trial: _Trial, tgt_bid, positions,
                       source_bids, alpha):
    lam_terms, lam_meta = [], []
    for src in source_bids:
        if src == tgt_bid or not np.any(trial.slices[src]):
            continue
        for qq, pp in state.clear_sources(src, tgt_bid, alpha):
            a = (qq @ trial.slices[src][:, positions]) % state.q
            lam_terms.append((None, a))
            lam_meta.append((src, qq, pp))
    return lam_terms, lam_meta


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


def _try_clear_trial(state: _State, trial: _Trial, tgt_bid, positions,
                     source_bids, alpha):
    """Try to zero a target block's slice at the given column positions.

    Uses morphism-pair row additions from the given source blocks and
    column additions from the target's own columns of degree <= alpha.
    Returns True and records the operation on success.
    """
    c = trial.slices[tgt_bid][:, positions]
    if not np.any(c):
        return True
    lam_terms, lam_meta = _collect_lam_terms(
        state, trial, tgt_bid, positions, source_bids, alpha)
    bu, u_cols = state.low_cols_dense(tgt_bid, alpha)
    col_terms = [(None, bu)] if bu.shape[1] else []
    sol = blockreduce.solve_clear(
        [blockreduce.ClearTarget(c, lam_terms, col_terms)], state.q)
    if sol is None:
        return False
    [(lams, colvals)], _ = sol
    sources = _group_sources(lams, lam_meta, state.q)
    u_mat = colvals[0] if col_terms else None
    trial.clear(tgt_bid, positions, sources, u_mat, u_cols)
    if trial.nonzero(tgt_bid, positions):
        raise DecompositionError("solved clearing left a nonzero slice")
    return True


def _try_clear_joint(state: _State, trial: _Trial, tgt_bids, positions,
                     source_bids, alpha, s_pos):
    """Jointly zero several blocks' slices at `positions`.

    Row additions come from blocks outside tgt_bids only; one matrix of
    column additions from the columns at s_pos (applied to every block) is
    shared across the targets. Because every source block's s_pos slice is
    already zero, the recorded per-target clears and the single global
    column operation commute, so they can be applied in sequence.
    """
    src_pool = [b for b in source_bids if b not in set(tgt_bids)]
    targets, metas = [], []
    for tgt in tgt_bids:
        c = trial.slices[tgt][:, positions]
        lam_terms, lam_meta = _collect_lam_terms(
            state, trial, tgt, positions, src_pool, alpha)
        bu, u_cols = state.low_cols_dense(tgt, alpha)
        col_terms = [(None, bu)] if bu.shape[1] else []
        targets.append(blockreduce.ClearTarget(c, lam_terms, col_terms))
        metas.append((lam_meta, u_cols, bool(col_terms)))
    shared = None
    if len(s_pos):
        shared = [trial.slices[tgt][:, s_pos] for tgt in tgt_bids]
    sol = blockreduce.solve_clear(targets, state.q, shared=shared)
    if sol is None:
        return False
    per_target, s_val = sol
    for tgt, (lams, colvals), (lam_meta, u_cols, has_u) in zip(
            tgt_bids, per_target, metas):
        sources = _group_sources(lams, lam_meta, state.q)
        u_mat = colvals[0] if has_u else None
        if sources or (u_mat is not None and np.any(u_mat)):
            trial.clear(tgt, positions, sources, u_mat, u_cols)
    if s_val is not None and np.any(s_val):
        trial.col_ops(s_pos, positions, s_val)
    if any(trial.nonzero(t, positions) for t in tgt_bids):
        raise DecompositionError("solved joint clearing left a nonzero slice")
    return True


def _exhaustive_split(state: _State, trial: _Trial, bids, positions,
                      allow_detach: bool):
    """Recursively split (blocks, batch columns) into merge groups.

    Returns:
        (groups, detached): groups is a list of (block id set, local column
        position set) to be merged; detached lists positions whose slices
        vanished on every block in scope (only legal when allow_detach).
    """
    groups = []
    detached = []
    bids = sorted(bids)
    support = [np.any(trial.slices[b][:, positions], axis=0) for b in bids]
    for comp_bids, comp_pos in _support_components(bids, positions, support):
        if not comp_pos:
            continue  # blocks untouched by the batch stay as they are
        if not comp_bids:
            if allow_detach:
                detached.extend(comp_pos)
                continue
            raise DecompositionError(
                "batch column vanished on a minimal presentation"
            )
        g, d = _exhaustive_component(state, trial, comp_bids, comp_pos,
                                     allow_detach)
        groups.extend(g)
        detached.extend(d)
    return groups, detached


def _exhaustive_component(state: _State, trial: _Trial, bids, positions,
                          allow_detach: bool):
    """One connected component: iterate subspace pairs, else merge."""
    alpha = trial.alpha
    # per-block outright clears first; a success can split the component
    cleared_any = False
    for b in sorted(bids):
        if trial.nonzero(b, positions) and _try_clear_trial(
                state, trial, b, positions, bids, alpha):
            cleared_any = True
    if cleared_any:
        return _exhaustive_split(state, trial, bids, positions, allow_detach)
    k = len(positions)
    if k == 1:
        return [(set(bids), set(positions))], []
    for t1, t2 in generate_dec(k, state.q):
        state.stats["subspace_iterations"] += 1
        l = t1.shape[1]
        snap = trial.snapshot()
        tfull = np.hstack([t1, t2])
        trial.coltrans(positions, tfull)
        pos1 = positions[:l]
        pos2 = positions[l:]
        # step 1: clear each block's first-part slice where possible
        for b in sorted(bids):
            _try_clear_trial(state, trial, b, pos1, bids, alpha)
        b1 = [b for b in sorted(bids) if trial.nonzero(b, pos1)]
        if l and not b1:
            if allow_detach:
                groups, det = _exhaustive_split(state, trial, bids, pos2,
                                                allow_detach)
                return groups, det + list(pos1)
            raise DecompositionError(
                "batch columns vanished on a minimal presentation"
            )
        if len(b1) == len(bids):
            trial.restore(snap)
            continue
        # step 2: jointly clear the second part on the first-part blocks,
        # with shared column additions from the first-part columns
        if not _try_clear_joint(state, trial, b1, pos2, bids, alpha,
                                s_pos=pos1):
            trial.restore(snap)
            continue
        b2 = [b for b in bids if b not in set(b1)]
        g1, d1 = _exhaustive_split(state, trial, b1, pos1, allow_detach)
        g2, d2 = _exhaustive_split(state, trial, b2, pos2, allow_detach)
        return g1 + g2, d1 + d2
    return [(set(bids), set(positions))], []


# ---------------------------------------------------------------------------
# sweep


def _sweep_block(state: _State, bid, cols, alpha):
    """Reduce each pending column against the echelonized low-degree columns
    of one block (column operations only)."""
    q = state.q
    bu, u_cols = state.low_cols_dense(bid, alpha)
    if not bu.shape[1]:
        return
    e, piv, t = column_echelon(bu, q)
    sl = state.m.dense_slice(state.blocks[bid].rows, cols)
    for jc, j in enumerate(cols):
        v = sl[:, jc]
        if not np.any(v):
            continue
        combo = np.zeros(len(u_cols), dtype=np.int64)
        for cidx, p in enumerate(piv):
            if v[p]:
                coef = int(v[p]) % q
                v = (v - coef * e[:, cidx]) % q
                combo = (combo - coef * t[:, cidx]) % q
        state.stats["sweep_ops"] += state.apply_col_solution(
            combo.reshape(-1, 1), u_cols, [j])


# ---------------------------------------------------------------------------
# digraph strategy


def _cocycle_clear(state: _State, d, c, dcols, alpha, owned) -> bool:
    """Try to zero block c's rows inside block d's batch columns.

    Allowed operations: morphism-pair row additions d -> c, column additions
    from c's columns of degree <= alpha, and column additions from c's own
    batch columns into d's. Applied immediately on success.
    """
    q = state.q
    crows = state.blocks[c].rows
    cslice = state.m.dense_slice(crows, dcols)
    if not np.any(cslice):
        return True
    width = int(np.count_nonzero(np.any(cslice, axis=0)))
    state.stats["kappa_max"] = max(state.stats["kappa_max"], width)
    dslice = state.m.dense_slice(state.blocks[d].rows, dcols)
    lam_terms, lam_meta = [], []
    for qq, pp in state.clear_sources(d, c, alpha):
        lam_terms.append((None, (qq @ dslice) % q))
        lam_meta.append((d, qq, pp))
    # column sources: c's columns of degree < alpha, then c's batch columns
    col_terms, col_srcs = [], []
    bu, u_cols = state.low_cols_dense(c, alpha)
    if bu.shape[1]:
        col_terms.append((None, bu))
        col_srcs.append(u_cols)
    ccols = owned.get(c, [])
    v_src = state.m.dense_slice(crows, ccols)
    if np.any(v_src):
        col_terms.append((None, v_src))
        col_srcs.append(ccols)
    sol = blockreduce.solve_clear(
        [blockreduce.ClearTarget(cslice, lam_terms, col_terms)], q)
    if sol is None:
        return False
    [(lams, colvals)], _ = sol
    state.apply_clear(c, alpha, _group_sources(lams, lam_meta, q))
    for x, src_cols in zip(colvals, col_srcs):
        state.apply_col_solution(x, src_cols, dcols)
    if np.any(state.m.dense_slice(crows, dcols)):
        raise DecompositionError("cocycle clearing left a nonzero slice")
    return True


def _aida_component(state: _State, bids, cols, alpha):
    """Digraph strategy on one connected (blocks, batch columns) component.

    Blocks are grouped by the condensation of the Hom^alpha digraph and
    processed sources-first; each group runs the subspace enumeration only
    on itself against the still-pending columns, then the columns owned by
    earlier groups are cleared on the new rows or force eager merges.
    """
    q = state.q
    bids = sorted(bids)
    edges = {}
    for s in bids:
        for t in bids:
            if s != t and state.clear_sources(s, t, alpha):
                edges.setdefault(s, set()).add(t)
    order = condensation_order(bids, edges)

    alias = {}

    def resolve(b):
        while b in alias:
            b = alias[b]
        return b

    pending = sorted(cols)
    owned = {}
    processed = []
    for scc in order:
        scc_ids = sorted({resolve(b) for b in scc})
        if pending:
            trial = _Trial(state, scc_ids, pending, alpha)
            groups, detached = _exhaustive_split(
                state, trial, scc_ids, list(range(len(pending))), True)
            trial.commit()
            for gbids, gpos in groups:
                gcols = sorted(trial.cols[p] for p in gpos)
                keep = state.merge(sorted(gbids), gcols)
                for b in gbids:
                    if b != keep:
                        alias[b] = keep
                owned[keep] = sorted(owned.get(keep, []) + gcols)
            pending = sorted(trial.cols[p] for p in detached)
        cur = sorted({resolve(b) for b in scc_ids})
        work = list(processed)
        wi = 0
        while wi < len(work):
            d = work[wi]
            wi += 1
            if resolve(d) != d:
                continue
            dcols = owned.get(d, [])
            if not dcols:
                continue
            merged = False
            for c in list(cur):
                c = resolve(c)
                if c == d or c not in state.blocks:
                    continue
                if _cocycle_clear(state, d, c, dcols, alpha, owned):
                    continue
                keep = state.merge([d, c], [])
                loser = c if keep == d else d
                alias[loser] = keep
                owned[keep] = sorted(owned.pop(d, []) + owned.pop(c, []))
                cur = sorted({resolve(b) for b in cur} | {keep})
                work.append(keep)
                merged = True
                break
            if merged:
                continue
        processed.extend(sorted({resolve(b) for b in scc_ids}))
    if pending:
        raise DecompositionError(
            "batch columns left unassigned in a minimal presentation"
        )


# ---------------------------------------------------------------------------
# main routine


def _run_exhaustive(state: _State, bids, cols, alpha):
    trial = _Trial(state, sorted(bids), sorted(cols), alpha)
    groups, detached = _exhaustive_split(
        state, trial, sorted(bids), list(range(len(trial.cols))), False)
    if detached:
        raise DecompositionError(
            "batch column vanished on a minimal presentation"
        )
    trial.commit()
    for gbids, gpos in groups:
        state.merge(sorted(gbids), sorted(trial.cols[p] for p in gpos))


def _process_batch(state: _State, alpha, batch_cols):
    state.stats["k_max"] = max(state.stats["k_max"], len(batch_cols))
    cols = list(batch_cols)
    cand = state.support_blocks(cols)
    if state.use_sweep:
        for b in cand:
            _sweep_block(state, b, cols, alpha)
        cand = state.support_blocks(cols)
    if cand:
        # per-block outright clears before any strategy dispatch
        trial = _Trial(state, cand, cols, alpha)
        allpos = list(range(len(cols)))
        for b in cand:
            _try_clear_trial(state, trial, b, allpos, cand, alpha)
        trial.commit()
    cand = state.support_blocks(cols)
    support = [
        np.any(state.m.dense_slice(state.blocks[b].rows, cols), axis=0)
        for b in cand
    ]
    for gbids, gcols in _support_components(cand, cols, support):
        if not gcols:
            continue
        if not gbids:
            raise DecompositionError(
                "zero batch column in a minimal presentation"
            )
        if state.strategy == "aida":
            _aida_component(state, gbids, gcols, alpha)
        else:
            _run_exhaustive(state, gbids, gcols, alpha)


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
    kappa_max: int
    counters: dict
    timings: dict
    transform: TransformPair
    minimized_input: GradedMatrix
    matrix: GradedMatrix
    interval_decomposable: object = None
    warnings: list = dataclass_field(default_factory=list)

    @property
    def num_summands(self) -> int:
        return len(self.summands)

    def signature_multiset(self):
        return sorted(self.signatures)

    def verify(self) -> bool:
        """Certificate and block-structure soundness check (dense, test use)."""
        q = self.matrix.field.q
        if not self.transform.verify(self.minimized_input, self.matrix):
            return False
        if not self.transform.check_graded(
                self.minimized_input.row_degrees,
                self.minimized_input.col_degrees):
            return False
        if invert(self.transform.q_dense(), q) is None:
            return False
        if invert(self.transform.pinv_dense(), q) is None:
            return False
        seen_rows, seen_cols = set(), set()
        for rows, bcols in zip(self.block_rows, self.block_cols):
            rset = set(rows)
            for j in bcols:
                if any(i not in rset for i in self.matrix.columns[j]):
                    return False
            seen_rows.update(rows)
            seen_cols.update(bcols)
        if seen_rows != set(range(self.matrix.num_rows)):
            return False
        if seen_cols != set(range(self.matrix.num_cols)):
            return False
        return True


STRATEGIES = ("exhaustive", "aida", "interval_auto")


def decompose(m: GradedMatrix, strategy: str = "exhaustive",
              use_sweep: bool = True, use_homset: bool = True,
              verify: bool = False) -> DecompositionReport:
    """Decompose a graded presentation into indecomposable summands.

    Args:
        m: graded presentation matrix (minimized automatically if needed).
        strategy: "exhaustive" (subspace enumeration per component), "aida"
            (digraph condensation with per-group enumeration), or
            "interval_auto" (the exhaustive path, reporting whether every
            summand is an interval as interval_decomposable).
        use_sweep: reduce batch columns against low-degree block columns
            before any clearing.
        use_homset: restrict clearing to Hom^alpha representatives and build
            digraph edges from Hom^alpha (otherwise full Hom bases).
        verify: run the dense certificate check before returning.

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
    state = _State(minimized.copy(), strategy, use_sweep, use_homset)
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
        flags.append(check_interval(sub) is not None)
        brows.append(list(blk.rows))
        bcols.append(list(blk.cols))
    timings["signatures"] = time.perf_counter() - t2
    timings["total"] = time.perf_counter() - t0
    report = DecompositionReport(
        summands=summands,
        signatures=signatures,
        interval_flags=flags,
        block_rows=brows,
        block_cols=bcols,
        strategy=strategy,
        k_max=state.stats["k_max"],
        kappa_max=state.stats["kappa_max"],
        counters=dict(state.stats),
        timings=timings,
        transform=state.tp,
        minimized_input=minimized,
        matrix=state.m,
        interval_decomposable=(
            all(flags) if strategy == "interval_auto" else None),
        warnings=warnings,
    )
    if verify and not report.verify():
        raise DecompositionError("certificate verification failed")
    return report
