"""Hom-spaces between block presentations and their localization at a degree.

A morphism between the modules presented by M_src and M_tgt is represented
by a pair (Q, P) of graded matrices with Q . M_src = M_tgt . P. The full
solution space of that system overcounts: pairs of the form
(M_tgt . S, S . M_src + P0) with M_tgt . P0 = 0 induce the zero map. The
reported Hom dimension quotients those out; the localized space Hom^alpha
keeps only classes whose induced map on cokernels at degree alpha is
nonzero. BlockHom finds and caches the pairs the decomposer's clears use.
"""

from __future__ import annotations

import numpy as np

from .fields import column_echelon, kernel_basis, rank
from .grading import GradedMatrix, leq


class HomBasis:
    """Basis of the (Q, P) pair space between two presentations.

    Attributes:
        pairs: list of (Q, P) dense arrays, a basis of the full solution
            space over graded positions.
        raw_dim: len(pairs).
        dim: dimension of the morphism space (raw_dim minus the span of
            zero-inducing pairs).
    """

    def __init__(self, pairs, raw_dim: int, dim: int):
        self.pairs = pairs
        self.raw_dim = raw_dim
        self.dim = dim


class AlphaHomBasis:
    """Pairs of a HomBasis whose images at alpha form a basis of Hom^alpha.

    Attributes:
        representatives: list of (Q, P) pairs.
        dim: len(representatives), that is dim Hom^alpha.
    """

    def __init__(self, representatives, dim: int):
        self.representatives = representatives
        self.dim = dim


def _admissible_positions(tgt_degs, src_degs):
    return [
        (i, j)
        for i in range(len(tgt_degs))
        for j in range(len(src_degs))
        if leq(tgt_degs[i], src_degs[j])
    ]


def hom_pairs(src: GradedMatrix, tgt: GradedMatrix):
    """Raw basis of {(Q, P) graded : Q . M_src = M_tgt . P}.

    Returns:
        list of (Q, P) with Q of shape (tgt rows, src rows) and P of shape
        (tgt cols, src cols).
    """
    q = src.field.q
    ms = src.to_dense()
    mt = tgt.to_dense()
    mt_rows, ms_rows = tgt.num_rows, src.num_rows
    mt_cols, ms_cols = tgt.num_cols, src.num_cols
    qpos = _admissible_positions(tgt.row_degrees, src.row_degrees)
    ppos = _admissible_positions(tgt.col_degrees, src.col_degrees)
    nvar = len(qpos) + len(ppos)
    neq = mt_rows * ms_cols
    a = np.zeros((neq, nvar), dtype=np.int64)
    for v, (i, j) in enumerate(qpos):
        # (Q . M_src)[i, r] picks up Q[i, j] * M_src[j, r]
        for r in range(ms_cols):
            if ms[j, r]:
                a[i * ms_cols + r, v] = ms[j, r]
    off = len(qpos)
    for v, (i, j) in enumerate(ppos):
        # -(M_tgt . P)[t, j] picks up -M_tgt[t, i] * P[i, j]
        for t in range(mt_rows):
            if mt[t, i]:
                a[t * ms_cols + j, off + v] = (-mt[t, i]) % q
    kb = kernel_basis(a, q)
    pairs = []
    for c in range(kb.shape[1]):
        qq = np.zeros((mt_rows, ms_rows), dtype=np.int64)
        pp = np.zeros((mt_cols, ms_cols), dtype=np.int64)
        for v, (i, j) in enumerate(qpos):
            qq[i, j] = kb[v, c]
        for v, (i, j) in enumerate(ppos):
            pp[i, j] = kb[off + v, c]
        pairs.append((qq, pp))
    return pairs


def _trivial_pair_generators(src: GradedMatrix, tgt: GradedMatrix):
    """Spanning set of the zero-inducing pairs (M_tgt.S, S.M_src + P0)."""
    q = src.field.q
    ms = src.to_dense()
    mt = tgt.to_dense()
    gens = []
    for i in range(tgt.num_cols):
        for j in range(src.num_rows):
            if not leq(tgt.col_degrees[i], src.row_degrees[j]):
                continue
            qq = np.zeros((tgt.num_rows, src.num_rows), dtype=np.int64)
            qq[:, j] = mt[:, i]
            pp = np.zeros((tgt.num_cols, src.num_cols), dtype=np.int64)
            pp[i, :] = ms[j, :]
            gens.append((qq % q, pp % q))
    # graded kernel elements of M_tgt, one per source column degree
    for r in range(src.num_cols):
        allowed = [
            i for i in range(tgt.num_cols)
            if leq(tgt.col_degrees[i], src.col_degrees[r])
        ]
        if not allowed:
            continue
        kb = kernel_basis(mt[:, allowed], q)
        for c in range(kb.shape[1]):
            pp = np.zeros((tgt.num_cols, src.num_cols), dtype=np.int64)
            for a_i, i in enumerate(allowed):
                pp[i, r] = kb[a_i, c]
            gens.append((np.zeros((tgt.num_rows, src.num_rows), dtype=np.int64), pp))
    return gens


def _flatten_pairs(pairs):
    if not pairs:
        return np.zeros((0, 0), dtype=np.int64)
    return np.stack([np.concatenate([qq.ravel(), pp.ravel()]) for qq, pp in pairs])


def hom_space(src: GradedMatrix, tgt: GradedMatrix) -> HomBasis:
    """Hom between the modules presented by src and tgt (src first)."""
    q = src.field.q
    pairs = hom_pairs(src, tgt)
    raw_dim = len(pairs)
    triv = _trivial_pair_generators(src, tgt)
    triv_dim = rank(_flatten_pairs(triv).T, q) if triv else 0
    return HomBasis(pairs, raw_dim, raw_dim - triv_dim)


class CokernelBasisAtAlpha:
    """Data of (coker M)_alpha from the column-reduced M^{<=alpha}.

    The cokernel basis is the standard basis on the non-pivot rows; reduce()
    maps a vector on the rows of degree <= alpha to those coordinates.
    """

    def __init__(self, m: GradedMatrix, alpha):
        sub, row_ids, col_ids = m.restrict_leq(alpha)
        self.row_ids = row_ids
        self.alpha = tuple(alpha)
        self.q = m.field.q
        dense = sub.to_dense()
        self.echelon, self.pivots, _ = column_echelon(dense, self.q)
        piv_set = set(self.pivots)
        self.nonpivot = [i for i in range(len(row_ids)) if i not in piv_set]
        self.parent_nonpivot = [row_ids[i] for i in self.nonpivot]
        self.dim = len(self.nonpivot)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of v (on rows <= alpha) in the cokernel basis."""
        v = np.array(v, dtype=np.int64, copy=True) % self.q
        for c, p in enumerate(self.pivots):
            if v[p]:
                v = (v - v[p] * self.echelon[:, c]) % self.q
        return v[self.nonpivot]


def cokernel_at(m: GradedMatrix, alpha) -> CokernelBasisAtAlpha:
    return CokernelBasisAtAlpha(m, alpha)


def induced_at_alpha(qq: np.ndarray, src: GradedMatrix, tgt: GradedMatrix,
                     cok_src: CokernelBasisAtAlpha,
                     cok_tgt: CokernelBasisAtAlpha) -> np.ndarray:
    """Matrix of the map (coker src)_alpha -> (coker tgt)_alpha induced by Q."""
    out = np.zeros((cok_tgt.dim, cok_src.dim), dtype=np.int64)
    for c, src_row in enumerate(cok_src.parent_nonpivot):
        w = qq[cok_tgt.row_ids, src_row]
        out[:, c] = cok_tgt.reduce(w)
    return out


def _generator_alive_at(m: GradedMatrix, alpha) -> bool:
    """Whether a one-generator presentation has a nonzero cokernel at alpha.

    That holds when the generator lies below alpha and no relation below
    alpha has an entry in its row.
    """
    return leq(m.row_degrees[0], alpha) and not any(
        col and leq(deg, alpha)
        for col, deg in zip(m.columns, m.col_degrees)
    )


def alpha_quotient(pairs, src: GradedMatrix, tgt: GradedMatrix,
                   alpha, cok_src=None, cok_tgt=None) -> AlphaHomBasis:
    """Pick the (Q, P) pairs whose induced maps at alpha are linearly
    independent, greedily in list order.

    Zero-inducing pairs vanish at alpha, so for a basis of the pair space
    (hom_pairs, HomBasis.pairs) as many pairs are picked as dim Hom^alpha.
    """
    q = src.field.q
    if cok_src is None:
        cok_src = cokernel_at(src, alpha)
    if cok_tgt is None:
        cok_tgt = cokernel_at(tgt, alpha)
    images = [
        induced_at_alpha(qq, src, tgt, cok_src, cok_tgt).ravel()
        for qq, _ in pairs
    ]
    reps, rep_images = [], []
    for pair, img in zip(pairs, images):
        if img.size and np.any(img):
            cand = np.stack(rep_images + [img]) if rep_images else img.reshape(1, -1)
            if rank(cand.T, q) > len(rep_images):
                rep_images.append(img)
                reps.append(pair)
    return AlphaHomBasis(reps, len(reps))


class BlockHom:
    """The morphism pairs outright clears draw between blocks' proper
    presentations.

    A block hands out one presentation object until its next merge, so the
    caches are keyed by the objects: raw bases and admissibility hold
    across batches, Hom^alpha representatives and cokernels at alpha until
    new_batch. `computations` counts the raw bases solved; without
    `use_homset`, sources() gives raw bases.
    """

    def __init__(self, use_homset: bool):
        self.use_homset = use_homset
        self.computations = 0
        self._pairs, self._admissible = {}, {}
        self._reps, self._cok = {}, {}

    def new_batch(self):
        """Drop what depends on the batch degree alpha."""
        self._reps.clear()
        self._cok.clear()

    def pairs(self, src: GradedMatrix, tgt: GradedMatrix):
        """Raw morphism pair basis from src to tgt (hom_pairs), solved once."""
        key = (src, tgt)
        pairs = self._pairs.get(key)
        if pairs is None:
            self.computations += 1
            pairs = self._pairs[key] = hom_pairs(src, tgt)
        return pairs

    def sources(self, src: GradedMatrix, tgt: GradedMatrix, alpha):
        """The pairs a clear of tgt at degree alpha may draw from src."""
        if not self.use_homset:
            return self.pairs(src, tgt)
        key = (src, tgt, alpha)
        reps = self._reps.get(key)
        if reps is None:
            reps = self._reps[key] = self._alpha_reps(src, tgt, alpha)
        return reps

    def _alpha_reps(self, src: GradedMatrix, tgt: GradedMatrix, alpha):
        """Hom^alpha representatives, as alpha_quotient picks them.

        Unless some target generator lies below some source generator,
        every pair has Q = 0 and vanishes at any degree. Between
        one-generator presentations both cokernels at alpha have dimension
        0 or 1: the representatives are none unless both generators are
        alive at alpha, else the first raw pair whose Q entry is nonzero,
        and the raw basis is solved only in that case.
        """
        key = (src, tgt)
        if key not in self._admissible:
            self._admissible[key] = any(
                leq(t, s) for t in tgt.row_degrees for s in src.row_degrees)
        if not self._admissible[key]:
            return []
        if src.num_rows == tgt.num_rows == 1:
            if not (_generator_alive_at(src, alpha)
                    and _generator_alive_at(tgt, alpha)):
                return []
            q = src.field.q
            return next(([pair] for pair in self.pairs(src, tgt)
                         if pair[0][0, 0] % q), [])
        pairs = self.pairs(src, tgt)
        for m in (src, tgt):
            if (m, alpha) not in self._cok:
                self._cok[m, alpha] = cokernel_at(m, alpha)
        return alpha_quotient(pairs, src, tgt, alpha, self._cok[src, alpha],
                              self._cok[tgt, alpha]).representatives
