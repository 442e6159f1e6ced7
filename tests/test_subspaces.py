"""Grassmannian cell enumeration and complementary-pair generation."""

import numpy as np
import pytest

from mpdec.fields import rank
from mpdec.subspaces import complement, dec_count, generate_dec, grassmannian_cells


def gaussian_binomial(k: int, l: int, q: int) -> int:
    num = den = 1
    for i in range(l):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def span_set(t: np.ndarray, q: int) -> frozenset:
    """Canonical form of a subspace: the set of all its vectors."""
    k, l = t.shape
    vecs = set()
    for coeffs in np.ndindex(*(q,) * l):
        v = (t @ np.array(coeffs, dtype=np.int64)) % q
        vecs.add(tuple(v.tolist()))
    return frozenset(vecs)


class TestGrassmannianCells:
    def test_lines_in_plane(self):
        cells = list(grassmannian_cells(2, 1, 2))
        assert len(cells) == 3

    def test_lines_in_three_space(self):
        assert sum(1 for _ in grassmannian_cells(3, 1, 2)) == 7

    def test_degenerate_range_empty(self):
        assert list(grassmannian_cells(1, 0, 2)) == []
        assert list(grassmannian_cells(1, 1, 2)) == []

    @pytest.mark.parametrize("q", [2, 3])
    def test_counts_match_gaussian_binomials(self, q):
        for k in range(2, 7):
            for l in range(1, k // 2 + 1):
                got = sum(1 for _ in grassmannian_cells(k, l, q))
                assert got == gaussian_binomial(k, l, q)

    def test_no_duplicate_subspaces(self):
        for k, l in [(3, 1), (4, 2)]:
            spans = [span_set(t1, 2) for t1, _ in grassmannian_cells(k, l, 2)]
            assert len(spans) == len(set(spans))

    def test_each_subspace_hit_once_brute_force(self):
        # q=2, k<=4: compare against exhaustive span enumeration
        k, l, q = 4, 2, 2
        spans = {span_set(t1, q) for t1, _ in grassmannian_cells(k, l, q)}
        seen = set()
        for bits in range(2 ** (k * l)):
            t = np.array([(bits >> n) & 1 for n in range(k * l)]).reshape(k, l)
            if rank(t, q) == l:
                seen.add(span_set(t, q))
        assert spans == seen


class TestComplement:
    def test_standard_basis_line(self):
        t1 = np.array([[1], [0]])
        t2 = complement(t1, (0,), 2)
        assert t2.tolist() == [[0], [1]]

    def test_mixed_line(self):
        t1 = np.array([[1], [1]])
        t2 = complement(t1, (0,), 2)
        full = np.hstack([t1, t2])
        assert rank(full, 2) == 2

    def test_always_invertible(self):
        for t1, piv in grassmannian_cells(5, 2, 2):
            full = np.hstack([t1, complement(t1, piv, 5)])
            assert rank(full, 2) == 5


class TestGenerateDec:
    def test_trivial_for_dimension_one(self):
        pairs = list(generate_dec(1, 2))
        assert len(pairs) == 1
        t1, t2 = pairs[0]
        assert t1.shape == (1, 0)
        assert np.array_equal(t2, np.eye(1))

    def test_k2_pairs(self):
        t1s = sorted(t1[:, 0].tolist() for t1, _ in generate_dec(2, 2))
        assert t1s == [[1, 0], [1, 1]]

    def test_small_counts(self):
        assert [dec_count(k, 2) for k in range(1, 5)] == [1, 2, 7, 43]

    @pytest.mark.parametrize("q,k", [(2, k) for k in range(1, 8)]
                             + [(3, k) for k in range(1, 7)])
    def test_count_closed_form(self, q, k):
        # every l-subspace for l < k/2; at l = k/2 the cells whose pivots
        # avoid row 0 are exactly the subspaces of {x_0 = 0}, and are skipped
        expected = sum(gaussian_binomial(k, l, q) for l in range(1, k // 2 + 1))
        if k % 2 == 0:
            expected -= gaussian_binomial(k - 1, k // 2, q)
        assert dec_count(k, q) == (expected if k > 1 else 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(generate_dec(0, 2))

    def test_all_pairs_invertible(self):
        for k in range(2, 6):
            for t1, t2 in generate_dec(k, 2):
                assert rank(np.hstack([t1, t2]), 2) == k

    @pytest.mark.parametrize("k", [2, 4])
    def test_vertex_cover_of_complementary_pairs(self, k):
        # every unordered complementary pair {U, V} has a member emitted
        q, l = 2, k // 2
        emitted = {span_set(t1, q) for t1, _ in generate_dec(k, q)}
        all_l = [span_set(t1, q) for t1, _ in grassmannian_cells(k, l, q)]
        basis_of = {}
        for t1, _ in grassmannian_cells(k, l, q):
            basis_of[span_set(t1, q)] = t1
        for u in all_l:
            for v in all_l:
                tu, tv = basis_of[u], basis_of[v]
                if rank(np.hstack([tu, tv]), q) == k:
                    assert u in emitted or v in emitted
