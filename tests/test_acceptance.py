"""End-to-end acceptance checks: correctness, certificates, and scaling.

These tests exercise the public surface on fixed fixtures, randomized
corpora with independent oracles, and timed scaling ladders. They are
slower than the unit tests but must stay green (they are the contract of
the package).
"""

import time

import numpy as np
import pytest

from fixtures import (
    antidiagonal_batch_matrix,
    chain_blocks,
    chain_digraph_matrix,
    clearing_fixture,
    equal_rows_split_matrix,
    join_pair_matrix,
    obstruction_matrix,
    staircase_pair,
)
from mpdec.cli import _write_artifacts
from mpdec.decomposer import decompose
from mpdec.fields import FieldConfig
from mpdec.generators import gen_grid, gen_intervals, gen_random_er, mix
from mpdec.hom import alpha_quotient, hom_space
from mpdec.sccio import parse_scc2020, strip_comments, write_scc2020
from mpdec.subspaces import dec_count
from oracle import TEMPLATES, TemplateOrbits

STRATS = ("exhaustive", "aida")

ALL_FIXTURES = [
    join_pair_matrix,
    antidiagonal_batch_matrix,
    chain_digraph_matrix,
    obstruction_matrix,
    lambda: clearing_fixture()[0],
    lambda: staircase_pair()[0],
    lambda: staircase_pair()[1],
]


class TestDecPairCounts:
    """Counts of complementary subspace decomposition pairs over F_2."""

    # |Dec_2(k)| = sum_{l=1}^{floor(k/2)} [k,l]_2 - (k even ? [k-1,k/2]_2 : 0)
    # in Gaussian binomials; for k = 6:
    # [6,1]_2 + [6,2]_2 + [6,3]_2 - [5,3]_2 = 63 + 651 + 1395 - 155 = 1954.
    # No complete family is smaller: the 3-spaces it leaves out must meet
    # pairwise, so there are at most [5,2]_2 = 155 of them by the q-analogue
    # of Erdos-Ko-Rado for 3-spaces of F_2^6 (Godsil and Meagher,
    # "Erdos-Ko-Rado Theorems: Algebraic Approaches", 2016).
    EXPECTED = {1: 1, 2: 2, 3: 7, 4: 43, 5: 186, 6: 1954}

    @pytest.mark.parametrize("k", sorted(EXPECTED))
    def test_count_and_speed(self, k):
        t0 = time.perf_counter()
        got = dec_count(k, 2)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        assert got == self.EXPECTED[k]


class TestAntidiagonalBatch:
    """A dense 4-column batch that needs a genuine subspace split."""

    @pytest.mark.parametrize("strategy", STRATS)
    def test_two_equal_summands(self, strategy):
        report = decompose(
            antidiagonal_batch_matrix(), strategy=strategy, verify=True
        )
        assert report.num_summands == 2
        for s in report.summands:
            assert (s.num_rows, s.num_cols) == (3, 2)


class TestChainDigraph:
    """Merging along the one-way morphism digraph of existing blocks."""

    @pytest.mark.parametrize("strategy", STRATS)
    def test_final_block_partition(self, strategy):
        report = decompose(
            chain_digraph_matrix(), strategy=strategy, verify=True
        )
        assert report.num_summands == 2
        parts = sorted(
            (sorted(rows), sorted(cols))
            for rows, cols in zip(report.block_rows, report.block_cols)
        )
        assert parts[0][0] == [0, 1, 2] and parts[1][0] == [3]
        assert parts[0][1][:2] == [0, 1]
        assert sorted(parts[0][1][2:] + parts[1][1]) == [2, 3]


class TestHomDimensions:
    """Morphism space dimensions between the three chain blocks."""

    def test_pairwise_table(self):
        b, c, d = chain_blocks()
        blocks = {"b": b, "c": c, "d": d}
        nonzero = {("b", "c"): 1, ("c", "d"): 1, ("b", "d"): 2}
        for sn, src in blocks.items():
            for tn, tgt in blocks.items():
                expected = 1 if sn == tn else nonzero.get((sn, tn), 0)
                assert hom_space(src, tgt).dim == expected

    def test_localized_dimension_drops(self):
        x, y, alpha = staircase_pair()
        hom = hom_space(x, y)
        assert hom.dim == 2
        assert alpha_quotient(hom.pairs, x, y, alpha).dim == 1


class TestIntervalRecovery:
    """interval_auto must recover generated interval ground truth exactly."""

    @pytest.mark.parametrize(
        "n", [10, 100, pytest.param(1000, marks=pytest.mark.slow)])
    def test_twenty_seeds(self, n):
        for seed in range(20):
            m, sigs = gen_intervals(n, seed=seed, mixed=True)
            t0 = time.perf_counter()
            report = decompose(m, strategy="interval_auto")
            elapsed = time.perf_counter() - t0
            assert report.verify()
            assert report.interval_decomposable
            assert report.num_summands == n
            assert report.signature_multiset() == sigs
            if n == 1000:
                assert elapsed < 30.0


class TestShuffleInvariance:
    """Summand multisets are invariant under admissible basis shuffles."""

    def test_twenty_instances(self):
        for seed in range(20):
            m = gen_random_er(8, 7, 0.35, seed=seed)
            mixed = mix(
                m.copy(), op_count=10 * (m.num_rows + m.num_cols),
                seed=seed + 1000,
            )
            ra = decompose(m, strategy="aida")
            rb = decompose(mixed, strategy="aida")
            assert ra.signature_multiset() == rb.signature_multiset()


class TestCertificates:
    """Every report carries a sound transform certificate."""

    def test_fixtures_and_random(self):
        inputs = [make() for make in ALL_FIXTURES]
        inputs += [gen_random_er(7, 6, 0.4, seed=s) for s in range(5)]
        inputs += [gen_intervals(15, seed=s)[0] for s in range(3)]
        for m in inputs:
            report = decompose(m.copy(), strategy="exhaustive")
            assert report.verify()
            assert report.transform.check_graded(
                report.minimized_input.row_degrees,
                report.minimized_input.col_degrees,
            )


def _artifacts(m, strategy, outdir):
    """Summand files and certificate.json as ``mpdec decompose -o`` writes
    them, by file name."""
    _write_artifacts(decompose(m.copy(), strategy=strategy), outdir)
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestStrategyNames:
    """aida and interval_auto run the exhaustive batch path: their summand
    texts and certificate payloads are byte-identical to exhaustive's, so
    the other tests run exhaustive only."""

    def test_fixtures_and_oracle_sample(self, tmp_path):
        inputs = [make() for make in ALL_FIXTURES]
        inputs += [equal_rows_split_matrix(), join_pair_matrix(FieldConfig(3))]
        inputs += list(chain_blocks())
        for rows, cols in TEMPLATES:
            orbits = TemplateOrbits(rows, cols)
            inputs += [orbits.matrix(mask)
                       for mask in orbits.minimal_masks()[::25]]
        for n, m in enumerate(inputs):
            reference = _artifacts(m, "exhaustive", tmp_path / f"{n}-ex")
            for strategy in ("aida", "interval_auto"):
                assert _artifacts(m, strategy, tmp_path / f"{n}-{strategy}") \
                    == reference, f"input {n}, {strategy}"


class TestOrbitOracleCorpus:
    """Exhaustive comparison against an independent orbit-search oracle.

    For small 0/1 templates the whole isomorphism class of a matrix can be
    enumerated by bit operations; the maximal number of diagonal blocks
    over the orbit is the true summand count.
    """

    @pytest.mark.parametrize(
        "tidx", range(len(TEMPLATES)), ids=lambda i: f"template{i}"
    )
    def test_all_minimal_masks(self, tidx):
        rows, cols = TEMPLATES[tidx]
        orbits = TemplateOrbits(rows, cols)
        for mask in orbits.minimal_masks():
            report = decompose(orbits.matrix(mask), strategy="exhaustive")
            assert report.num_summands == orbits.num_summands(mask), (
                f"mask {mask:#x} in template {tidx}"
            )


class TestIntervalAutoScaling:
    """Agreement with the general path, and near-linear scaling."""

    def test_agreement_up_to_200(self):
        for n in (25, 50, 100, 200):
            for seed in range(3):
                m, _ = gen_intervals(n, seed=seed, mixed=True)
                fast = decompose(m.copy(), strategy="interval_auto")
                slow = decompose(m.copy(), strategy="exhaustive")
                assert fast.signature_multiset() == slow.signature_multiset()

    @pytest.mark.slow
    def test_doubling_slope(self):
        sizes = [125, 250, 500, 1000, 2000]
        times = []
        for n in sizes:
            m, _ = gen_intervals(n, seed=7, mixed=True)
            t0 = time.perf_counter()
            report = decompose(m, strategy="interval_auto")
            times.append(time.perf_counter() - t0)
            assert report.num_summands == n
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert slope <= 3.2, f"times {times}, slope {slope:.2f}"


class TestGridScaling:
    """Large sparse instances with distinct degrees stay fast."""

    @pytest.mark.slow
    def test_doubling_ladder(self):
        times = {}
        for m_gens in (5000, 10000, 20000, 40000):
            matrix, k_max = gen_grid(
                m_gens, m_gens, 10 ** 6, 0.5 / m_gens, seed=m_gens
            )
            t0 = time.perf_counter()
            report = decompose(matrix, strategy="aida")
            times[m_gens] = time.perf_counter() - t0
            assert report.k_max == k_max
            assert report.verify()
        assert times[40000] < 300.0
        for small, big in ((5000, 10000), (10000, 20000), (20000, 40000)):
            assert times[big] / times[small] <= 5.0, times

    @pytest.mark.slow
    def test_sweep_ablation(self):
        faster = 0
        total = 6
        for seed in range(total):
            m, _ = gen_intervals(500, seed=seed, mixed=True)
            t0 = time.perf_counter()
            ra = decompose(m.copy(), strategy="aida", use_sweep=True)
            t_on = time.perf_counter() - t0
            t0 = time.perf_counter()
            rb = decompose(m.copy(), strategy="aida", use_sweep=False)
            t_off = time.perf_counter() - t0
            assert ra.signature_multiset() == rb.signature_multiset()
            if t_on < t_off:
                faster += 1
        assert faster >= 0.8 * total, f"{faster}/{total} faster with sweep"


class TestSerializationRoundTrip:
    """Byte-exact round trips after comment stripping."""

    def test_hundred_random_instances(self):
        for seed in range(100):
            if seed % 2:
                m = gen_random_er(7, 6, 0.4, seed=seed)
            else:
                m, _ = gen_intervals(8, seed=seed, mixed=True)
            text = write_scc2020(m)
            again = parse_scc2020(text)
            assert again.equal(m)
            assert write_scc2020(again) == strip_comments(text)

    def test_all_fixtures(self):
        for make in ALL_FIXTURES:
            m = make()
            text = write_scc2020(m)
            assert parse_scc2020(text).equal(m)
            assert write_scc2020(parse_scc2020(text)) == strip_comments(text)
