"""Deterministic instance generators and admissible shuffling."""

from mpdec.certificate import transform_errors
from mpdec.fields import FieldConfig
from mpdec.generators import Rng, gen_grid, gen_intervals, gen_random_er, mix
from mpdec.grading import is_minimal


class TestRng:
    def test_deterministic(self):
        a, b = Rng(42), Rng(42)
        assert [a.randrange(100) for _ in range(20)] == [
            b.randrange(100) for _ in range(20)
        ]

    def test_seed_changes_stream(self):
        a, b = Rng(1), Rng(2)
        assert [a.randrange(10 ** 6) for _ in range(8)] != [
            b.randrange(10 ** 6) for _ in range(8)
        ]

    def test_bounds(self):
        r = Rng(7)
        vals = [r.randrange(5) for _ in range(200)]
        assert set(vals) <= {0, 1, 2, 3, 4}
        assert len(set(vals)) == 5
        assert all(1 <= r.randint(1, 3) <= 3 for _ in range(50))


class TestGenIntervals:
    def test_deterministic(self):
        m1, s1 = gen_intervals(12, seed=5)
        m2, s2 = gen_intervals(12, seed=5)
        assert m1.equal(m2) and s1 == s2

    def test_signature_count_matches(self):
        _, sigs = gen_intervals(25, seed=1)
        assert len(sigs) == 25

    def test_free_fraction_near_ten_percent(self):
        _, sigs = gen_intervals(1000, seed=13, mixed=False)
        free = sum(1 for sig in sigs if not sig[1])
        assert 0.07 <= free / 1000 <= 0.13

    def test_mixed_differs_but_same_degrees(self):
        plain, s1 = gen_intervals(10, seed=8, mixed=False)
        mixed, s2 = gen_intervals(10, seed=8, mixed=True)
        assert s1 == s2
        assert sorted(plain.row_degrees) == sorted(mixed.row_degrees)
        assert sorted(plain.col_degrees) == sorted(mixed.col_degrees)

    def test_other_field(self):
        m, _ = gen_intervals(6, seed=2, field=FieldConfig(5))
        m.validate()
        assert m.field.q == 5


class TestMix:
    def test_zero_ops_identity(self):
        m = gen_random_er(5, 5, 0.4, seed=3)
        mixed, tp = mix(m.copy(), op_count=0, seed=1, return_transform=True)
        assert mixed.equal(m)
        assert transform_errors(m, mixed, tp) == []

    def test_preserves_grading_and_tracks(self):
        m = gen_random_er(7, 6, 0.4, seed=21)
        mixed, tp = mix(m.copy(), op_count=80, seed=22, return_transform=True)
        mixed.validate()
        assert mixed.row_degrees == m.row_degrees
        assert mixed.col_degrees == m.col_degrees
        assert transform_errors(m, mixed, tp) == []
        assert tp.check_graded(m.row_degrees, m.col_degrees)

    def test_without_transform_return(self):
        m = gen_random_er(4, 4, 0.5, seed=9)
        mixed = mix(m.copy(), op_count=20, seed=10)
        mixed.validate()


class TestGenRandomEr:
    def test_minimal_and_valid(self):
        for seed in range(6):
            m = gen_random_er(8, 7, 0.35, seed=seed)
            m.validate()
            assert is_minimal(m)

    def test_deterministic(self):
        assert gen_random_er(6, 6, 0.4, seed=11).equal(
            gen_random_er(6, 6, 0.4, seed=11)
        )


class TestGenGrid:
    def test_tiny_grid_forces_batches(self):
        _, k_max = gen_grid(40, 40, 2, 0.1, seed=5)
        assert k_max > 1

    def test_huge_grid_distinct_degrees(self):
        distinct = sum(
            1
            for seed in range(20)
            if gen_grid(50, 50, 10 ** 6, 0.02, seed=seed)[1] == 1
        )
        assert distinct >= 19

    def test_deterministic(self):
        m1, k1 = gen_grid(30, 30, 100, 0.05, seed=2)
        m2, k2 = gen_grid(30, 30, 100, 0.05, seed=2)
        assert m1.equal(m2) and k1 == k2
        m1.validate()
