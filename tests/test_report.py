import numpy as np
import pytest

from ganens import (
    ParameterError,
    compute_gap,
    gmean_from_confusion,
    quality_rows,
    round_half_away,
)

from conftest import make_pool


class TestRounding:
    @pytest.mark.parametrize(
        "value, expected",
        [(5.4744, 5.5), (5.45, 5.5), (-7.588, -7.6), (-7.55, -7.6), (0.04, 0.0), (2.349, 2.3)],
    )
    def test_half_away_from_zero(self, value, expected):
        assert round_half_away(value, 1) == expected


class TestGap:
    def test_positive_gap(self):
        report = compute_gap(0.822, 0.867)
        assert report.gamma_rs == pytest.approx((0.867 - 0.822) / 0.822 * 100)
        assert report.formatted() == "+5.5"

    def test_negative_gap(self):
        assert compute_gap(0.817, 0.755).formatted() == "-7.6"

    def test_identity_is_zero(self):
        report = compute_gap(0.7, 0.7)
        assert report.gamma_rs == 0.0
        assert report.formatted() == "0.0"

    def test_exact_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            real = rng.uniform(0.05, 1.0)
            synth = rng.uniform(0.0, 1.0)
            assert compute_gap(real, synth).gamma_rs == (synth - real) / real * 100.0

    def test_validation(self):
        with pytest.raises(ParameterError, match="positive"):
            compute_gap(0.0, 0.5)
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            compute_gap(0.5, 1.2)


class TestGmean:
    def test_binary_confusion(self):
        # recalls 0.9 and 0.8 -> sqrt(0.72)
        value = gmean_from_confusion([[9, 1], [2, 8]])
        assert value == pytest.approx(np.sqrt(0.72))

    def test_perfect_classifier(self):
        assert gmean_from_confusion(np.eye(3) * 7) == pytest.approx(1.0)

    def test_collapsed_class_is_zero(self):
        assert gmean_from_confusion([[0, 5], [0, 5]]) == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError, match="square"):
            gmean_from_confusion([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ParameterError, match="no true examples"):
            gmean_from_confusion([[0, 0], [1, 1]])
        with pytest.raises(ParameterError, match="nonnegative"):
            gmean_from_confusion([[1, -1], [1, 1]])


class TestQualityRows:
    def _pool(self):
        rng = np.random.default_rng(1)
        real = rng.normal(size=(50, 4))
        return make_pool(
            {"same": real.copy(), "far": rng.normal(size=(50, 4)) + 300.0},
            real,
        )

    def test_union_equal_to_real_hits_self_values(self):
        pool = self._pool()
        rows = {r.label: r for r in quality_rows(pool, k=5, seed=0, union={"same": 50})}
        union = rows["union"]
        # a set against itself: coverage 1, density (k+1)/k, FID ~ 0
        assert union.coverage == 1.0
        assert union.density == pytest.approx(1.2)
        assert union.fid <= 1e-6

    def test_far_generator_row_has_zero_coverage(self):
        pool = self._pool()
        rows = {r.label: r for r in quality_rows(pool, k=5, seed=0)}
        assert rows["far"].coverage == 0.0
        assert rows["far"].density == 0.0
        assert rows["far"].fid > 100.0

    def test_generator_row_is_its_singleton_union(self):
        # Generators three times the real-set size are subsampled to it; the
        # union of a singleton's real-set-size quota holds the same rows.
        rng = np.random.default_rng(3)
        pool = make_pool(
            {"a": rng.normal(size=(90, 4)), "b": rng.normal(size=(90, 4)) + 0.5},
            rng.normal(size=(30, 4)),
        )
        for record, _ in pool.members:
            union = {record.id: pool.real.rows}
            rows = {r.label: r for r in quality_rows(pool, k=5, seed=2, union=union)}
            own, union = rows[record.id], rows["union"]
            assert (own.fid, own.density, own.coverage) == (union.fid, union.density, union.coverage)

    def test_include_all_adds_union_row(self):
        pool = self._pool()
        rows = [r.label for r in quality_rows(pool, k=5, seed=0, include_all=True)]
        assert rows == ["far", "same", "all"]
