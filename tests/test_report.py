import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganens import (
    EnsembleEvaluator,
    EnsembleGenome,
    MetricConfig,
    ParameterError,
    QualityRow,
    ShortfallWarning,
    build_union,
    compute_gap,
    density_coverage,
    gmean_from_confusion,
    harmonic_d,
    quality_rows,
    round_half_away,
    subsample_rows,
)
from ganens.metrics import factored_set, frechet_factored
from ganens.objective import capped_plan, quotas_by_id

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


@st.composite
def quality_cases(draw):
    """A small pool, a neighbour count, a genome and its union size.

    The first generator holds more rows than the real set, so its row is a
    subsample, and the second two or three rows, so it falls short of most
    quotas. Integer-grid rows sit exactly on one another's radii, and rows
    copied from the real set give zero distances.
    """
    dim = draw(st.integers(1, 4))
    n_real = draw(st.integers(4, 12))
    sizes = [draw(st.integers(n_real + 1, 3 * n_real)), draw(st.integers(2, 3))]
    sizes += draw(st.lists(st.integers(2, 3 * n_real), max_size=2))
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows(count):
        if grid:
            return rng.integers(-2, 3, size=(count, dim)).astype(np.float64)
        return rng.standard_normal((count, dim))

    real = rows(n_real)
    sets = {}
    for g, size in enumerate(sizes):
        data = rows(size)
        if draw(st.booleans()):
            data[: size // 2] = real[rng.integers(0, n_real, size // 2)]
        sets[f"g{g}"] = data
    pool = make_pool(sets, real)
    k = draw(st.integers(1, min(n_real, *sizes) - 1))
    bits = draw(st.lists(st.integers(0, 1), min_size=len(sizes), max_size=len(sizes)))
    bits[draw(st.integers(0, len(sizes) - 1))] = 1
    genome = EnsembleGenome(tuple(bits), pool.ref)
    total = draw(st.integers(max(2, sum(bits)), 3 * n_real))
    return pool, k, genome, total


class TestQualityRowsEqualBuiltUnions:
    """Every quality row is the metrics of its built union, and its union row the evaluator's."""

    @settings(max_examples=150)
    @given(case=quality_cases(), seed=st.integers(0, 3))
    def test_rows_equal_reference(self, case, seed):
        pool, k, genome, total = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShortfallWarning)
            union = quotas_by_id(capped_plan(genome, pool, total), pool)
            everyone = EnsembleGenome((1,) * pool.size, pool.ref)
            all_union = quotas_by_id(capped_plan(everyone, pool, max(pool.real.rows, pool.size)), pool)
            # The quotas as a selection may write them, out of canonical order.
            rows = quality_rows(pool, k, seed, dict(reversed(union.items())), include_all=True)
            evaluators = [
                EnsembleEvaluator(pool, MetricConfig(kind=kind, k=k), seed=seed, total=total)
                for kind in ("dnc", "fid")
            ]
            dnc, fid = (evaluator.evaluate(genome).intra for evaluator in evaluators)
        real = factored_set(pool.real)

        def reference(label, rows):
            return QualityRow(label, frechet_factored(real, rows), *density_coverage(pool.real, rows, k))

        want = [
            reference(record.id, subsample_rows(es, pool.real.rows, seed, record.id))
            for record, es in pool.members
        ]
        want.append(reference("union", build_union(union, pool, seed)))
        want.append(reference("all", build_union(all_union, pool, seed)))
        assert rows == want
        assert (harmonic_d(rows[-2].density, rows[-2].coverage), rows[-2].fid) == (dnc, fid)
