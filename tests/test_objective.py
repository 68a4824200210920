import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganens import (
    EnsembleEvaluator,
    EnsembleGenome,
    MetricConfig,
    ObjectiveVector,
    ParameterError,
    ShortfallWarning,
    build_union,
    density_coverage,
    harmonic_d,
    inter_d,
    intra_d,
    metric_d,
    pairwise_matrix,
    quota_plan,
    subsample_rows,
)
import ganens.metrics
from ganens.metrics import factored_set, frechet_factored
from ganens.objective import PairwiseMatrix, capped_plan, quotas_by_id
from ganens.optimize import ParetoFront, select_best, selection_manifest

from conftest import make_pool, standardized_by_real


def genome(bits, pool=None):
    return EnsembleGenome(tuple(bits), pool.ref if pool is not None else "")


def plan_quotas(bits, pool, total):
    """The id-keyed rows ``capped_plan`` gives each member of ``bits`` for a union of ``total``."""
    return quotas_by_id(capped_plan(genome(bits, pool), pool, total), pool)


class TestGenome:
    def test_empty_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            EnsembleGenome((0, 0, 0))

    def test_non_binary_rejected(self):
        with pytest.raises(ParameterError, match="0 or 1"):
            EnsembleGenome((0, 2, 0))
        for bits in [(1, -1), (1, 256), (1, 2.0)]:
            with pytest.raises(ParameterError, match="0 or 1"):
                EnsembleGenome(bits)

    @pytest.mark.parametrize(
        "bits",
        [(True, False, True), tuple(np.array([1, 0, 1])), tuple(np.array([True, False, True])),
         (1.0, 0.0, 1.0), [1, 0, 1]],
        ids=["bool", "numpy-int", "numpy-bool", "float", "list"],
    )
    def test_bits_are_stored_as_ints(self, bits):
        g = EnsembleGenome(bits)
        assert g.bits == (1, 0, 1) and all(type(b) is int for b in g.bits)

    def test_from_indices(self):
        g = EnsembleGenome.from_indices([2, 0], 4)
        assert g.bits == (1, 0, 1, 0)
        assert g.indices() == (0, 2)
        assert g.member_count == 2
        with pytest.raises(ParameterError, match="out of range"):
            EnsembleGenome.from_indices([5], 4)


class TestQuotaPlan:
    def test_hundred_over_three(self):
        _, quotas = quota_plan(EnsembleGenome((1, 1, 1)), 100)
        assert quotas.tolist() == [34, 33, 33]

    def test_singleton(self):
        members, quotas = quota_plan(EnsembleGenome((0, 1, 0)), 100)
        assert members.tolist() == [1] and quotas.tolist() == [100]

    def test_large_remainder_split(self):
        # 4708 across 38 members: 34 quotas of 124 and 4 of 123
        g = EnsembleGenome((1,) * 38)
        _, plan = quota_plan(g, 4708)
        quotas = plan.tolist()
        assert sum(quotas) == 4708
        assert quotas.count(124) == 34 and quotas.count(123) == 4
        # remainder goes to the earliest canonical indices
        assert quotas == sorted(quotas, reverse=True)

    def test_total_smaller_than_members(self):
        with pytest.raises(ParameterError, match="smaller than ensemble size"):
            quota_plan(EnsembleGenome((1, 1, 1)), 2)

    def test_total_beyond_int64_rejected(self):
        # Quotas are int64 arrays; a larger total would turn them into uint64 or floats.
        assert quota_plan(EnsembleGenome((1,)), 2**63 - 1)[1].tolist() == [2**63 - 1]
        for total in (2**63, 2**64 - 1, 10**20):
            with pytest.raises(ParameterError, match="does not fit a 64-bit row count"):
                quota_plan(EnsembleGenome((1, 0)), total)

    def test_quotas_always_sum_to_total(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            size = int(rng.integers(1, 12))
            bits = np.zeros(size, dtype=int)
            bits[rng.integers(size)] = 1
            extra = rng.random(size) < 0.5
            bits = np.maximum(bits, extra.astype(int))
            g = EnsembleGenome(tuple(bits))
            total = int(rng.integers(g.member_count, 500))
            assert quota_plan(g, total)[1].sum() == total


class TestBuildUnion:
    def _pool(self):
        rng = np.random.default_rng(1)
        return make_pool(
            {"a": rng.normal(size=(10, 3)), "b": rng.normal(size=(10, 3))},
            rng.normal(size=(10, 3)),
        )

    def test_even_split(self):
        pool = self._pool()
        union = build_union(plan_quotas((1, 1), pool, 10), pool, seed=7)
        assert union.rows == 10

    def test_deterministic(self):
        pool = self._pool()
        first = build_union(plan_quotas((1, 1), pool, 6), pool, seed=7)
        second = build_union(plan_quotas((1, 1), pool, 6), pool, seed=7)
        assert np.array_equal(first.data, second.data)
        different = build_union(plan_quotas((1, 1), pool, 6), pool, seed=8)
        assert not np.array_equal(first.data, different.data)

    def test_shortfall_warning(self):
        rng = np.random.default_rng(2)
        pool = make_pool({"tiny": rng.normal(size=(3, 3))}, rng.normal(size=(8, 3)))
        with pytest.warns(ShortfallWarning, match="short by 2"):
            union = build_union(plan_quotas((1,), pool, 5), pool, seed=0)
        assert union.rows == 3

    def test_take_all_returns_rows_in_order(self):
        pool = self._pool()
        union = build_union(plan_quotas((1, 0), pool, 10), pool, seed=3)
        assert np.array_equal(union.data, pool.members[0][1].data)

    def test_wrong_pool_rejected(self):
        # build_union takes no genome; intra_d checks the genome it plans from.
        pool = self._pool()
        with pytest.raises(ParameterError, match="different pool"):
            intra_d(EnsembleGenome((1, 1), "deadbeef"), pool, MetricConfig(), seed=0)

    @pytest.mark.parametrize(
        "quotas, detail",
        [({}, "must name generators of the pool"), ({"a": 5, "z": 5}, "must name generators"),
         ({"a": 0}, "quota 0 of 'a' is not in 1..10"), ({"b": 11}, "quota 11 of 'b' is not in")],
        ids=["empty", "unknown-id", "zero", "above-rows"],
    )
    def test_counts_outside_the_pool_rejected(self, quotas, detail):
        # A union holds exactly the rows its counts name, or is not built.
        with pytest.raises(ParameterError, match=detail):
            build_union(quotas, self._pool(), seed=0)

    def test_shares_follow_canonical_order(self):
        pool = self._pool()
        union = build_union({"b": 4, "a": 6}, pool, seed=2)
        assert union.rows == 10
        assert np.array_equal(union.data[:6], subsample_rows(pool.members[0][1], 6, 2, "a").data)
        assert np.array_equal(union.data[6:], subsample_rows(pool.members[1][1], 4, 2, "b").data)


class TestOneSampler:
    """Every row sample of a generator is a prefix of its one seeded draw order."""

    def _pool(self):
        rng = np.random.default_rng(11)
        sets = {
            f"g{i}": rng.normal(size=(40, 5)) * rng.uniform(0.5, 2, 5) + rng.normal(0, 1, 5)
            for i in range(3)
        }
        return make_pool(sets, rng.normal(size=(20, 5)))

    def _singleton_union(self, pool, idx, total, seed):
        return build_union({pool.ids[idx]: total}, pool, seed)

    @pytest.mark.parametrize("size", [1, 13, 39])
    def test_subsample_is_the_singleton_union(self, size):
        pool = self._pool()
        for idx, (record, dataset) in enumerate(pool.members):
            sample = subsample_rows(dataset, size, 4, record.id)
            assert sample.rows == size
            assert np.array_equal(sample.data, self._singleton_union(pool, idx, size, 4).data)

    def test_subsample_covering_every_row_is_the_set(self):
        pool = self._pool()
        record, dataset = pool.members[0]
        assert subsample_rows(dataset, 40, 4, record.id) is dataset

    @pytest.mark.parametrize("kind", ["dnc", "fid"])
    def test_pairwise_entries_score_the_singleton_unions(self, kind):
        pool = self._pool()
        matrix = pairwise_matrix(pool, MetricConfig(kind=kind, k=3), sample_per_generator=17, seed=4)
        unions = [
            self._singleton_union(pool, i, 17, 4).data.astype(np.float64) for i in range(pool.size)
        ]
        for i in range(pool.size):
            for j in range(i + 1, pool.size):
                a, b = unions[i], unions[j]
                if kind == "dnc":
                    forward = harmonic_d(*density_coverage(a, b, 3))
                    want = (forward + harmonic_d(*density_coverage(b, a, 3))) / 2.0
                else:
                    want = frechet_factored(factored_set(a), factored_set(b))
                assert matrix.values[i, j] == matrix.values[j, i] == want


class TestIntraD:
    def test_generator_equal_to_real_reaches_self_value(self):
        rng = np.random.default_rng(3)
        real = rng.normal(size=(20, 4))
        # canonical order sorts ids: index 0 is "far", index 1 is "same"
        pool = make_pool({"same": real.copy(), "far": rng.normal(size=(20, 4)) + 200.0}, real)
        value = intra_d(genome((0, 1), pool), pool, MetricConfig(k=1), seed=0)
        assert value == pytest.approx(4.0 / 3.0)

    def test_far_generator_scores_zero(self):
        rng = np.random.default_rng(4)
        real = rng.normal(size=(20, 4))
        pool = make_pool({"far": rng.normal(size=(20, 4)) + 200.0}, real)
        assert intra_d(genome((1,), pool), pool, MetricConfig(k=2), seed=0) == 0.0


class TestPairwiseMatrix:
    def _pool(self, seed=5):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(30, 4))
        return make_pool(
            {"a": base, "b": base.copy(), "c": rng.normal(size=(30, 4)) + 300.0},
            rng.normal(size=(30, 4)),
        )

    def test_symmetric_and_counts(self):
        pool = self._pool()
        matrix = pairwise_matrix(pool, MetricConfig(k=1), seed=0)
        assert matrix.values.shape == (3, 3)
        assert np.array_equal(matrix.values, matrix.values.T)
        assert np.count_nonzero(np.triu(matrix.values, 1)) <= 3

    def test_duplicate_generator_self_value(self):
        # identical sets at k=1 compare at the self-metric value 4/3
        pool = self._pool()
        matrix = pairwise_matrix(pool, MetricConfig(k=1), seed=0)
        assert matrix.values[0, 1] == pytest.approx(4.0 / 3.0)

    def test_far_generator_zero_entries(self):
        pool = self._pool()
        matrix = pairwise_matrix(pool, MetricConfig(k=1), seed=0)
        assert matrix.values[0, 2] == 0.0
        assert matrix.values[1, 2] == 0.0

    def test_frechet_entries_take_one_order(self):
        # Four sets with unequal scales and shifts: the two argument orders of
        # frechet_factored differ in their last bits on most pairs, so the
        # entries show which order was taken.
        rng = np.random.default_rng(7)
        sets = {
            f"g{i}": rng.normal(size=(30, 6)) * rng.uniform(0.5, 3, 6) + rng.normal(0, 2, 6)
            for i in range(4)
        }
        pool = make_pool(sets, rng.normal(size=(30, 6)))
        for standardize in (False, True):
            matrix = pairwise_matrix(pool, MetricConfig(kind="fid", standardize=standardize))
            sets = [es.data.astype(np.float64) for _, es in pool.members]
            if standardize:
                sets = standardized_by_real(pool, sets)
            factors = [factored_set(x) for x in sets]
            swapped = 0
            for i in range(pool.size):
                assert matrix.values[i, i] == 0.0
                for j in range(i + 1, pool.size):
                    want = frechet_factored(factors[i], factors[j])
                    assert matrix.values[i, j] == matrix.values[j, i] == want
                    swapped += want != frechet_factored(factors[j], factors[i])
            assert swapped > 0

    def test_sample_sizes_recorded(self):
        pool = self._pool()
        matrix = pairwise_matrix(pool, MetricConfig(k=1), sample_per_generator=12, seed=0)
        assert matrix.sample_sizes == (12, 12, 12)

    def test_csv_export(self, tmp_path):
        pool = self._pool()
        matrix = pairwise_matrix(pool, MetricConfig(k=1), seed=0)
        matrix.write_csv(tmp_path / "pw.csv", provenance={"command": "test"})
        lines = (tmp_path / "pw.csv").read_text().strip().split("\n")
        assert lines[0] == "id,a,b,c"
        assert len(lines) == 4
        sidecar = tmp_path / "pw.csv.meta.json"
        assert sidecar.exists()
        import json

        meta = json.loads(sidecar.read_text())
        assert meta["metric"]["kind"] == "dnc" and meta["metric"]["k"] == 1
        assert meta["sample_sizes"] == {"a": 30, "b": 30, "c": 30}


class TestInterD:
    def _matrix(self, size, entries):
        values = np.zeros((size, size))
        for (i, j), v in entries.items():
            values[i, j] = values[j, i] = v
        return PairwiseMatrix(
            values=values,
            ids=tuple(f"g{i}" for i in range(size)),
            pool_ref="",
            metric=MetricConfig(),
            seed=0,
            sample_sizes=(10,) * size,
        )

    def test_hand_mean(self):
        matrix = self._matrix(4, {(1, 2): 0.2, (1, 3): 0.4, (2, 3): 0.6})
        assert inter_d(EnsembleGenome((0, 1, 1, 1)), matrix) == pytest.approx(0.4)

    def test_singleton_convention(self):
        matrix = self._matrix(3, {(0, 1): 0.9})
        assert inter_d(EnsembleGenome((1, 0, 0)), matrix) == 0.0

    def test_single_pair(self):
        matrix = self._matrix(3, {(0, 1): 0.5})
        assert inter_d(EnsembleGenome((1, 1, 0)), matrix) == 0.5

    def test_matches_ordered_double_sum(self):
        rng = np.random.default_rng(6)
        for size in range(2, 7):
            raw = rng.uniform(0, 1, size=(size, size))
            sym = (raw + raw.T) / 2
            np.fill_diagonal(sym, 0.0)
            matrix = self._matrix(size, {(i, j): sym[i, j] for i in range(size) for j in range(i + 1, size)})
            g = EnsembleGenome((1,) * size)
            brute = sum(
                sym[i, j] for i in range(size) for j in range(size) if i != j
            ) / (size * (size - 1))
            assert inter_d(g, matrix) == pytest.approx(brute, abs=1e-12)

    def test_bounded_by_selected_entries(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0, 1, size=(5, 5))
        sym = (values + values.T) / 2
        np.fill_diagonal(sym, 0.0)
        matrix = self._matrix(5, {(i, j): sym[i, j] for i in range(5) for j in range(i + 1, 5)})
        g = EnsembleGenome((1, 1, 0, 1, 1))
        picked = [sym[i, j] for i in g.indices() for j in g.indices() if i < j]
        assert min(picked) <= inter_d(g, matrix) <= max(picked)


class TestEvaluator:
    def _pool(self):
        rng = np.random.default_rng(8)
        real = rng.normal(size=(24, 4))
        return make_pool(
            {
                "a": real + rng.normal(0, 0.1, size=(24, 4)),
                "b": rng.normal(size=(24, 4)) + 50.0,
                "c": real + rng.normal(0, 0.2, size=(24, 4)),
            },
            real,
        )

    def test_repeat_evaluations_are_equal(self):
        pool = self._pool()
        for kind in ("dnc", "fid"):
            evaluator = EnsembleEvaluator(pool, MetricConfig(kind=kind, k=2), seed=0)
            for bits in [(1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)]:
                first = evaluator.evaluate(genome(bits, pool))
                evaluator.evaluate(genome((1, 0, 1), pool))
                assert evaluator.evaluate(genome(bits, pool)) == first

    def test_evaluate_bundles_components(self):
        pool = self._pool()
        evaluator = EnsembleEvaluator(pool, MetricConfig(k=2), seed=3)
        g = genome((1, 1, 0), pool)
        vector = evaluator.evaluate(g)
        assert vector.intra == intra_d(g, pool, MetricConfig(k=2), seed=3)
        assert vector.inter == inter_d(g, evaluator.matrix)
        assert vector.member_count == 2

    def test_determinism(self):
        pool = self._pool()
        a = EnsembleEvaluator(pool, MetricConfig(k=2), seed=1).evaluate(genome((1, 1, 1), pool))
        b = EnsembleEvaluator(pool, MetricConfig(k=2), seed=1).evaluate(genome((1, 1, 1), pool))
        assert a == b

    def test_singleton_inter_zero(self):
        pool = self._pool()
        evaluator = EnsembleEvaluator(pool, MetricConfig(k=2), seed=0)
        assert evaluator.evaluate(genome((0, 1, 0), pool)).inter == 0.0

    @pytest.mark.parametrize("sample", [None, 5], ids=["three-row-generator", "sample-at-k"])
    def test_short_pairwise_sample_raises_at_construction(self, sample):
        # The pairwise matrix is built with the evaluator, so its check fails there.
        rng = np.random.default_rng(4)
        pool = make_pool(
            {"a": rng.normal(size=(3 if sample is None else 20, 3)), "b": rng.normal(size=(20, 3))},
            rng.normal(size=(20, 3)),
        )
        rows = 3 if sample is None else sample
        words = (
            f"the pairwise sample of generator 'a' holds {rows} rows, but density and coverage "
            "at --k 5 need more than 5 in every set; lower --k, or raise --sample if the "
            "generator holds more rows"
        )
        with pytest.raises(ParameterError, match=re.escape(words)):
            EnsembleEvaluator(pool, MetricConfig(k=5), sample_per_generator=sample)

    def test_total_below_one_rejected(self):
        with pytest.raises(ParameterError, match="total must be >= 1, got 0"):
            EnsembleEvaluator(self._pool(), MetricConfig(k=2), total=0)

    @pytest.mark.parametrize("kind", ["dnc", "fid"])
    def test_genome_outnumbering_total_raises(self, kind):
        # The searches never propose such a genome; one passed in directly is an error.
        pool, cfg = self._pool(), MetricConfig(kind=kind, k=2)
        evaluator = EnsembleEvaluator(pool, cfg, seed=0, total=2)
        with pytest.raises(ParameterError, match="total 2 is smaller than ensemble size 3"):
            evaluator.evaluate(genome((1, 1, 1), pool))
        with pytest.raises(ParameterError, match="total 2 is smaller than ensemble size 3"):
            intra_d(genome((1, 1, 1), pool), pool, cfg, seed=0, total=2)


@st.composite
def evaluator_cases(draw):
    """A small pool, a neighbour count, some genomes and a union size.

    Integer-grid rows sit exactly on one another's radii, and copied rows
    give zero distances; unions up to three times the real-set size leave
    small generators short of their quota.
    """
    dim = draw(st.integers(1, 4))
    n_real = draw(st.integers(3, 16))
    sizes = draw(st.lists(st.integers(2, 24), min_size=1, max_size=4))
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
    genomes = []
    for _ in range(draw(st.integers(1, 4))):
        bits = draw(st.lists(st.integers(0, 1), min_size=len(sizes), max_size=len(sizes)))
        bits[draw(st.integers(0, len(sizes) - 1))] = 1
        genomes.append(EnsembleGenome(tuple(bits), pool.ref))
    total = draw(st.one_of(st.none(), st.integers(len(sizes), 3 * n_real)))
    return pool, k, genomes, total


class TestEvaluatorEqualsReference:
    """The precomputed evaluator gives intra_d's value bit for bit."""

    @settings(max_examples=300)
    @given(
        case=evaluator_cases(),
        kind=st.sampled_from(["dnc", "fid"]),
        standardize=st.booleans(),
        seed=st.integers(0, 3),
    )
    def test_intra_equals_intra_d(self, case, kind, standardize, seed):
        pool, k, genomes, total = case
        cfg = MetricConfig(kind=kind, k=k, standardize=standardize)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShortfallWarning)
            evaluator = EnsembleEvaluator(pool, cfg, seed=seed, total=total)
            for g in genomes:
                try:
                    want = intra_d(g, pool, cfg, seed, total=total)
                except ParameterError:  # a one-row union has no covariance
                    with pytest.raises(ParameterError):
                        evaluator.evaluate(g)
                    continue
                assert evaluator.evaluate(g).intra == want

    def test_every_fixture_genome(self, fixture_pool):
        cfg = MetricConfig()
        evaluator = EnsembleEvaluator(fixture_pool, cfg, seed=0)
        for mask in range(1, 1 << fixture_pool.size):
            bits = tuple((mask >> i) & 1 for i in range(fixture_pool.size))
            g = EnsembleGenome(bits, fixture_pool.ref)
            assert evaluator.evaluate(g).intra == intra_d(g, fixture_pool, cfg, seed=0)

    @pytest.mark.parametrize("kind", ["dnc", "fid"])
    def test_shortfall_warning_from_evaluate(self, kind):
        rng = np.random.default_rng(2)
        pool = make_pool({"tiny": rng.normal(size=(3, 3))}, rng.normal(size=(8, 3)))
        evaluator = EnsembleEvaluator(pool, MetricConfig(kind=kind, k=2), seed=0, total=5)
        with pytest.warns(ShortfallWarning, match="short by 2"):
            evaluator.evaluate(genome((1,), pool))


@st.composite
def short_member_cases(draw):
    """A pool whose generators hold 2 to 9 rows each, several below a quota, and a
    union size from 1 to twice the generators' rows together, so that every member,
    some members or none fall short, and some genomes outnumber the total."""
    dim = draw(st.integers(1, 3))
    n_real = draw(st.integers(3, 12))
    sizes = draw(st.lists(st.integers(2, 9), min_size=2, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = rng.integers(-2, 3, size=(n_real, dim)).astype(np.float64)
    sets = {}
    for g, size in enumerate(sizes):
        data = rng.standard_normal((size, dim))
        data[: size // 2] = real[rng.integers(0, n_real, size // 2)]
        sets[f"g{g}"] = data
    pool = make_pool(sets, real)
    k = draw(st.integers(1, min(n_real, *sizes) - 1))
    total = draw(st.integers(1, 2 * sum(sizes)))
    genomes = []
    for _ in range(draw(st.integers(1, 5))):
        bits = draw(st.lists(st.integers(0, 1), min_size=len(sizes), max_size=len(sizes)))
        bits[draw(st.integers(0, len(sizes) - 1))] = 1
        genomes.append(EnsembleGenome(tuple(bits), pool.ref))
    return pool, k, genomes, total


def shortfalls(call):
    """``call()``'s result (or its ParameterError) and the texts of its ShortfallWarnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except ParameterError as exc:
            result = exc
    return result, [str(w.message) for w in caught if w.category is ShortfallWarning]


class TestArrayEvaluation:
    """The evaluator's member arrays and quota arithmetic give the references' values and words."""

    @settings(max_examples=300)
    @given(
        case=short_member_cases(),
        kind=st.sampled_from(["dnc", "fid"]),
        standardize=st.booleans(),
        seed=st.integers(0, 3),
        cap_rows=st.integers(1, 20),
    )
    def test_objectives_and_warnings_equal_reference(self, case, kind, standardize, seed, cap_rows):
        # A chunk cap of cap_rows rows splits the set-up's generators over several
        # ball_tables runs, and a cap below a generator's size gives it one alone.
        pool, k, genomes, total = case
        cfg = MetricConfig(kind=kind, k=k, standardize=standardize)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ganens.metrics, "_CHUNK_ENTRIES", cap_rows * (pool.real.dim + 2))
            evaluator = EnsembleEvaluator(pool, cfg, seed=seed, total=total)
        for g in genomes:
            got, words = shortfalls(lambda: evaluator.evaluate(g))
            plan, want_words = shortfalls(lambda: capped_plan(g, pool, total))
            want, _ = shortfalls(lambda: intra_d(g, pool, cfg, seed, total=total))
            if isinstance(plan, ParameterError):  # more members than rows in the union
                assert isinstance(got, ParameterError) and str(got) == str(plan)
                assert words == want_words == []
                continue
            assert words == want_words
            if isinstance(want, ParameterError):  # a one-row union has no covariance
                assert isinstance(got, ParameterError)
                continue
            assert got.intra == want
            assert got.inter == inter_d(g, evaluator.matrix)
            assert got.member_count == g.member_count


class TestOnePlan:
    """One ensemble, one plan: the manifest's quotas are the rows of every union drawn for it."""

    @settings(max_examples=200)
    @given(case=evaluator_cases(), kind=st.sampled_from(["dnc", "fid"]), seed=st.integers(0, 3))
    def test_manifest_quotas_are_the_union(self, case, kind, seed):
        pool, k, genomes, total = case
        cfg = MetricConfig(kind=kind, k=k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShortfallWarning)
            evaluator = EnsembleEvaluator(pool, cfg, seed=seed, total=total)
            for g in genomes:
                objectives = ObjectiveVector(0.0, 0.0, g.member_count, cfg)
                selection = selection_manifest(g, objectives, pool, 1, total)
                quotas = selection.quotas
                members, shares = quota_plan(g, pool.real.rows if total is None else total)
                assert quotas == {
                    pool.ids[i]: min(q, pool.members[i][1].rows)
                    for i, q in zip(members.tolist(), shares.tolist())
                }
                assert sum(quotas.values()) == selection.total
                union = build_union(quotas, pool, seed)
                assert union.rows == selection.total
                start = 0
                for record, dataset in pool.members:
                    if record.id in quotas:
                        share = subsample_rows(dataset, quotas[record.id], seed, record.id)
                        assert share.rows == quotas[record.id]
                        assert np.array_equal(union.data[start : start + share.rows], share.data)
                        start += share.rows
                try:
                    want = metric_d(pool.real, union, cfg)
                except ParameterError:  # a one-row union has no covariance
                    with pytest.raises(ParameterError):
                        evaluator.evaluate(g)
                    continue
                assert evaluator.evaluate(g).intra == want


class TestPermutationSafety:
    def test_relabel_with_resort_keeps_objectives(self):
        # take-all quotas so id-keyed sampling streams never fire
        rng = np.random.default_rng(9)
        real = rng.normal(size=(40, 4))
        x = rng.normal(size=(20, 4))
        y = rng.normal(size=(20, 4)) + 2.0
        forward = make_pool({"aa": x, "bb": y}, real)
        relabeled = make_pool({"zz": x, "yy": y}, real)  # sort order flips
        assert relabeled.ids == ("yy", "zz")
        cfg = MetricConfig(k=3)
        fwd = EnsembleEvaluator(forward, cfg, seed=0).evaluate(genome((1, 1), forward))
        rev = EnsembleEvaluator(relabeled, cfg, seed=0).evaluate(genome((1, 1), relabeled))
        assert fwd.intra == rev.intra
        assert fwd.inter == rev.inter


class TestObjectiveVector:
    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            ObjectiveVector(float("nan"), 0.0, 1, MetricConfig())

    def test_effective_orientation(self):
        higher = ObjectiveVector(0.8, 0.2, 2, MetricConfig(kind="dnc"))
        assert higher.effective() == (0.8, 0.2)
        lower = ObjectiveVector(0.8, 0.2, 2, MetricConfig(kind="fid"))
        assert lower.effective() == (-0.8, -0.2)


@pytest.fixture(scope="module")
def fixture_evaluator(fixture_pool):
    return EnsembleEvaluator(fixture_pool, MetricConfig(), seed=0)


def _select_best(g, pool):
    cfg = MetricConfig()
    front = ParetoFront(((g, ObjectiveVector(0.5, 0.1, g.member_count, cfg)),), cfg.orientation)
    return select_best(front, pool)


class TestOneGate:
    """Every path that names an ensemble's members rejects a genome of another length or
    pool with ``_check_pool``'s words, whether it plans quotas or reads the matrix."""

    PATHS = {
        "evaluate": lambda g, pool, ev: ev.evaluate(g),
        "intra_d": lambda g, pool, ev: intra_d(g, pool, MetricConfig(), seed=0),
        "inter_d": lambda g, pool, ev: inter_d(g, ev.matrix),
        "capped_plan": lambda g, pool, ev: capped_plan(g, pool, pool.real.rows),
        "selection_manifest": lambda g, pool, ev: selection_manifest(
            g, ObjectiveVector(0.5, 0.1, g.member_count, MetricConfig()), pool, 1
        ),
        "select_best": lambda g, pool, ev: _select_best(g, pool),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize(
        "bits, foreign, words",
        [((1, 0, 1, 0, 0, 0), True, "genome was built against a different pool"),
         ((1, 0, 1, 0, 0), False, "genome length 5 does not match pool size 6"),
         ((1, 0, 1, 0, 0, 0, 1), False, "genome length 7 does not match pool size 6")],
        ids=["foreign-pool", "a-bit-short", "a-bit-long"],
    )
    def test_bad_genome_rejected(self, fixture_pool, fixture_evaluator, path, bits, foreign, words):
        g = EnsembleGenome(bits, "deadbeef0000" if foreign else fixture_pool.ref)
        with pytest.raises(ParameterError, match=f"^{re.escape(words)}$"):
            self.PATHS[path](g, fixture_pool, fixture_evaluator)
