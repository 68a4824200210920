import hashlib

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
    SearchConfig,
    ShortfallWarning,
    dominates,
    extract_front,
    search,
    select_best,
    uniobjective_search,
)
from ganens.optimize import _bits_from_mask, _effective_points, _novel_bits, _rank_and_crowd

from conftest import make_pool


def vec(intra, inter, members=1, kind="dnc"):
    return ObjectiveVector(intra, inter, members, MetricConfig(kind=kind))


def entry(bits, intra, inter):
    g = EnsembleGenome(tuple(bits))
    return (g, vec(intra, inter, members=g.member_count))


# A coarse grid gives many ties; 0.0 turns into -0.0 under Frechet negation.
GRID = st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])


@st.composite
def archives(draw):
    """1 to 150 entries over 8-bit genomes, so bits and points both repeat."""
    kind = draw(st.sampled_from(["dnc", "fid"]))
    m = draw(st.integers(1, 150))
    masks = draw(st.lists(st.integers(1, 255), min_size=m, max_size=m))
    points = draw(st.lists(st.tuples(GRID, GRID), min_size=m, max_size=m))
    archive = []
    for mask, (intra, inter) in zip(masks, points):
        genome = EnsembleGenome(_bits_from_mask(mask, 8))
        archive.append((genome, vec(intra, inter, genome.member_count, kind)))
    return archive


def pairwise_front(evaluated):
    """O(m^2) reference: the deduplicated entries that no other entry dominates."""
    unique = {}
    for genome, objectives in evaluated:
        unique.setdefault(genome.bits, (genome, objectives))
    entries = list(unique.values())
    keep = [e for e in entries if not any(dominates(f[1], e[1]) for f in entries if f is not e)]
    keep.sort(key=lambda e: (-e[1].effective()[0], e[1].effective()[1], e[0].bits))
    return keep


def pairwise_rank_and_crowd(objectives):
    """Reference: Deb's fast non-dominated sort over pairwise ``dominates`` calls."""
    m = len(objectives)
    ranks = np.zeros(m, dtype=np.int64)
    dominated_by = [0] * m
    dominating = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if dominates(objectives[i], objectives[j]):
                dominating[i].append(j)
                dominated_by[j] += 1
            elif dominates(objectives[j], objectives[i]):
                dominating[j].append(i)
                dominated_by[i] += 1
    current = [i for i in range(m) if dominated_by[i] == 0]
    rank = 0
    while current:
        nxt = []
        for i in current:
            ranks[i] = rank
            for j in dominating[i]:
                dominated_by[j] -= 1
                if dominated_by[j] == 0:
                    nxt.append(j)
        current = nxt
        rank += 1
    crowd = np.zeros(m, dtype=np.float64)
    points = np.array([o.effective() for o in objectives], dtype=np.float64)
    for r in range(int(ranks.max()) + 1):
        members = np.flatnonzero(ranks == r)
        if len(members) <= 2:
            crowd[members] = np.inf
            continue
        for axis in range(2):
            order = members[np.argsort(points[members, axis], kind="stable")]
            lo, hi = points[order[0], axis], points[order[-1], axis]
            crowd[order[0]] = np.inf
            crowd[order[-1]] = np.inf
            if hi > lo:
                gaps = (points[order[2:], axis] - points[order[:-2], axis]) / (hi - lo)
                crowd[order[1:-1]] += gaps
    return ranks, crowd


class TestDominates:
    def test_componentwise_strict(self):
        assert dominates(vec(0.9, 0.2), vec(0.8, 0.3))

    def test_trade_off_incomparable(self):
        assert not dominates(vec(0.9, 0.3), vec(0.8, 0.2))
        assert not dominates(vec(0.8, 0.2), vec(0.9, 0.3))

    def test_equal_points_do_not_dominate(self):
        assert not dominates(vec(0.5, 0.5), vec(0.5, 0.5))

    def test_irreflexive_antisymmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = vec(*rng.uniform(0, 1, 2))
            b = vec(*rng.uniform(0, 1, 2))
            assert not dominates(a, a)
            assert not (dominates(a, b) and dominates(b, a))

    def test_lower_is_better_flips(self):
        # smaller intra-FID and larger pairwise FID dominate
        assert dominates(vec(0.5, 0.9, kind="fid"), vec(0.8, 0.3, kind="fid"))

    def test_orientation_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            dominates(vec(0.5, 0.5), vec(0.5, 0.5, kind="fid"))


class TestExtractFront:
    def test_hand_example(self):
        evaluated = [
            entry((1, 0, 0), 0.9, 0.2),
            entry((0, 1, 0), 0.8, 0.3),
            entry((0, 0, 1), 0.95, 0.5),
        ]
        front = extract_front(evaluated)
        points = {(o.intra, o.inter) for _, o in front.entries}
        assert points == {(0.9, 0.2), (0.95, 0.5)}

    def test_duplicates_collapse(self):
        evaluated = [entry((1, 0), 0.5, 0.1)] * 4
        assert len(extract_front(evaluated).entries) == 1

    def test_single_entry(self):
        evaluated = [entry((1,), 0.4, 0.0)]
        assert extract_front(evaluated).entries == tuple(evaluated)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            extract_front([])

    def test_no_dominated_pair_survives(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            evaluated = [
                entry(tuple(1 if j == i else 0 for j in range(12)), *rng.uniform(0, 1, 2))
                for i in range(12)
            ]
            front = extract_front(evaluated)
            objs = [o for _, o in front.entries]
            assert not any(
                dominates(a, b) for i, a in enumerate(objs) for j, b in enumerate(objs) if i != j
            )

    def test_sorted_by_descending_effective_delta(self):
        rng = np.random.default_rng(2)
        evaluated = [
            entry(tuple(1 if j == i else 0 for j in range(8)), *rng.uniform(0, 1, 2))
            for i in range(8)
        ]
        front = extract_front(evaluated)
        deltas = [o.effective()[0] for _, o in front.entries]
        assert deltas == sorted(deltas, reverse=True)

    @settings(max_examples=150)
    @given(archive=archives())
    def test_equals_pairwise_reference(self, archive):
        front = extract_front(archive)
        expected = pairwise_front(archive)
        assert len(front.entries) == len(expected)
        assert all(g is h and o is p for (g, o), (h, p) in zip(front.entries, expected))

    def test_mixed_orientation_rejected(self):
        fid = EnsembleGenome((0, 1))
        evaluated = [entry((1, 0), 0.5, 0.1), (fid, vec(0.4, 0.2, kind="fid"))]
        with pytest.raises(ParameterError, match="orientations"):
            extract_front(evaluated)
        with pytest.raises(ParameterError, match="orientations"):
            _effective_points([o for _, o in evaluated])


class TestRankAndCrowd:
    @settings(max_examples=100)
    @given(archive=archives())
    def test_equals_pairwise_reference(self, archive):
        objectives = [o for _, o in archive]
        ranks, crowd = _rank_and_crowd(_effective_points(objectives))
        expected_ranks, expected_crowd = pairwise_rank_and_crowd(objectives)
        assert np.array_equal(ranks, expected_ranks)
        assert np.array_equal(crowd, expected_crowd)


def listed_novel_bits(bits, rng, seen, limit):
    """Reference for pools of at most 20 generators: list every unseen mask of at most
    ``limit`` members, then draw."""
    if bits not in seen:
        return bits
    n = len(bits)
    feasible = [m for m in range(1, 1 << n) if bin(m).count("1") <= limit]
    if len(seen) >= len(feasible):
        return None
    for flips in (1, 2, 4, 8):
        for _ in range(16):
            cand = list(bits)
            for pos in rng.integers(0, n, size=flips):
                cand[pos] ^= 1
            if sum(cand) == 0:
                cand[int(rng.integers(n))] = 1
            elif sum(cand) > limit:
                members = [i for i, b in enumerate(cand) if b]
                for pos in rng.choice(members, sum(cand) - limit, replace=False):
                    cand[pos] = 0
            t = tuple(cand)
            if t not in seen:
                return t
    seen_masks = {sum(b << i for i, b in enumerate(s)) for s in seen}
    remaining = [m for m in feasible if m not in seen_masks]
    return _bits_from_mask(remaining[int(rng.integers(len(remaining)))], n)


class TestNovelBits:
    @settings(max_examples=200)
    @given(data=st.data(), n=st.integers(3, 10), seed=st.integers(0, 2**32 - 1))
    def test_equals_listing_reference(self, data, n, seed):
        # A nearly full archive makes the random flips miss, so the exact draw runs;
        # a member limit below n leaves genomes out of the space.
        limit = data.draw(st.one_of(st.just(n), st.integers(1, n)))
        feasible = [m for m in range(1, 1 << n) if bin(m).count("1") <= limit]
        unseen = data.draw(st.sets(st.sampled_from(feasible), max_size=3))
        seen = {_bits_from_mask(m, n) for m in feasible if m not in unseen}
        if not seen:
            return
        bits = data.draw(st.sampled_from(sorted(seen)))
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _novel_bits(bits, rng, seen, limit)
        assert got == listed_novel_bits(bits, reference_rng, seen, limit)
        assert got is None or sum(got) <= limit
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def small_pool(seed=3, generators=6, rows=40, dim=4):
    rng = np.random.default_rng(seed)
    real = rng.normal(size=(rows, dim))
    sets = {}
    for i in range(generators):
        drift = rng.normal(0, 0.3 + 0.4 * (i % 3), size=dim)
        sets[f"g{i}"] = real + drift + rng.normal(0, 0.2, size=(rows, dim))
    return make_pool(sets, real)


class TestSearch:
    def test_exhaustive_counts(self):
        pool = small_pool(generators=3)
        evaluator = EnsembleEvaluator(pool, MetricConfig(k=2), seed=0)
        result = search(pool, evaluator, SearchConfig(algorithm="exhaustive", seed=0))
        assert len(result.evaluations) == 7

    def test_exhaustive_cap(self):
        rng = np.random.default_rng(4)
        sets = {f"g{i:02d}": rng.normal(size=(6, 2)) for i in range(21)}
        pool = make_pool(sets, rng.normal(size=(6, 2)))
        with pytest.raises(ParameterError, match="capped"):
            search(pool, lambda g: None, SearchConfig(algorithm="exhaustive"))

    def test_random_budget_and_repair(self):
        pool = small_pool(generators=4)
        evaluator = EnsembleEvaluator(pool, MetricConfig(k=2), seed=0)
        result = search(pool, evaluator, SearchConfig(algorithm="random", budget=50, seed=5))
        assert len(result.evaluations) == 50
        assert all(g.member_count >= 1 for g, _ in result.evaluations)

    def test_evolutionary_budget_exact(self):
        pool = small_pool(generators=10, rows=30)
        evaluator = EnsembleEvaluator(pool, MetricConfig(k=2), seed=0)
        cfg = SearchConfig(algorithm="nsga2", budget=120, population=20, seed=1)
        result = search(pool, evaluator, cfg)
        assert len(result.evaluations) == 120
        # no-revisit archive: every evaluation is a distinct genome
        assert len({g.bits for g, _ in result.evaluations}) == 120

    def test_evolutionary_exhausts_small_space(self):
        pool = small_pool(generators=4)
        evaluator = EnsembleEvaluator(pool, MetricConfig(k=2), seed=0)
        cfg = SearchConfig(algorithm="nsga2", budget=200, population=4, seed=2)
        result = search(pool, evaluator, cfg)
        assert len(result.evaluations) == 15
        assert len({g.bits for g, _ in result.evaluations}) == 15

    def test_seeded_determinism(self):
        pool = small_pool(generators=6)
        for algo in ("random", "nsga2"):
            runs = []
            for _ in range(2):
                evaluator = EnsembleEvaluator(pool, MetricConfig(k=2), seed=0)
                cfg = SearchConfig(algorithm=algo, budget=40, population=10, seed=9)
                runs.append(search(pool, evaluator, cfg))
            assert [g.bits for g, _ in runs[0].evaluations] == [g.bits for g, _ in runs[1].evaluations]
            assert [o for _, o in runs[0].front.entries] == [o for _, o in runs[1].front.entries]

    def test_budgeted_front_not_dominated_by_exhaustive(self):
        pool = small_pool(generators=6)
        evaluator = EnsembleEvaluator(pool, MetricConfig(k=2), seed=0)
        exhaustive = search(pool, evaluator, SearchConfig(algorithm="exhaustive", seed=0))
        evolved = search(
            pool, evaluator, SearchConfig(algorithm="nsga2", budget=63, population=10, seed=3)
        )
        for _, candidate in evolved.front.entries:
            assert not any(dominates(best, candidate) for _, best in exhaustive.front.entries)

    def test_config_validation(self):
        with pytest.raises(ParameterError, match="cover at least one population"):
            SearchConfig(algorithm="nsga2", budget=5, population=10)
        with pytest.raises(ParameterError):
            SearchConfig(budget=0)
        with pytest.raises(ParameterError):
            SearchConfig(crossover_rate=1.5)


def search_digest(entries):
    text = repr([(g.bits, o.intra.hex(), o.inter.hex()) for g, o in entries])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Digests of the archive and the front, bit for bit, as the pairwise
# dominance loops produced them; any change to search output changes them.
# The fid rows pin Frechet values to the last bit, as the covariance-factor
# route gives them; another BLAS or LAPACK build may round them differently.
GOLDEN = [
    (6, "dnc", dict(algorithm="nsga2", budget=40, population=10, seed=9),
     "e2725c8f8987ba3417fe5b02574c484144350bb43dd50eb1ab4554786a26444a",
     "e0658edc303d63ab4bd2ede1923e9659e06fa5c0cbad82332b088212478bf4c7"),
    (6, "dnc", dict(algorithm="random", budget=40, seed=9),
     "3b64a13899df3fa26f2a8cd273e4f22fd0b4cf2ffb93892783a01be58fda600c",
     "ecf07aa24e6d4269bb493a52ce41b6cb9356898634d7f06084cc001880399e6c"),
    (6, "dnc", dict(algorithm="exhaustive", seed=0),
     "75c93b06f10b88bb6a572ba3130fd78c7f1a143bdbbade0188d00a1d865a5a10",
     "3aca0d12dd85ce697b2073605d650b0c8050354ee9e1c39b63b5fcd70cc087d0"),
    (12, "dnc", dict(algorithm="nsga2", budget=300, population=20, seed=5),
     "c8c65818a6527c402a159a4222d8af17babc768bbe6d34203d0cba70b3159c11",
     "fe8727e2a8a74e3f9de80ee4a472abe24377f387866ecc6649a66b886a1591c4"),
    # Budgets past the space, so the exact draw of _novel_bits runs.
    (6, "dnc", dict(algorithm="nsga2", budget=100, population=10, seed=3),
     "acab8fe563997d2706436fa8c7343837b895350e90580bf9df7bd2035c1d2a0a",
     "3aca0d12dd85ce697b2073605d650b0c8050354ee9e1c39b63b5fcd70cc087d0"),
    (5, "dnc", dict(algorithm="nsga2", budget=40, population=4, seed=2),
     "89bf2358f1c77b585cabfc2fb202debfd29fd540c0bf7340d313e6fa6ca02537",
     "883e3b554709a5a1250c7024aedcc4c0bdf9411c26e8fdfa66d374488c39d7c5"),
    (6, "fid", dict(algorithm="nsga2", budget=40, population=10, seed=9),
     "b8b2842c666980e4724ef098ec5b8875ce80e1d7c483059e179c478832f60af1",
     "4c9c3f19b3c34ba2549824354ce82a2d2bbde7da6e2beedc54dc9ddf73df49a6"),
    (6, "fid", dict(algorithm="exhaustive", seed=0),
     "cf060c4b3bd23323fa9cdd3102dd662eb76cea4dcd9de8d26d2d9b96c4228f8a",
     "f8d6b9e9accadaaf4606c85eea1254d879f405cf9a6a4135065a5d3d5b0073df"),
]


@pytest.mark.parametrize(
    "generators, kind, config, archive_digest, front_digest",
    GOLDEN,
    ids=["nsga2", "random", "exhaustive", "nsga2-p12", "nsga2-past-space", "nsga2-p5-past-space",
         "fid-nsga2", "fid-exhaustive"],
)
def test_search_golden_digest(generators, kind, config, archive_digest, front_digest):
    pool = small_pool(generators=generators)
    evaluator = EnsembleEvaluator(pool, MetricConfig(kind=kind, k=2), seed=0)
    result = search(pool, evaluator, SearchConfig(**config))
    assert search_digest(result.evaluations) == archive_digest
    assert search_digest(result.front.entries) == front_digest


class TestSelectBest:
    def _pool_for_ids(self, n, rows=20):
        rng = np.random.default_rng(6)
        sets = {f"g{i}": rng.normal(size=(rows, 3)) for i in range(n)}
        return make_pool(sets, rng.normal(size=(20, 3)))

    def test_max_delta_wins(self):
        pool = self._pool_for_ids(3)
        front = extract_front([entry((1, 0, 0), 0.9, 0.2), entry((0, 0, 1), 0.95, 0.5)])
        selection = select_best(front, pool, total=20)
        assert selection.chosen == ("g2",)
        assert selection.objectives.intra == 0.95

    def test_tie_breaks_toward_fewer_members(self):
        pool = self._pool_for_ids(5)
        front = extract_front(
            [entry((1, 1, 1, 0, 0), 0.9, 0.3), entry((0, 0, 0, 1, 1), 0.9, 0.3)]
        )
        selection = select_best(front, pool, total=20)
        assert len(selection.chosen) == 2

    def test_tie_breaks_lexicographically_last(self):
        pool = self._pool_for_ids(4)
        front = extract_front([entry((1, 0, 1, 0), 0.9, 0.3), entry((0, 1, 1, 0), 0.9, 0.3)])
        selection = select_best(front, pool, total=20)
        # (0,1,1,0) is the lexicographically smaller bit vector
        assert selection.chosen == ("g1", "g2")

    def test_quotas_sum_to_total(self):
        front = extract_front([entry((1, 1, 1), 0.8, 0.1)])
        selection = select_best(front, self._pool_for_ids(3, rows=40), total=100)
        assert sum(selection.quotas.values()) == selection.total == 100
        assert sorted(selection.quotas.values(), reverse=True) == [34, 33, 33]
        # 20-row generators give all their rows: the quotas and total are what the union holds.
        with pytest.warns(ShortfallWarning):
            short = select_best(front, self._pool_for_ids(3), total=100)
        assert short.quotas == {"g0": 20, "g1": 20, "g2": 20} and short.total == 60

    def test_singleton_front(self):
        pool = self._pool_for_ids(2)
        front = extract_front([entry((0, 1), 0.7, 0.0)])
        selection = select_best(front, pool, total=10)
        assert selection.chosen == ("g1",)
        assert selection.front_size == 1

    def test_rescaling_delta_keeps_choice(self):
        pool = self._pool_for_ids(4)
        rng = np.random.default_rng(7)
        raw = [
            entry(tuple(1 if j == i else 0 for j in range(4)), *rng.uniform(0.1, 1, 2))
            for i in range(4)
        ]
        base = select_best(extract_front(raw), pool, total=20)
        for scale in (0.5, 3.7, 100.0):
            scaled = [
                (g, vec(o.intra * scale, o.inter, o.member_count)) for g, o in raw
            ]
            again = select_best(extract_front(scaled), pool, total=20)
            assert again.chosen == base.chosen

    def test_empty_front_rejected(self):
        pool = self._pool_for_ids(2)
        from ganens import ParetoFront
        from ganens.metrics import Orientation

        with pytest.raises(ParameterError):
            select_best(ParetoFront(entries=(), orientation=Orientation.HIGHER_IS_BETTER), pool)


class TestUniObjective:
    def test_single_generator_pool_matches_multi(self):
        rng = np.random.default_rng(8)
        real = rng.normal(size=(24, 3))
        pool = make_pool({"only": real + 0.05}, real)
        evaluator = EnsembleEvaluator(pool, MetricConfig(k=2), seed=0)
        cfg = SearchConfig(algorithm="exhaustive", seed=0)
        multi = select_best(search(pool, evaluator, cfg).front, pool)
        uni = uniobjective_search(pool, evaluator, cfg)
        assert multi.chosen == uni.chosen == ("only",)

    def test_deterministic(self):
        pool = small_pool(generators=5)
        cfg = SearchConfig(algorithm="nsga2", budget=30, population=8, seed=4)
        runs = [
            uniobjective_search(pool, EnsembleEvaluator(pool, MetricConfig(k=2), seed=0), cfg)
            for _ in range(2)
        ]
        assert runs[0].chosen == runs[1].chosen

    def test_delta_at_least_front_max(self):
        pool = small_pool(generators=6)
        evaluator = EnsembleEvaluator(pool, MetricConfig(k=2), seed=0)
        cfg = SearchConfig(algorithm="exhaustive", seed=0)
        result = search(pool, evaluator, cfg)
        multi = select_best(result.front, pool)
        uni = uniobjective_search(pool, evaluator, cfg)
        assert uni.objectives.effective()[0] == pytest.approx(
            multi.objectives.effective()[0]
        )
