"""Binary multi-objective subset search and Pareto-front selection.

Three candidate generators are available: exhaustive enumeration (small
pools only), uniform random sampling, and an elitist non-dominated-sorting
evolutionary loop. Every evaluated genome is archived; the front is always
extracted over the full archive, not just the final population. The
evolutionary loop never re-evaluates a genome it has already seen, so its
budget counts unique evaluations and the search degenerates gracefully into
full enumeration once the budget covers the whole space. Dominance works on
one (m, 2) array of effective objectives, sorted once for one 2-D maxima
sweep (Kung, Luccio & Preparata, JACM 1975): it gives the front, and NSGA-II
ranks (Deb et al., IEEE TEVC 2002) peel its fronts one after another. Both
agree exactly with pairwise ``dominates``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError
from .metrics import Orientation
from .objective import EnsembleGenome, ObjectiveVector, capped_plan, quotas_by_id
from .store import Pool

EXHAUSTIVE_CAP = 20


class Algorithm(str, Enum):
    EXHAUSTIVE = "exhaustive"
    RANDOM = "random"
    EVOLUTIONARY = "nsga2"


@dataclass(frozen=True)
class SearchConfig:
    """Search algorithm and budget knobs; all randomness flows from ``seed``."""

    algorithm: Algorithm = Algorithm.EVOLUTIONARY
    budget: int = 1000
    population: int = 50
    crossover_rate: float = 0.9
    mutation_rate: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        if self.budget < 1:
            raise ParameterError(f"budget must be >= 1, got {self.budget}")
        if self.population < 2:
            raise ParameterError(f"population must be >= 2, got {self.population}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ParameterError(f"crossover_rate must lie in [0, 1], got {self.crossover_rate}")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ParameterError(f"mutation_rate must lie in [0, 1], got {self.mutation_rate}")
        if self.algorithm is Algorithm.EVOLUTIONARY and self.budget < self.population:
            raise ParameterError(
                f"budget {self.budget} must cover at least one population of {self.population}"
            )


@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated entries, deduplicated by bits, sorted by descending effective delta."""

    entries: tuple[tuple[EnsembleGenome, ObjectiveVector], ...]
    orientation: Orientation


@dataclass(frozen=True)
class SearchResult:
    """A Pareto front plus the archive of every evaluation, in order."""

    front: ParetoFront
    evaluations: tuple[tuple[EnsembleGenome, ObjectiveVector], ...]


@dataclass(frozen=True)
class SelectionManifest:
    """The chosen ensemble and its quotas, the rows each member gives to its union."""

    chosen: tuple[str, ...]
    quotas: dict[str, int]
    objectives: ObjectiveVector
    front_size: int
    total: int

    def __post_init__(self) -> None:
        if not self.chosen:
            raise ParameterError("selection must keep at least one generator")
        if sum(self.quotas.values()) != self.total:
            raise ParameterError("quotas must sum to the union's total")


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """Pareto dominance: at least as good on both axes, strictly better on one."""
    if a.metric.orientation is not b.metric.orientation:
        raise ParameterError("cannot compare objective vectors with different orientations")
    a_intra, a_inter = a.effective()
    b_intra, b_inter = b.effective()
    return a_intra >= b_intra and a_inter <= b_inter and (a_intra > b_intra or a_inter < b_inter)


def _effective_points(objectives: list[ObjectiveVector]) -> np.ndarray:
    """The (m, 2) effective objectives; mixed orientations fail as in ``dominates``."""
    if any(o.metric.orientation is not objectives[0].metric.orientation for o in objectives):
        raise ParameterError("cannot compare objective vectors with different orientations")
    return np.array([o.effective() for o in objectives], dtype=np.float64)


def _non_dominated(sorted_points: np.ndarray) -> np.ndarray:
    """Which of the nonempty (m, 2) ``sorted_points``, in descending delta, then ascending
    Delta, no other dominates, by Kung et al.'s sweep.

    A group of equal delta keeps its points at the group's least Delta if that
    lies strictly below every Delta of higher delta; equal points all stay.
    """
    delta, overlap = sorted_points.T
    starts = np.r_[True, delta[1:] != delta[:-1]]
    group = np.cumsum(starts) - 1
    least = overlap[starts]  # each group sorts by ascending Delta
    above = np.r_[np.inf, np.minimum.accumulate(least)[:-1]]
    return (overlap == least[group]) & (least[group] < above[group])


def extract_front(
    evaluated: list[tuple[EnsembleGenome, ObjectiveVector]]
) -> ParetoFront:
    """Non-dominated subset of an evaluation archive, by ``_non_dominated``'s sweep."""
    if not evaluated:
        raise ParameterError("cannot extract a front from an empty evaluation list")
    unique: dict[tuple[int, ...], tuple[EnsembleGenome, ObjectiveVector]] = {}
    for genome, objectives in evaluated:
        unique.setdefault(genome.bits, (genome, objectives))
    entries = list(unique.values())
    points = _effective_points([objectives for _, objectives in entries])
    order = np.lexsort((points[:, 1], -points[:, 0]))
    keep = [entries[i] for i in order[_non_dominated(points[order])]]
    keep.sort(key=lambda e: (-e[1].effective()[0], e[1].effective()[1], e[0].bits))
    orientation = evaluated[0][1].metric.orientation
    return ParetoFront(entries=tuple(keep), orientation=orientation)


def _bits_from_mask(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def _unseen_feasible(pick: int, n: int, limit: int, seen: set[tuple[int, ...]]) -> tuple[int, ...]:
    """The ``pick``-th (from 0), in increasing order, of the nonempty masks with at most
    ``limit`` members that ``seen`` (a set of such masks' bits) lacks.

    The masks are ranked by counting, not listed: a mask's rank among the feasible
    ones adds, at each member i, the feasible masks that share its bits above i and
    lack i. ``pick`` steps past the seen masks' ranks, then is unranked.
    """
    # fill[i][c]: the i-bit low parts (at most i members) that complete c higher members.
    fill = [[sum(math.comb(i, j) for j in range(c == 0, min(limit - c, i) + 1))
             for c in range(n + 1)] for i in range(n)]
    high_first = range(n - 1, -1, -1)
    for rank in sorted(
        sum(fill[i][c] for c, i in enumerate(i for i in high_first if bits[i])) for bits in seen
    ):
        pick += rank <= pick  # a seen mask at or below the candidate shifts it on
    bits, c = [0] * n, 0
    for i in high_first:
        if pick >= fill[i][c]:
            pick -= fill[i][c]
            bits[i], c = 1, c + 1
    return tuple(bits)


def _repair(bits: np.ndarray, rng: np.random.Generator, limit: int) -> None:
    """Make a proposed genome one ``evaluate`` accepts, in place, drawing from ``rng`` only
    when it must: an empty genome gains one random member, and one with more than
    ``limit`` members loses random members down to ``limit``.
    """
    count = np.count_nonzero(bits)
    if count == 0:
        bits[int(rng.integers(bits.size))] = 1
    elif count > limit:
        bits[rng.choice(np.flatnonzero(bits), count - limit, replace=False)] = 0


def _random_bits(rng: np.random.Generator, n: int, limit: int) -> tuple[int, ...]:
    bits = rng.integers(0, 2, size=n)
    _repair(bits, rng, limit)
    return tuple(bits.tolist())


def _novel_bits(
    bits: tuple[int, ...],
    rng: np.random.Generator,
    seen: set[tuple[int, ...]],
    limit: int,
) -> tuple[int, ...] | None:
    """Steer a candidate away from already-evaluated genomes.

    Tries escalating random flips around the duplicate, then uniform
    redraws; for small pools one of the remaining genomes is drawn exactly,
    by rank (``_unseen_feasible``).
    Every genome it returns has at most ``limit`` members. Returns None once
    every such nonempty genome has been seen.
    """
    if bits not in seen:
        return bits
    n = len(bits)
    # The nonempty genomes with at most limit members: all but those with more.
    space = (1 << n) - 1 - sum(math.comb(n, count) for count in range(limit + 1, n + 1))
    if len(seen) >= space:
        return None
    for flips in (1, 2, 4, 8):
        for _ in range(16):
            cand = np.array(bits)
            for pos in rng.integers(0, n, size=flips):
                cand[pos] ^= 1
            _repair(cand, rng, limit)
            t = tuple(cand.tolist())
            if t not in seen:
                return t
    if n <= EXHAUSTIVE_CAP:
        return _unseen_feasible(int(rng.integers(space - len(seen))), n, limit, seen)
    for _ in range(10_000):
        t = _random_bits(rng, n, limit)
        if t not in seen:
            return t
    return None


def _rank_and_crowd(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-dominated sort ranks plus per-front crowding distances (Deb et al.).

    ``points`` are (m, 2) effective objectives (``_effective_points``), sorted
    once as ``_non_dominated`` takes them; the unranked points it keeps form
    the next front, and the rest stay sorted. Crowding takes every front at
    once: along each axis, points sort by front, then by value (stably), the
    ends of a front are infinite, and a point inside one adds its
    neighbours' gap over the front's range, when that is not 0.
    """
    m = len(points)
    ranks = np.empty(m, dtype=np.int64)
    rest, rank = np.lexsort((points[:, 1], -points[:, 0])), 0
    while rest.size:
        front = _non_dominated(points[rest])
        ranks[rest[front]] = rank
        rest, rank = rest[~front], rank + 1

    crowd = np.zeros(m, dtype=np.float64)
    for axis in range(2):
        order = np.lexsort((points[:, axis], ranks))
        value, front = points[order, axis], ranks[order]
        starts = np.r_[True, front[1:] != front[:-1]]
        ends = np.r_[starts[1:], True]
        group = np.cumsum(starts) - 1
        span = (value[ends] - value[starts])[group]
        inner = np.flatnonzero(~starts & ~ends & (span > 0))
        crowd[order[starts | ends]] = np.inf
        crowd[order[inner]] += (value[inner + 1] - value[inner - 1]) / span[inner]
    return ranks, crowd


def _evolutionary(n: int, evaluate, cfg: SearchConfig, limit: int) -> None:
    """Elitist NSGA-II loop over binary genomes with a no-revisit archive.

    A generation is held as arrays: its genomes' bits (one row each) and
    their effective objectives. Random numbers are drawn in one fixed order,
    so a seed gives one archive.
    """
    rng = np.random.default_rng(cfg.seed)
    mutation = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / n
    seen: set[tuple[int, ...]] = set()
    genes: list[bytes] = []
    points: list[tuple[float, float]] = []

    def admit(bits: tuple[int, ...]) -> bool:
        novel = _novel_bits(bits, rng, seen, limit)
        if novel is None:
            return False
        seen.add(novel)
        genes.append(bytes(novel))
        points.append(evaluate(novel).effective())
        return True

    def generation() -> tuple[np.ndarray, np.ndarray]:
        """The admitted genomes since the last call, as arrays."""
        bits = np.frombuffer(b"".join(genes), dtype=np.uint8).reshape(len(genes), n)
        result = bits, np.array(points, dtype=np.float64).reshape(len(points), 2)
        genes.clear()
        points.clear()
        return result

    while len(genes) < min(cfg.population, cfg.budget):
        if not admit(_random_bits(rng, n, limit)):
            return
    parents, parent_points = generation()
    evaluated = len(parents)

    while evaluated < cfg.budget:
        ranks, crowd = (a.tolist() for a in _rank_and_crowd(parent_points))

        def tournament() -> np.ndarray:
            i, j = rng.integers(len(parents), size=2).tolist()
            if ranks[i] != ranks[j]:
                winner = i if ranks[i] < ranks[j] else j
            elif crowd[i] != crowd[j]:
                winner = i if crowd[i] > crowd[j] else j
            else:
                winner = i if rng.random() < 0.5 else j
            return parents[winner]

        goal = min(cfg.population, cfg.budget - evaluated)
        while len(genes) < goal:
            p1, p2 = tournament(), tournament()
            if rng.random() < cfg.crossover_rate:
                child = np.where(rng.random(n) < 0.5, p1, p2)
            else:
                child = p1.copy()
            child ^= rng.random(n) < mutation
            _repair(child, rng, limit)
            if not admit(tuple(child.tolist())):
                return
        offspring, offspring_points = generation()
        evaluated += len(offspring)

        # Elitist environmental selection over parents plus offspring.
        combined = np.concatenate([parents, offspring])
        combined_points = np.concatenate([parent_points, offspring_points])
        ranks, crowd = _rank_and_crowd(combined_points)
        keep = np.lexsort((-crowd, ranks))[: cfg.population]
        parents, parent_points = combined[keep], combined_points[keep]


def check_search(n: int, cfg: SearchConfig) -> None:
    """Raise unless ``cfg`` can search a pool of ``n`` generators. Callers run it before
    the evaluator's set-up, which builds the pairwise matrix."""
    if n < 1:
        raise ParameterError("pool has no generators")
    if cfg.algorithm is Algorithm.EXHAUSTIVE and n > EXHAUSTIVE_CAP:
        raise ParameterError(
            f"exhaustive search is capped at {EXHAUSTIVE_CAP} generators, pool has {n}"
        )


def search(pool: Pool, evaluator, cfg: SearchConfig) -> SearchResult:
    """Run the configured candidate generation and archive every evaluation.

    The returned front covers the whole archive. Exhaustive search requires
    a pool of at most 2^20 genomes. ``evaluator`` is an ``EnsembleEvaluator``
    (or a callable with its ``total``): a genome cannot have more members
    than the union has rows, so no search proposes one. Exhaustive search
    skips such masks; random search and NSGA-II repair such a genome as they
    repair an empty one, by clearing members drawn from their generator.
    """
    n = pool.size
    check_search(n, cfg)
    evaluations: list[tuple[EnsembleGenome, ObjectiveVector]] = []

    def evaluate_bits(bits: tuple[int, ...]) -> ObjectiveVector:
        genome = EnsembleGenome(bits, pool.ref)
        objectives = evaluator(genome)
        evaluations.append((genome, objectives))
        return objectives

    if cfg.algorithm is Algorithm.EXHAUSTIVE:
        for mask in range(1, (1 << n)):
            if mask.bit_count() <= evaluator.total:
                evaluate_bits(_bits_from_mask(mask, n))
    elif cfg.algorithm is Algorithm.RANDOM:
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.budget):
            evaluate_bits(_random_bits(rng, n, evaluator.total))
    else:
        _evolutionary(n, evaluate_bits, cfg, evaluator.total)

    return SearchResult(front=extract_front(evaluations), evaluations=tuple(evaluations))


def _selection_key(entry: tuple[EnsembleGenome, ObjectiveVector]):
    genome, objectives = entry
    return (-objectives.effective()[0], genome.member_count, genome.bits)


def selection_manifest(
    genome: EnsembleGenome,
    objectives: ObjectiveVector,
    pool: Pool,
    front_size: int,
    total: int | None = None,
) -> SelectionManifest:
    """The manifest naming ``genome``'s members, in canonical order, with their quotas.

    Quotas are ``capped_plan``'s rows at ``total`` (default the real-set size), and the
    manifest's total is their sum: the union's row count, short of ``total`` on a shortfall.
    """
    budget = pool.real.rows if total is None else int(total)
    quotas = quotas_by_id(capped_plan(genome, pool, budget), pool)
    return SelectionManifest(
        chosen=tuple(quotas),
        quotas=quotas,
        objectives=objectives,
        front_size=front_size,
        total=sum(quotas.values()),
    )


def select_best(
    front: ParetoFront,
    pool: Pool,
    total: int | None = None,
) -> SelectionManifest:
    """Pick the front entry with maximal effective delta and plan its quotas.

    Ties break toward fewer members, then the lexicographically smallest bit
    vector, biasing toward the cheaper ensemble.
    """
    if not front.entries:
        raise ParameterError("cannot select from an empty front")
    genome, objectives = min(front.entries, key=_selection_key)
    return selection_manifest(genome, objectives, pool, len(front.entries), total)

