"""Genome evaluation: quota-sampled unions, fidelity delta, and overlap Delta.

A genome is a binary inclusion vector over the pool. Its fidelity objective
(delta, "Intra-d") is the metric between the real set and a union drawn
from the selected generators under per-generator quotas that sum to the
real-set size, so the score stays comparable across ensemble sizes. Its
overlap objective (Delta, "Inter-d") is the mean pairwise metric over the
selected generators' sets, read from a precomputed symmetric matrix.

Every row sample of a generator g is a prefix of one fixed permutation of
its rows, seeded by (seed, g's id): ``subsample_rows`` returns the first
rows of that draw order, and ``build_union`` and ``pairwise_matrix`` sample
through it. ``UnionScore``, the one Intra-d scorer, which the evaluator and
the quality report share, scores a union from per-generator state built
once. For density and coverage it keeps ``metrics.ball_tables`` of the
real set's closed k-NN balls over each generator's rows in draw order,
two integer arrays per generator: ``prefix[t]``, the number of (ball, row)
hits among the first t rows, and ``first[i]``, the rank of the first row
inside real ball i (the row count if none is). A union then has
``sum(prefix_g[take_g])`` hits over ``sum(take_g)`` rows and covers ball i
iff ``first_g[i] < take_g`` for some member g. Ball decisions are exact and
counts are integers, so this equals ``density_coverage`` of the built union
bit for bit, whatever the row order inside the union.

An evaluation is array work. ``capped_plan``, the one quota rule, is the
gate from a genome to its pool (``inter_d`` checks against the matrix): it
gives the members as an index array m, which Intra-d and Inter-d share,
and quotas from one ``divmod(total, n)``, capped at the pool's row counts.
The manifest and ``intra_d`` key the same plan by id (``quotas_by_id``),
and ``union_plan`` reads such quotas back as a plan. Inter-d is one block
mean over ``V[m][:, m]``, for the evaluator and ``inter_d`` alike.
``intra_d``, ``inter_d`` and ``build_union`` stay as the reference.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError, ShortfallWarning
from .metrics import (
    MetricConfig,
    MetricKind,
    ball_tables,
    factored_set,
    frechet_factored,
    harmonic_d,
    metric_d,
    pairwise_density_coverage,
    real_frame,
)
from .store import EmbeddingSet, Pool
from .util import readonly, seeded_stream


@dataclass(frozen=True)
class EnsembleGenome:
    """Binary inclusion vector over a pool's canonically ordered generators."""

    bits: tuple[int, ...]
    pool_ref: str = ""

    def __post_init__(self) -> None:
        try:
            flags = bytes(tuple(self.bits))  # integers, bools and numpy integers in 0..255
        except (TypeError, ValueError):  # anything else goes through int(), and 2 marks a bad bit
            flags = bytes(b if b in (0, 1) else 2 for b in map(int, self.bits))
        if flags.translate(None, b"\x00\x01"):
            raise ParameterError("genome bits must be 0 or 1")
        if b"\x01" not in flags:
            raise ParameterError("empty ensembles are invalid; repair before evaluation")
        object.__setattr__(self, "bits", tuple(flags))

    @property
    def member_count(self) -> int:
        return sum(self.bits)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)

    @classmethod
    def from_indices(cls, indices, size: int, pool_ref: str = "") -> "EnsembleGenome":
        picked = set(int(i) for i in indices)
        if not all(0 <= i < size for i in picked):
            raise ParameterError(f"generator index out of range for pool of size {size}")
        return cls(tuple(1 if i in picked else 0 for i in range(size)), pool_ref)

    @classmethod
    def from_ids(cls, ids, pool: Pool, source: str, key: str) -> "EnsembleGenome":
        """The genome of ``ids``, field ``key`` of ``source``: a DataError unless they are
        distinct members of ``pool``.
        """
        if not isinstance(ids, (list, tuple)) or not ids or not all(isinstance(g, str) for g in ids):
            raise DataError(
                f"{source} is malformed: {key!r} must be a nonempty list of generator ids"
            )
        position = {gid: i for i, gid in enumerate(pool.ids)}
        unknown = [gid for gid in ids if gid not in position]
        if unknown:
            raise DataError(f"{source} names generators not in the pool: {unknown}")
        if len(set(ids)) != len(ids):
            raise DataError(f"{source} names a generator twice in {key!r}")
        return cls.from_indices((position[g] for g in ids), pool.size, pool.ref)


@dataclass(frozen=True)
class ObjectiveVector:
    """The (delta, Delta) pair for one genome plus the metric it was scored with."""

    intra: float
    inter: float
    member_count: int
    metric: MetricConfig

    def __post_init__(self) -> None:
        if not (math.isfinite(self.intra) and math.isfinite(self.inter)):
            raise ParameterError(f"objectives must be finite, got ({self.intra}, {self.inter})")

    def effective(self) -> tuple[float, float]:
        """Objectives oriented so the first is maximized and the second minimized.

        For a lower-is-better metric (Frechet) both axes are negated: small
        intra-FID means high fidelity, and large pairwise FID means the
        members differ, i.e. low redundancy.
        """
        if self.metric.orientation.value == "higher":
            return (self.intra, self.inter)
        return (-self.intra, -self.inter)


@dataclass(frozen=True)
class PairwiseMatrix:
    """Symmetrized pairwise metric values over a pool, computed once and reused."""

    values: np.ndarray
    ids: tuple[str, ...]
    pool_ref: str
    metric: MetricConfig
    seed: int
    sample_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", readonly(np.asarray(self.values, dtype=np.float64)))

    def write_csv(self, dest: str | Path, provenance: dict | None = None) -> None:
        """CSV with a generator-id header row plus a JSON metadata sidecar."""
        path = Path(dest)
        lines = ["id," + ",".join(self.ids)]
        for gid, row in zip(self.ids, self.values):
            lines.append(gid + "," + ",".join(repr(float(v)) for v in row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sidecar = {
            "metric": {
                "kind": self.metric.kind.value,
                "k": self.metric.k,
                "standardize": self.metric.standardize,
            },
            "seed": self.seed,
            "sample_sizes": {gid: n for gid, n in zip(self.ids, self.sample_sizes)},
            "pool_ref": self.pool_ref,
        }
        if provenance:
            sidecar["provenance"] = provenance
        path.with_suffix(path.suffix + ".meta.json").write_text(
            json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
        )


def quota_plan(genome: EnsembleGenome, total: int) -> tuple[np.ndarray, np.ndarray]:
    """The selected generators' indices, in canonical order, and sampling quotas that sum
    exactly to ``total``, as int arrays.

    Each selected generator gets floor(total/n); the remainder goes one each
    to the earliest selected generators in canonical pool order.
    """
    members = np.frombuffer(bytes(genome.bits), dtype=np.uint8).nonzero()[0]
    if total < members.size:
        raise ParameterError(f"total {total} is smaller than ensemble size {members.size}")
    if total >= 2**63:  # quotas are int64
        raise ParameterError(f"total {total} does not fit a 64-bit row count")
    base, extra = divmod(total, members.size)
    quotas = np.full(members.size, base)
    quotas[:extra] += 1
    return members, quotas


def _check_pool(genome: EnsembleGenome, size: int, ref: str) -> None:
    if len(genome.bits) != size:
        raise ParameterError(f"genome length {len(genome.bits)} does not match pool size {size}")
    if genome.pool_ref and genome.pool_ref != ref:
        raise ParameterError("genome was built against a different pool")


def capped_plan(genome: EnsembleGenome, pool: Pool, total: int) -> tuple[np.ndarray, np.ndarray]:
    """The members and the rows each gives: ``quota_plan``'s quotas capped at ``pool.rows``.

    It is the gate every path naming an ensemble passes: a genome of another length or
    pool raises a ParameterError. A member short of its quota gives all its rows, and a
    ShortfallWarning names it.
    """
    _check_pool(genome, pool.size, pool.ref)
    members, quotas = quota_plan(genome, total)
    takes = np.minimum(quotas, pool.rows[members])
    short = takes < quotas
    if not short.any():
        return members, takes
    for g, quota, take in zip(*(a[short].tolist() for a in (members, quotas, takes))):
        warnings.warn(
            f"generator '{pool.ids[g]}' holds {take} rows but quota is {quota}; "
            f"union will be short by {quota - take}",
            ShortfallWarning,
        )
    return members, takes


def quotas_by_id(plan: tuple[np.ndarray, np.ndarray], pool: Pool) -> dict[str, int]:
    """A plan's rows keyed by member id, in canonical order, as Python ints."""
    members, takes = plan
    return dict(zip((pool.ids[g] for g in members.tolist()), takes.tolist()))


def require_neighbours(rows: int, k: int, what: str, hint: str) -> None:
    """Raise a ParameterError naming the set ``what`` and the flags to change (``hint``)
    unless it holds more than ``k`` rows: density and coverage take k-NN balls within it."""
    if rows <= k:
        raise ParameterError(
            f"{what} holds {rows} rows, but density and coverage at --k {k} need more than "
            f"{k} in every set; {hint}"
        )


def _draw_order(dataset: EmbeddingSet, seed: int, tag: str) -> np.ndarray:
    """The fixed row permutation, seeded by (seed, tag), whose prefixes every sample takes."""
    return seeded_stream(seed, tag).permutation(dataset.rows)


def _prefix_rows(data: np.ndarray, order: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` rows of the draw order ``order``, in row order; all of ``data``
    when ``size`` covers every row."""
    return data if size >= data.shape[0] else data[np.sort(order[:size])]


def subsample_rows(dataset: EmbeddingSet, size: int, seed: int, tag: str) -> EmbeddingSet:
    """The first ``size`` rows of the draw order seeded by (seed, tag), in row order.

    Returns the set unchanged when ``size`` covers all rows, so identical
    inputs stay identical regardless of the seed.
    """
    if size >= dataset.rows:
        return dataset
    if size < 1:
        raise ParameterError(f"subsample size must be >= 1, got {size}")
    rows = _prefix_rows(dataset.data, _draw_order(dataset, seed, tag), size)
    return EmbeddingSet(rows, source_id=f"{dataset.source_id}[{size}]")


def union_plan(quotas: dict[str, int], pool: Pool) -> tuple[np.ndarray, np.ndarray]:
    """The plan of ``quotas``: the generators it names, in canonical order, and their counts,
    each between 1 and g's row count. ``capped_plan`` gives the counts of a genome."""
    if not quotas or not set(quotas) <= set(pool.ids):
        raise ParameterError(f"union quotas must name generators of the pool, got {sorted(quotas)}")
    members = [g for g, gid in enumerate(pool.ids) if gid in quotas]
    for g in members:
        take, rows = quotas[pool.ids[g]], int(pool.rows[g])
        if not 1 <= take <= rows:
            raise ParameterError(f"quota {take} of '{pool.ids[g]}' is not in 1..{rows}")
    return np.array(members), np.array([quotas[pool.ids[g]] for g in members], dtype=np.int64)


def build_union(quotas: dict[str, int], pool: Pool, seed: int) -> EmbeddingSet:
    """The union of ``quotas[g]`` rows of each generator g that ``quotas`` names.

    Each share is ``subsample_rows`` of g, seeded by (seed, g's id), and the
    shares are concatenated in canonical order (``union_plan``), so the union
    holds exactly ``sum(quotas.values())`` rows.
    """
    parts = [
        subsample_rows(pool.members[g][1], take, seed, pool.ids[g]).data
        for g, take in zip(*(a.tolist() for a in union_plan(quotas, pool)))
    ]
    return EmbeddingSet(np.concatenate(parts, axis=0), source_id=f"union({'+'.join(quotas)})")


def intra_d(
    genome: EnsembleGenome,
    pool: Pool,
    cfg: MetricConfig,
    seed: int,
    total: int | None = None,
) -> float:
    """Metric between the real set and the genome's quota-sampled union."""
    plan = capped_plan(genome, pool, pool.real.rows if total is None else total)
    return metric_d(pool.real, build_union(quotas_by_id(plan, pool), pool, seed), cfg)


def pairwise_matrix(
    pool: Pool,
    cfg: MetricConfig,
    sample_per_generator: int | None = None,
    seed: int = 0,
) -> PairwiseMatrix:
    """Symmetric matrix of pairwise metric values between generator sets.

    Entry (i, j) compares seeded subsamples of generators i and j, each in
    the real set's frame (``real_frame``), as Intra-d is. The default
    subsample size is the smallest generator size, capped at the real-set
    size. Each unordered pair is computed once and written to both entries.

    Density and coverage are asymmetric, so a dnc entry averages both
    argument orders, all from one ``pairwise_density_coverage`` call. Each
    subsample meets the later ones of a memory-capped chunk in one call of
    the ball kernel ``ball_tables`` runs on: from one estimate centred on the
    real set's mean, it counts both orders' sure hits in place and lists
    only the entries in either guard band, each recomputed exactly once.

    A fid entry is ``frechet_factored`` of the two subsamples' ``FactoredSet``s
    (``metrics`` docstring), one product of their stored factors, for i < j,
    written to both entries; the Frechet distance is symmetric up to
    rounding. A subsample with no more rows than dimensions keeps only its
    mean and trace, and its factor is rebuilt from its rows when a pair
    needs it.
    """
    n = pool.size
    if sample_per_generator is None:
        sample_per_generator = min(min(es.rows for _, es in pool.members), pool.real.rows)
    if sample_per_generator < 1:
        raise ParameterError("sample_per_generator must be >= 1")
    subs = [
        subsample_rows(es, sample_per_generator, seed, record.id)
        for record, es in pool.members
    ]
    # Sets enter the frame where they are used, so no float64 copy of the
    # whole pool is alive at once.
    to_frame = real_frame(pool.real, cfg.standardize)
    if cfg.kind is MetricKind.DENSITY_COVERAGE:
        for (record, _), sub in zip(pool.members, subs):
            require_neighbours(
                sub.rows, cfg.k, f"the pairwise sample of generator '{record.id}'",
                "lower --k, or raise --sample if the generator holds more rows",
            )
        centre = to_frame(pool.real).mean(axis=0)
        dns, cvg = pairwise_density_coverage(subs, cfg.k, to_frame, centre)
        # harmonic_d of every entry at once, in its order of operations; the
        # diagonal is 0 / 0 and stays 0.
        total = dns + cvg
        ordered = np.divide(2.0 * dns * cvg, total, out=np.zeros_like(total), where=total != 0)
        values = (ordered + ordered.T) / 2.0
    else:
        factors = [factored_set(s, to_frame) for s in subs]
        values = np.zeros((n, n), dtype=np.float64)
        for i in range(n - 1):
            for j in range(i + 1, n):
                values[i, j] = values[j, i] = frechet_factored(factors[i], factors[j])
    return PairwiseMatrix(
        values=values,
        ids=pool.ids,
        pool_ref=pool.ref,
        metric=cfg,
        seed=seed,
        sample_sizes=tuple(s.rows for s in subs),
    )


def inter_d(genome: EnsembleGenome, matrix: PairwiseMatrix) -> float:
    """Mean pairwise metric over all distinct selected pairs; 0 for singletons.

    With symmetrized entries the mean over ordered pairs equals the mean
    over unordered pairs. A singleton has no pairs, so the mean is
    undefined there; zero keeps singletons admissible by convention. A
    genome of another length or pool than the matrix's raises a ParameterError.
    """
    _check_pool(genome, len(matrix.ids), matrix.pool_ref)
    return _block_mean(matrix.values, np.flatnonzero(genome.bits))


def _block_mean(values: np.ndarray, members: np.ndarray) -> float:
    """The mean of ``values[members][:, members]`` off its diagonal; 0 for one member."""
    n = members.size
    if n < 2:
        return 0.0
    block = values[members][:, members]
    return float((block.sum() - np.trace(block)) / (n * (n - 1)))


class UnionScore:
    """Intra-d's genome-independent state for one (pool, metric, seed), and its two scores.

    A plan ``(members, takes)`` is a union: members in canonical order, each
    giving the first ``take`` rows of its draw order. Rows go into the real
    set's frame (``real_frame``), as ``metric_d`` puts a union there. For dnc
    the scorer holds ``metrics.ball_tables`` over each generator's draw
    order (module docstring), so ``density_coverage`` of a plan is integer
    work; for fid, the real set's ``FactoredSet``, so ``frechet`` gathers
    the union's rows by the draw orders and projects them by the real
    factor once. The scores equal ``metrics.density_coverage`` and
    ``frechet_factored`` of ``build_union``'s union of the plan bit for bit.
    """

    def __init__(self, pool: Pool, cfg: MetricConfig, seed: int) -> None:
        self.k = cfg.k
        self._to_frame = real_frame(pool.real, cfg.standardize)
        self._sets = [(es, _draw_order(es, seed, record.id)) for record, es in pool.members]
        if cfg.kind is MetricKind.DENSITY_COVERAGE:
            require_neighbours(pool.real.rows, cfg.k, "the real set", "lower --k")
            self._prefix, self._first = ball_tables(pool.real, self._sets, cfg.k, self._to_frame)
        else:
            self._real = factored_set(pool.real, self._to_frame)

    def density_coverage(self, members: np.ndarray, takes: np.ndarray) -> tuple[float, float]:
        """Density and coverage of the plan's union against the real set."""
        hits = int(self._prefix[members, takes].sum())
        inside = self._first.take(members, axis=0) < takes.astype(self._first.dtype)[:, None]
        covered = int(np.count_nonzero(np.logical_or.reduce(inside, axis=0)))
        return hits / (self.k * int(takes.sum())), covered / self._first.shape[1]

    def frechet(self, members: np.ndarray, takes: np.ndarray) -> float:
        """The Frechet distance between the real set and the plan's union."""
        # Gathered straight into float64, which float32 rows convert to exactly.
        union = np.concatenate([
            _prefix_rows(self._sets[g][0].data, self._sets[g][1], take)
            for g, take in zip(members.tolist(), takes.tolist())
        ], dtype=np.float64)
        return frechet_factored(self._real, self._to_frame(union))


class EnsembleEvaluator:
    """Objective evaluator bound to one (pool, metric, seed, total) set.

    Everything that does not depend on the genome is computed once, at
    construction: Intra-d's ``UnionScore``, then the pairwise matrix, as
    ``matrix``. An evaluation takes ``capped_plan``'s gate and member index
    array, shared by both objectives (module docstring): Intra-d is the
    scorer's ``harmonic_d`` of density and coverage, or its ``frechet``, of
    that plan, and Inter-d is ``inter_d``'s block mean. Either way Intra-d
    and Inter-d equal ``intra_d`` and ``inter_d`` bit for bit.
    """

    def __init__(
        self,
        pool: Pool,
        cfg: MetricConfig | None = None,
        seed: int = 0,
        total: int | None = None,
        sample_per_generator: int | None = None,
    ) -> None:
        self.pool = pool
        self.cfg = cfg if cfg is not None else MetricConfig()
        self.seed = int(seed)
        self.total = pool.real.rows if total is None else int(total)
        if self.total < 1:
            raise ParameterError(f"union total must be >= 1, got {self.total}")
        self._score = UnionScore(pool, self.cfg, self.seed)
        self.matrix = pairwise_matrix(pool, self.cfg, sample_per_generator, self.seed)

    def evaluate(self, genome: EnsembleGenome) -> ObjectiveVector:
        members, takes = capped_plan(genome, self.pool, self.total)
        if self.cfg.kind is MetricKind.FRECHET:
            intra = self._score.frechet(members, takes)
        else:
            intra = harmonic_d(*self._score.density_coverage(members, takes))
        return ObjectiveVector(
            intra=float(intra),
            inter=_block_mean(self.matrix.values, members),
            member_count=members.size,
            metric=self.cfg,
        )

    __call__ = evaluate
