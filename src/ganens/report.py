"""Report quantities: quality tables, the real-synthetic gap, and g-mean helpers."""
from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import ParameterError
from .metrics import MetricConfig, MetricKind
from .objective import EnsembleGenome, UnionScore, capped_plan, union_plan
from .store import Pool


def round_half_away(value: float, ndigits: int = 1) -> float:
    """Round with ties going away from zero, e.g. 5.45 -> 5.5 and -7.55 -> -7.6."""
    quantum = Decimal(1).scaleb(-ndigits)
    return float(Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class GapReport:
    """Percentage gap between synthetic-trained and real-trained g-means."""

    gmean_real: float
    gmean_synth: float
    gamma_rs: float

    def formatted(self) -> str:
        """The gap at the table precision of one decimal, signed."""
        rounded = round_half_away(self.gamma_rs, 1)
        if rounded == 0:
            return "0.0"
        return f"{rounded:+.1f}"


def compute_gap(gmean_real: float, gmean_synth: float) -> GapReport:
    """gamma_RS = (g-mean(synthetic) - g-mean(real)) / g-mean(real) * 100."""
    if gmean_real <= 0:
        raise ParameterError(f"real g-mean must be positive, got {gmean_real}")
    for name, value in (("real", gmean_real), ("synthetic", gmean_synth)):
        if not 0.0 <= value <= 1.0:
            raise ParameterError(f"{name} g-mean must lie in [0, 1], got {value}")
    gamma = (gmean_synth - gmean_real) / gmean_real * 100.0
    return GapReport(gmean_real=gmean_real, gmean_synth=gmean_synth, gamma_rs=gamma)


def gmean_from_confusion(confusion) -> float:
    """Geometric mean of per-class recalls from a square confusion matrix.

    Rows are true classes, columns predictions. Every class needs at least
    one true example.
    """
    counts = np.asarray(confusion, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1] or counts.shape[0] < 1:
        raise ParameterError(f"confusion matrix must be square, got shape {counts.shape}")
    if (counts < 0).any():
        raise ParameterError("confusion matrix counts must be nonnegative")
    support = counts.sum(axis=1)
    if (support == 0).any():
        empty = int(np.flatnonzero(support == 0)[0])
        raise ParameterError(f"class {empty} has no true examples")
    recalls = np.diag(counts) / support
    return float(np.prod(recalls) ** (1.0 / counts.shape[0]))


@dataclass(frozen=True)
class QualityRow:
    """One line of the fidelity/diversity report."""

    label: str
    fid: float
    density: float
    coverage: float


def quality_rows(
    pool: Pool,
    k: int = 5,
    seed: int = 0,
    union: dict[str, int] | None = None,
    include_all: bool = False,
) -> list[QualityRow]:
    """FID, density, and coverage against the real set, one row per label.

    Every row scores a plan ``(members, takes)`` with one ``UnionScore`` of
    each kind, the evaluator's scorer: each generator at its row count or
    the real-set size, whichever is smaller (so the row is its singleton
    union at that size), then ``union_plan`` of ``union``, the rows of each
    generator it names, then (with ``include_all``) the ``capped_plan`` union
    of every generator at the real-set size or one row per generator,
    whichever is larger.
    """
    drawn = None if union is None else union_plan(union, pool)  # checked before scoring
    dnc = UnionScore(pool, MetricConfig(k=k), seed)
    fid = UnionScore(pool, MetricConfig(MetricKind.FRECHET), seed)

    def row(label, plan) -> QualityRow:
        return QualityRow(label, fid.frechet(*plan), *dnc.density_coverage(*plan))

    takes = np.minimum(pool.rows, pool.real.rows)
    rows = [row(gid, (np.array([g]), takes[g : g + 1])) for g, gid in enumerate(pool.ids)]
    if drawn is not None:
        rows.append(row("union", drawn))
    if include_all:
        plan = capped_plan(EnsembleGenome((1,) * pool.size), pool, max(pool.real.rows, pool.size))
        rows.append(row("all", plan))
    return rows
