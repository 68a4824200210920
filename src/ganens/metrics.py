"""Distribution-quality metrics between two embedding sets.

Two metric families are supported. Density and coverage build k-NN balls
around every reference point and count which candidate points fall inside
them (higher is better); their harmonic combination ``2*dns*cvg/(dns+cvg)``
is the default scalar metric. The Frechet distance compares Gaussian moment
summaries of the two sets (lower is better) and serves as the alternative
metric for ablations. It is taken through covariance factors, with no
covariance root. For any factors with S_a = F_a F_a^T and S_b = F_b F_b^T,
the nonzero eigenvalues of S_a S_b are those of G^T G with G = F_b^T F_a,
so the trace term ``Tr (S_a S_b)^(1/2)`` is the sum of the singular values
of G: the square roots of the ``eigvalsh`` eigenvalues of the smaller Gram
matrix of G, those below ``EIGENVALUE_CLAMP`` taken as zero (Mathiasen and
Hvilshoj, "Backpropagating through Frechet Inception Distance", 2020). A
set used more than once is a ``FactoredSet``: its mean, Tr S and a factor,
the lower Cholesky factor of S when it has more rows than dimensions and
Cholesky succeeds, else its centred rows over sqrt(n - 1), rebuilt from its
rows whenever needed. ``frechet_factored`` takes one product of two stored
factors, or projects a set's centred rows by a stored factor, then one
``eigvalsh``. ``gaussian_summary`` and ``frechet_distance`` are the
reference route, through S_a^(1/2), that tests compare against.

All ball-membership tests use closed balls (distance <= radius), so a set
compared against itself always attains coverage 1 even when it contains
duplicate points. Every ball decision and every k-NN radius equals the one
``pairwise_distances`` gives: direct differencing in float64, summed over
dimensions in order ``0 + (x0-y0)^2 + (x1-y1)^2 + ...``, then ``sqrt``.

The decisions are taken on a faster estimate with a proven error bound.
With c a fixed centre (the mean of the reference rows, or as below),
a = fl(x - c) and b = fl(y - c), one matrix product (BLAS GEMM) of the rows
``[a, |a|^2, 1]`` and ``[-2b, 1, |b|^2]`` gives ``s^ = |a|^2 + |b|^2 - 2 a.b``
for a block of rows at once. Let u = 2^-53 be the unit roundoff, D the dimension and
gamma_n = n u / (1 - n u). A dot product of length n summed in any order,
fused or not, errs by at most gamma_n times the sum of its terms' absolute
values (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1).
With |a_i b_i| summing to at most (|a|^2 + |b|^2) / 2, to first order:

- the product, of length D + 2, errs by 2 (D + 2) u (|a|^2 + |b|^2), and
  the two computed norms inside it by D u (|a|^2 + |b|^2);
- centring moves each a_i - b_i off x_i - y_i by at most u (|a_i| + |b_i|),
  which moves the squared distance by at most 4 u (|a|^2 + |b|^2);
- the reference sum of D rounded squares of rounded differences lies
  within gamma_(D+2) of the true squared distance, itself at most
  2 (|a|^2 + |b|^2): another 2 (D + 2) u (|a|^2 + |b|^2).

So ``|s^ - s| <= (5 D + 12) u (|a|^2 + |b|^2)`` against the reference's
squared distance s, plus at most 2^-1075 for each of the 4 D products
that may fall below the normal range. The kernel uses more than twice
both terms, ``ERR = (10 D + 32) (u (|a|^2 + |b|^2) + 2^-1074)``; the margin
covers the first-order approximation and the rounding of ERR itself. It
splits ERR into a part per reference row and a part per candidate row,
and bounds row i by its own part plus the largest candidate part, so no
N x M array of bounds is built.

- A ball test ``d <= r`` uses the guard band ``band = ERR + 8 u r^2``:
  the entry is inside when ``s^ < r^2 - band`` and outside when
  ``s^ > r^2 + band``. The ``8 u r^2`` term covers the rounding of ``r^2``
  and of ``sqrt``, so a squared distance that far from ``r^2`` cannot
  round to the other side of r. One comparison over a block lists the
  entries not above ``r^2 + band``, NaN included (a few percent on the
  pools measured); of those, the ones not below ``r^2 - band`` are
  recomputed exactly (``_listed_inside``).
- A k-NN radius is the k-th smallest exact squared distance in its row,
  then ``sqrt`` (which keeps order). With H the k-th smallest estimate in
  the row, that value is at most H + ERR, so only entries whose estimate
  is at most H + 2 ERR can be among the k smallest; those are recomputed
  exactly and the k-th of them is taken. Each set has its own centre, and
  ``knn_radii`` takes a stack of equal-size sets in one product per block.

The bound assumes that no squared norm overflows, which float32 data (as
``EmbeddingSet`` stores it) cannot reach. A NaN estimate or bound always
falls in the band and is recomputed.

``_ball_kernel`` takes every ball decision: the hits of x's balls on
consecutive sets of y rows (``ball_hits``) and, from the same estimate, the
x rows in each of y's balls. Both are centred on the caller's centre, which
keeps the bound (c enters it only through the rounding of x - c and y - c).
It writes each block through ``out=`` into the caller's buffers: a fresh
2 MiB result per block lies above glibc's mmap threshold (128 KiB), so its
pages would fault in anew. ``pairwise_density_coverage`` centres every set
on the real set's mean in the frame and stacks consecutive whole sets in
chunks of at most ``_CHUNK_ENTRIES`` entries (rows times D + 2; a larger set
is a chunk by itself), each built into rows once. Each earlier set takes one
kernel call per chunk; per-set sums of its outputs give both orders.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericError, ParameterError
from .store import EmbeddingSet
from .util import readonly

EIGENVALUE_CLAMP = 1e-10
DEFAULT_K = 5

_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
# ERR = (_ERR_PER_DIM * D + _ERR_BASE) * (u * (|a|^2 + |b|^2) + 2^-1074)
_ERR_PER_DIM = 10.0
_ERR_BASE = 32.0
# Entries per block of the estimated distance matrix, whatever N is. knn_radii
# and ball_hits take a quarter block, whose copies and masks stay in a core's
# 2 MiB L2 cache; the pairwise matrix fills one full-size buffer in place.
_BLOCK_ENTRIES = 1 << 18
# Right-hand entries per chunk of candidate sets stacked for one reference.
_CHUNK_ENTRIES = _BLOCK_ENTRIES // 4
# Listed entries decided at once within a block (``_listed_inside``).
_LISTED_SLICE = 1 << 16


class MetricKind(str, Enum):
    DENSITY_COVERAGE = "dnc"
    FRECHET = "fid"


class Orientation(str, Enum):
    HIGHER_IS_BETTER = "higher"
    LOWER_IS_BETTER = "lower"


@dataclass(frozen=True)
class MetricConfig:
    """Which metric to run and with what knobs.

    ``k`` is the neighbor count for density/coverage and is ignored by the
    Frechet kind. ``standardize`` puts every set, generators included, in
    the real set's frame before comparing (``real_frame``), so Intra-d and
    Inter-d measure in one geometry (off by default: the embedding backbone
    already defines the geometry).
    """

    kind: MetricKind = MetricKind.DENSITY_COVERAGE
    k: int = DEFAULT_K
    standardize: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", MetricKind(self.kind))
        if self.k < 1:
            raise ParameterError(f"neighbor count k must be >= 1, got {self.k}")

    @property
    def orientation(self) -> Orientation:
        if self.kind is MetricKind.DENSITY_COVERAGE:
            return Orientation.HIGHER_IS_BETTER
        return Orientation.LOWER_IS_BETTER


@dataclass(frozen=True)
class RadiusProfile:
    """Per-point k-th-nearest-neighbor distances within one reference set."""

    k: int
    radii: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "radii", readonly(np.asarray(self.radii, dtype=np.float64)))


@dataclass(frozen=True)
class GaussianSummary:
    """Mean vector and unbiased covariance of one embedding set."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", readonly(np.asarray(self.mean, dtype=np.float64)))
        object.__setattr__(
            self, "covariance", readonly(np.asarray(self.covariance, dtype=np.float64))
        )

    @property
    def dim(self) -> int:
        return int(self.mean.shape[0])


def _as_matrix(x: EmbeddingSet | np.ndarray) -> np.ndarray:
    data = x.data if isinstance(x, EmbeddingSet) else np.asarray(x)
    return np.ascontiguousarray(data, dtype=np.float64)


def pairwise_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance matrix between the rows of x and y.

    Accumulates squared differences one dimension at a time, which avoids
    materializing an (N, M, D) tensor and keeps exact zeros for identical
    rows (no norm-plus-dot cancellation).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    out = np.zeros((x.shape[0], y.shape[0]), dtype=np.float64)
    tmp = np.empty_like(out)
    for d in range(x.shape[1]):
        np.subtract.outer(x[:, d], y[:, d], out=tmp)
        tmp *= tmp
        out += tmp
    return np.sqrt(out, out=out)


def _exact_squared(x: np.ndarray, y: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared distances between x[rows] and y[cols], summed as pairwise_distances sums them.

    ``cumsum`` adds left to right, ``0 + t0`` equals ``t0``, so the last
    column of the running sum is the reference's loop over dimensions.
    """
    out = np.empty(rows.shape[0], dtype=np.float64)
    step = max(1, _BLOCK_ENTRIES // x.shape[1])
    for start in range(0, rows.shape[0], step):
        diff = x[rows[start : start + step]] - y[cols[start : start + step]]
        diff *= diff
        out[start : start + step] = np.cumsum(diff, axis=1)[:, -1]
    return out


def _left_rows(x: np.ndarray, centre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``[a, |a|^2, 1]`` with a = x - centre, and each row's part of the error bound.

    ``x`` is one set (N, D) or a stack of sets (S, N, D), each with its own centre.
    """
    dim = x.shape[-1]
    left = np.empty(x.shape[:-1] + (dim + 2,), dtype=np.float64)
    np.subtract(x, centre, out=left[..., :dim])
    left[..., dim] = np.einsum("...j,...j->...", left[..., :dim], left[..., :dim])
    left[..., dim + 1] = 1.0
    coef = _ERR_PER_DIM * dim + _ERR_BASE
    return left, left[..., dim] * (coef * _UNIT_ROUNDOFF) + coef * _SMALLEST_SUBNORMAL


def _right_rows(y: np.ndarray, centre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``[-2b, 1, |b|^2]`` with b = y - centre, and each row's part of the error bound.

    ``y`` is one set (M, D) or a stack of sets (S, M, D), each with its own centre.
    """
    dim = y.shape[-1]
    right = np.empty(y.shape[:-1] + (dim + 2,), dtype=np.float64)
    np.subtract(y, centre, out=right[..., :dim])
    right[..., dim + 1] = np.einsum("...j,...j->...", right[..., :dim], right[..., :dim])
    right[..., :dim] *= -2.0
    right[..., dim] = 1.0
    coef = _ERR_PER_DIM * dim + _ERR_BASE
    return right, right[..., dim + 1] * (coef * _UNIT_ROUNDOFF)


def _listed_inside(
    x: np.ndarray, y: np.ndarray, start: int, estimate: np.ndarray,
    radius: np.ndarray, slack: np.ndarray, listed: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Indices ``(rows, cols)`` of the entries of one block of rows from ``start`` with
    ``d(x_i, y_j) <= radius``, decided exactly, in row-major order, yielded in
    slices of at most ``_LISTED_SLICE`` listed entries.

    ``radius`` is a column (one per x row) or a row (one per y row), and
    ``slack`` bounds the estimate's error along that axis for every entry.
    One comparison into the mask ``listed`` lists the entries not above
    ``r^2 + band``, NaN included; of those, an estimate below ``r^2 - band``
    is inside, and the rest, in the guard band or NaN, are recomputed. The
    slices bound the temporaries of a block whose every entry is listed;
    only the listed indices outlive a slice.
    """
    squared = radius * radius
    band = slack + (8.0 * _UNIT_ROUNDOFF) * squared
    np.greater(estimate, squared + band, out=listed)
    every = np.flatnonzero(np.logical_not(listed, out=listed))
    lower = squared - band
    for lo in range(0, every.size, _LISTED_SLICE):
        yield _decided(x, y, start, estimate, every[lo : lo + _LISTED_SLICE], radius, lower)


def _decided(
    x: np.ndarray, y: np.ndarray, start: int, estimate: np.ndarray, flat: np.ndarray,
    radius: np.ndarray, lower: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``_listed_inside``'s ``(rows, cols)`` among the listed entries ``flat`` of the block:
    inside when the estimate is below ``lower`` (r^2 - band), else recomputed."""
    rows = flat // estimate.shape[1]
    cols = flat - rows * estimate.shape[1]
    ball = rows if radius.ndim == 2 else cols
    inside = estimate.ravel()[flat] < lower.ravel()[ball]
    unsure = np.flatnonzero(~inside)
    if unsure.size:
        exact = np.sqrt(_exact_squared(x, y, rows[unsure] + start, cols[unsure]))
        inside[unsure] = exact <= radius.ravel()[ball[unsure]]
    return rows[inside], cols[inside]


def _ball_kernel(
    x: np.ndarray, y: np.ndarray, centre: np.ndarray, y_rows: tuple[np.ndarray, np.ndarray],
    radius: np.ndarray, lengths: np.ndarray, buffer: np.ndarray, mask: np.ndarray,
    radius_y: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``ball_hits``' ``(counts, first)`` for x's balls of ``radius`` on the consecutive
    sets of ``lengths`` rows in y, and ``back[j]``, the number of x rows inside y's
    ball j of ``radius_y`` (None without it). ``y_rows`` is ``_right_rows(y, centre)``,
    which a caller builds once for every x it meets. Each block of x rows, as many as
    ``buffer`` and ``mask`` hold (at least one), is estimated and listed into them.
    """
    left, slack_x = _left_rows(x, centre)
    right, slack_y = y_rows
    m = y.shape[0]
    offsets = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(lengths.size), lengths)
    counts = np.zeros(m, dtype=np.int64)
    first = np.repeat(lengths[:, None], x.shape[0], axis=1)
    back = None if radius_y is None else np.zeros(m, dtype=np.int64)
    # Slacks over all rows or columns still bound every entry of a block.
    slack_i, slack_j = slack_x + slack_y.max(), slack_y + slack_x.max()
    step = buffer.size // m
    for start in range(0, x.shape[0], step):
        block = slice(start, start + step)
        out = buffer[: len(left[block]) * m].reshape(-1, m)
        estimate = np.matmul(left[block], right.T, out=out)
        listed = mask[: estimate.size].reshape(estimate.shape)
        # Hits come row by row with rising columns, so a (ball, set) key never
        # falls, and its first occurrence is the set's first row in that ball;
        # a slice's first key may continue the previous slice's last.
        last = -1
        for rows, cols in _listed_inside(
            x, y, start, estimate, radius[block, None], slack_i[block, None], listed
        ):
            counts += np.bincount(cols, minlength=m)
            if not cols.size:
                continue
            key = rows * lengths.size + owner[cols]
            head = np.flatnonzero(np.concatenate(([key[0] != last], key[1:] != key[:-1])))
            last = key[-1]
            sets = owner[cols[head]]
            first[sets, start + rows[head]] = cols[head] - offsets[sets]
        if back is not None:
            for _, cols in _listed_inside(x, y, start, estimate, radius_y, slack_j, listed):
                back += np.bincount(cols, minlength=m)
    return counts, first, back


def knn_radii(reference: EmbeddingSet | np.ndarray, k: int) -> RadiusProfile:
    """Distance from each point to its k-th nearest other point in the same set.

    Requires 1 <= k < N. Ties in neighbor ranking are value ties, so the
    k-th order statistic is well defined regardless of index order.

    ``reference`` may also be a stack, an (S, N, D) array of S sets of N rows
    each; the radii are then (S, N), row s those of set s alone, equal to a
    call on set s by itself. One set is a stack of one. Whole sets share an
    estimate block while it holds at most a quarter of ``_BLOCK_ENTRIES``
    entries, and a set larger than that takes several blocks of rows, so
    the temporaries stay within a core's L2 cache; the stack itself is the
    caller's to bound.
    """
    ref = _as_matrix(reference)
    stack = ref if ref.ndim == 3 else ref[None]
    sets, n, dim = stack.shape
    if k < 1 or k >= n:
        raise ParameterError(f"k must satisfy 1 <= k < N, got k={k} with N={n}")
    points = stack.reshape(sets * n, dim)
    centre = stack.mean(axis=1, keepdims=True)
    left, slack_rows = _left_rows(stack, centre)
    right, slack_cols = _right_rows(stack, centre)
    # Within row i every entry errs by at most slack_i, so the k-th smallest
    # exact value is at most kth_estimate + slack_i, and only entries whose
    # estimate is within 2 * slack_i of kth_estimate can reach it.
    slack = slack_rows + slack_cols.max(axis=1, keepdims=True)
    kth = np.empty((sets, n), dtype=np.float64)
    entries = max(1, _BLOCK_ENTRIES // 4)
    group = max(1, entries // (n * n))
    step = max(1, min(n, entries // n))
    for lo in range(0, sets, group):
        block_sets = slice(lo, lo + group)
        for start in range(0, n, step):
            block_rows = slice(start, start + step)
            estimate = np.matmul(left[block_sets, block_rows], right[block_sets].transpose(0, 2, 1))
            count, height = estimate.shape[:2]
            own = np.arange(height)
            estimate[:, own, own + start] = np.inf
            cutoff = np.partition(estimate, k - 1, axis=2)[..., k - 1]
            cutoff += 2.0 * slack[block_sets, block_rows]
            # Listed: not above the cutoff, NaN included. Row r of the block is
            # row r % height of set lo + r // height.
            listed = np.logical_not(estimate > cutoff[..., None])
            block_row, cols = np.divmod(np.flatnonzero(listed), n)
            first_row = (lo + block_row // height) * n
            exact = _exact_squared(
                points, points, first_row + start + block_row % height, first_row + cols
            )
            # A point is not its own neighbour, as in the all-pairs reference.
            exact[start + block_row % height == cols] = np.inf
            exact = exact[np.lexsort((exact, block_row))]
            picked = exact[np.searchsorted(block_row, np.arange(count * height)) + k - 1]
            kth[block_sets, block_rows] = picked.reshape(count, height)
    radii = np.sqrt(kth)
    return RadiusProfile(k=k, radii=radii if ref.ndim == 3 else radii[0])


def _chunks(counts: list[int], width: int):
    """Runs ``(lo, hi)`` of consecutive sets holding at most ``_CHUNK_ENTRIES`` entries together.

    Set j holds ``counts[j] * width`` entries; a set larger than the cap is
    a run by itself.
    """
    lo = entries = 0
    for hi, count in enumerate(counts):
        if hi > lo and entries + count * width > _CHUNK_ENTRIES:
            yield lo, hi
            lo, entries = hi, 0
        entries += count * width
    yield lo, len(counts)


def density_coverage(
    reference: EmbeddingSet | np.ndarray,
    candidate: EmbeddingSet | np.ndarray,
    k: int,
    radii: RadiusProfile | None = None,
) -> tuple[float, float]:
    """Density and coverage of the candidate set against the reference manifold.

    Density is the expected number of reference k-NN balls containing a
    candidate point, divided by k; it can exceed 1. Coverage is the fraction
    of reference points whose ball contains at least one candidate point.
    Pass a precomputed ``radii`` profile to skip the within-reference k-NN
    pass when evaluating many candidates against one reference.
    """
    counts, first = ball_hits(reference, candidate, k, radii)
    m, n = counts.shape[0], first.shape[0]
    return int(counts.sum()) / (k * m), int(np.count_nonzero(first < m)) / n


def pairwise_density_coverage(
    sets: Sequence[EmbeddingSet | np.ndarray],
    k: int,
    to_frame: Callable[[EmbeddingSet | np.ndarray], np.ndarray],
    centre: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices whose entry (i, j) is ``density_coverage(x_i, x_j, k)``, and 0 where i = j.

    x_i is ``to_frame(sets[i])`` (``real_frame`` gives the map); every
    estimate row is centred on ``centre`` (module docstring).
    """
    parts = [s.data if isinstance(s, EmbeddingSet) else np.asarray(s) for s in sets]
    n, rows, width = len(parts), np.array([part.shape[0] for part in parts]), parts[0].shape[1] + 2
    radii = []
    while len(radii) < n:
        # A run of equal-size sets goes to knn_radii as stacks of at most one of
        # its blocks, which also bounds the stack's framed copy.
        lo = len(radii)
        cap = lo + max(1, (_BLOCK_ENTRIES // 4) // (rows[lo] * max(rows[lo], width)))
        hi = lo + 1
        while hi < min(n, cap) and rows[hi] == rows[lo]:
            hi += 1
        radii.extend(knn_radii(to_frame(np.stack(parts[lo:hi])), k).radii)
    hits, covered = np.zeros((2, n, n), dtype=np.int64)
    chunks = list(_chunks(rows.tolist(), width))
    size = max(_BLOCK_ENTRIES, *(rows[lo:hi].sum() for lo, hi in chunks))
    buffer, mask = np.empty(size), np.empty(size, dtype=bool)  # one of each per matrix
    for lo, hi in chunks:
        y = to_frame(np.concatenate(parts[lo:hi]) if hi - lo > 1 else parts[lo])
        (right, slack_y), radius_y = _right_rows(y, centre), np.concatenate(radii[lo:hi])
        for i in range(hi - 1):
            # Set i against the sets after it: the balls of each side, in one estimate.
            later = max(lo, i + 1)
            skip, lengths = rows[lo:later].sum(), rows[later:hi]
            counts, first, back = _ball_kernel(
                to_frame(parts[i]), y[skip:], centre, (right[skip:], slack_y[skip:]), radii[i],
                lengths, buffer, mask, radius_y[skip:],
            )
            offsets = np.cumsum(lengths) - lengths
            hits[i, later:hi] = np.add.reduceat(counts, offsets)
            covered[i, later:hi] = np.count_nonzero(first < lengths[:, None], axis=1)
            hits[later:hi, i] = np.add.reduceat(back, offsets)
            covered[later:hi, i] = np.add.reduceat(back > 0, offsets)
    return hits / (k * rows), covered / rows[:, None]


def ball_hits(
    reference: EmbeddingSet | np.ndarray,
    candidate: EmbeddingSet | np.ndarray,
    k: int,
    radii: RadiusProfile | None = None,
    segments: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ball counts and per-ball first hits of a candidate set, decided exactly.

    Returns ``(counts, first)``: ``counts[j]`` is the number of reference k-NN
    balls holding candidate row j, and ``first[i]`` is the index of the first
    candidate row inside ball i, or M (the candidate row count) if none is.
    So ``density_coverage`` of the first t candidate rows is
    ``(counts[:t].sum() / (k * t), count_nonzero(first < t) / N)``, for every
    t at once.

    ``segments`` splits the candidate rows into consecutive sets of these
    row counts, each at least 1, summing to M. ``first`` is then
    (len(segments), N): ``first[s, i]`` counts from the start of set s, and
    is set s's row count if none of its rows is inside ball i. One call thus
    stands for one call per set, and one call of the module's ball kernel
    (centred on the reference mean) serves them all.
    """
    ref = _as_matrix(reference)
    cand = _as_matrix(candidate)
    if ref.shape[1] != cand.shape[1]:
        raise ParameterError(
            f"dimension mismatch: reference D={ref.shape[1]}, candidate D={cand.shape[1]}"
        )
    if radii is not None and (radii.k != k or radii.radii.shape[0] != ref.shape[0]):
        raise ParameterError("radius profile does not match this reference set and k")
    radius = knn_radii(ref, k).radii if radii is None else radii.radii
    m = cand.shape[0]
    lengths = np.array([m] if segments is None else segments, dtype=np.int64)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != m:
        raise ParameterError(
            f"candidate sets need 1 row or more each and {m} in all, got {lengths.tolist()}"
        )
    size, centre = max(_BLOCK_ENTRIES // 4, m), ref.mean(axis=0)
    counts, first, _ = _ball_kernel(
        ref, cand, centre, _right_rows(cand, centre), radius, lengths,
        np.empty(size), np.empty(size, dtype=bool),
    )
    return counts, first[0] if segments is None else first


def density(
    reference: EmbeddingSet | np.ndarray, candidate: EmbeddingSet | np.ndarray, k: int
) -> float:
    return density_coverage(reference, candidate, k)[0]


def coverage(
    reference: EmbeddingSet | np.ndarray, candidate: EmbeddingSet | np.ndarray, k: int
) -> float:
    return density_coverage(reference, candidate, k)[1]


def harmonic_d(dns: float, cvg: float) -> float:
    """Harmonic combination 2*dns*cvg/(dns+cvg); zero when both terms are zero."""
    if dns < 0 or cvg < 0:
        raise ParameterError(f"harmonic_d needs nonnegative inputs, got ({dns}, {cvg})")
    total = dns + cvg
    if total == 0:
        return 0.0
    return 2.0 * dns * cvg / total


def gaussian_summary(dataset: EmbeddingSet | np.ndarray) -> GaussianSummary:
    """Column mean and unbiased (N-1) covariance, symmetrized."""
    x = _as_matrix(dataset)
    if x.shape[0] < 2:
        raise ParameterError(f"need at least 2 rows for a covariance, got {x.shape[0]}")
    mean = x.mean(axis=0)
    cov = np.atleast_2d(np.cov(x, rowvar=False))
    cov = (cov + cov.T) / 2.0
    return GaussianSummary(mean=mean, covariance=cov)


def _clamped_eigh(
    matrix: np.ndarray, context: str, with_vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues below ``EIGENVALUE_CLAMP`` set to zero, and the eigenvectors if asked for."""
    try:
        if with_vectors:
            values, vectors = np.linalg.eigh(matrix)
        else:
            values, vectors = np.linalg.eigvalsh(matrix), None
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed for {context}: {exc}") from exc
    if not np.isfinite(values).all():
        raise NumericError(f"eigendecomposition produced non-finite values for {context}")
    values = np.where(values < EIGENVALUE_CLAMP, 0.0, values)
    return values, vectors


def frechet_distance(a: GaussianSummary, b: GaussianSummary) -> float:
    """Frechet distance between two Gaussian summaries: the reference route.

    ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^(1/2)), with the trace
    term the sum of the square roots of the eigenvalues of the symmetrized
    product S_a^(1/2) S_b S_a^(1/2), S_a^(1/2) taken through ``eigh`` of S_a.
    Eigenvalues below ``EIGENVALUE_CLAMP`` are clamped to zero and the
    result is clamped to be nonnegative. Swapping the arguments changes the
    value only by rounding. The program scores through ``frechet_factored``;
    this route stays for tests to compare against. Where a covariance is
    singular, its null space keeps rounding noise above the clamp here.
    """
    if a.dim != b.dim:
        raise ParameterError(f"dimension mismatch: {a.dim} vs {b.dim}")
    values, vectors = _clamped_eigh(a.covariance, "summary covariance")
    root = (vectors * np.sqrt(values)) @ vectors.T
    product = root @ b.covariance @ root
    product = (product + product.T) / 2.0
    vals_p, _ = _clamped_eigh(product, "covariance product", with_vectors=False)
    diff = a.mean - b.mean
    value = (
        float(diff @ diff)
        + float(np.trace(a.covariance))
        + float(np.trace(b.covariance))
        - 2.0 * float(np.sqrt(vals_p).sum())
    )
    return max(0.0, value)


def _scaled_centred(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """The rows of x centred on ``mean`` and divided by sqrt(n - 1): F^T of the
    centred-rows factor, so that F F^T is x's unbiased covariance."""
    n = x.shape[0]
    if n < 2:
        raise ParameterError(f"need at least 2 rows for a covariance, got {n}")
    scaled = x - mean
    scaled /= np.sqrt(n - 1.0)
    return scaled


@dataclass(frozen=True)
class FactoredSet:
    """One set as the Frechet route holds it: its mean, Tr S and a factor F with S = F F^T.

    ``lower`` is S's lower Cholesky factor, or None when the set has no
    more rows than dimensions or Cholesky fails. F is then the set's rows,
    put through ``to_frame``, centred and divided by sqrt(n - 1), and
    ``factor()`` rebuilds it from ``rows`` each time, so no float64 copy is
    held.
    """

    mean: np.ndarray
    trace: float
    lower: np.ndarray | None
    rows: EmbeddingSet | np.ndarray
    to_frame: Callable[[EmbeddingSet | np.ndarray], np.ndarray]

    def factor(self) -> np.ndarray:
        """F, D x D lower triangular or D x n."""
        if self.lower is not None:
            return self.lower
        return _scaled_centred(self.to_frame(self.rows), self.mean).T


def factored_set(
    rows: EmbeddingSet | np.ndarray,
    to_frame: Callable[[EmbeddingSet | np.ndarray], np.ndarray] = _as_matrix,
) -> FactoredSet:
    """The ``FactoredSet`` of ``to_frame(rows)``: mean, Tr S, and S's Cholesky factor when
    the set has more rows than dimensions and Cholesky succeeds."""
    x = to_frame(rows)
    mean = x.mean(axis=0)
    scaled = _scaled_centred(x, mean)
    lower = None
    if x.shape[0] > x.shape[1]:
        try:
            lower = np.linalg.cholesky(scaled.T @ scaled)
        except np.linalg.LinAlgError:  # singular in floating point: keep the centred rows
            pass
    return FactoredSet(mean, float(np.vdot(scaled, scaled)), lower, rows, to_frame)


def frechet_factored(a: FactoredSet, b: FactoredSet | EmbeddingSet | np.ndarray) -> float:
    """Frechet distance between a stored set and either another stored set or a set's rows.

    ``b`` as rows must already be in ``a``'s frame; they are centred and
    divided by sqrt(m - 1), which is their factor's transpose, and
    projected by a's factor. Either way the trace term comes from
    G = F_b^T F_a, one product: the square roots of the ``eigvalsh``
    eigenvalues of its smaller Gram matrix, those below ``EIGENVALUE_CLAMP``
    taken as zero. The result is clamped to be nonnegative. Swapping two
    stored sets changes the value only by rounding.
    """
    if isinstance(b, FactoredSet):
        mean_b, trace_b, factor_bt = b.mean, b.trace, b.factor().T
    else:
        x = _as_matrix(b)
        mean_b = x.mean(axis=0)
        factor_bt = _scaled_centred(x, mean_b)
        trace_b = float(np.vdot(factor_bt, factor_bt))
    if mean_b.shape != a.mean.shape:
        raise ParameterError(f"dimension mismatch: {a.mean.shape[0]} vs {mean_b.shape[0]}")
    product = factor_bt @ a.factor()
    gram = product.T @ product if product.shape[1] <= product.shape[0] else product @ product.T
    values, _ = _clamped_eigh(gram, "covariance product", with_vectors=False)
    diff = a.mean - mean_b
    value = float(diff @ diff) + a.trace + trace_b - 2.0 * float(np.sqrt(values).sum())
    return max(0.0, value)


def real_frame(
    real: EmbeddingSet | np.ndarray, standardize: bool
) -> Callable[[EmbeddingSet | np.ndarray], np.ndarray]:
    """The map that puts rows in the real set's frame, as contiguous float64.

    Without ``standardize`` it only converts the type. With it, each
    dimension is centred on the real set's mean and divided by its
    population standard deviation; a deviation of 0 becomes 1.
    """
    if not standardize:
        return _as_matrix
    ref = _as_matrix(real)
    mean = ref.mean(axis=0)
    scale = ref.std(axis=0)
    scale[scale == 0] = 1.0
    return lambda rows: (_as_matrix(rows) - mean) / scale


def metric_d(
    reference: EmbeddingSet | np.ndarray,
    candidate: EmbeddingSet | np.ndarray,
    cfg: MetricConfig,
) -> float:
    """Scalar distribution-quality metric between reference and candidate.

    The first argument is always the reference whose manifold defines the
    k-NN balls; density/coverage is asymmetric in its arguments. With
    ``cfg.standardize`` both sets go into the reference's frame, which is
    the real set's when ``intra_d`` calls it.
    """
    to_frame = real_frame(reference, cfg.standardize)
    if cfg.kind is MetricKind.DENSITY_COVERAGE:
        return harmonic_d(*density_coverage(to_frame(reference), to_frame(candidate), cfg.k))
    return frechet_factored(factored_set(reference, to_frame), to_frame(candidate))
