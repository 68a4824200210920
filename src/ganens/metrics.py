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

The decisions are taken on a faster float32 estimate with a proven error
bound. With c a fixed centre (the mean of the reference rows, or as below)
and sigma = 2^e one power of two per call, a = sigma fl(x - c) and
b = sigma fl(y - c) are float64, and so are |a|^2 and |b|^2; the rows
``[a, |a|^2, 1]`` and ``[-2b, 1, |b|^2]`` are then rounded to float32, and
one float32 matrix product (BLAS GEMM) gives ``s^ = |a|^2 + |b|^2 - 2 a.b``
for a block of rows at once, an estimate of sigma^2 s with s the
reference's squared distance. sigma puts the largest squared row norm of
the call below 2^100, so no product, sum or threshold overflows float32,
and e <= 474, so float64's subnormal spacing 2^-1074 scales to at most
2^-126. Let u = 2^-24 be float32's unit roundoff, v = 2^-53 float64's,
lambda = 2^-126 float32's smallest normal, D the dimension and
gamma_n = n u / (1 - n u). A dot product of length n summed in any order,
fused or not, errs by at most gamma_n times the sum of its terms' absolute
values (Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1),
plus lambda for each operation whose result underflows, whether the BLAS
keeps subnormals or flushes them to zero. With |a_i b_i| summing to at most
(|a|^2 + |b|^2) / 2, and 2 |a_i| <= 1 + a_i^2, to first order:

- the float32 product, of length D + 2, errs by 2 (D + 2) u (|a|^2 + |b|^2)
  plus (2 D + 1) lambda;
- rounding a and b to float32 (to a subnormal, or to 0 under a flush)
  moves a_i to within u |a_i| + lambda, so 2 a.b by 2 u (|a|^2 + |b|^2)
  plus lambda (2 D + |a|^2 + |b|^2); rounding |a|^2 and |b|^2, each within
  D v of its true value, to float32 moves the sum by (u + D v)
  (|a|^2 + |b|^2) plus 2 lambda;
- centring moves each a_i - b_i off sigma (x_i - y_i) by at most
  v (|a_i| + |b_i|), which moves the squared distance by 4 v (|a|^2 + |b|^2);
- the reference sum of D rounded squares of rounded differences lies
  within gamma_(D+2) (in v) of the true squared distance, itself at most
  2 (|a|^2 + |b|^2) in sigma^2 units: another 2 (D + 2) v (|a|^2 + |b|^2);
- float64 squares that underflow, D in each norm and D in the reference,
  err by at most 2^-1075 sigma^2 <= lambda / 2 each (sums and differences
  that underflow are exact).

That is ``(2D + 7) u + (3D + 8) v + lambda <= (2D + 8) u`` times
(|a|^2 + |b|^2) for D < 2^27, plus (6 D + 3) lambda. The kernel uses one
and a half times both terms, ``ERR = (3 D + 12) (u (|a|^2 + |b|^2) + 4 lambda)``;
for D < 2^20 the margin covers the first-order approximation and the
rounding of ERR itself. It splits ERR into a part per reference row and a
part per candidate row, and bounds row i by its own part plus a bound on
the other side's parts, so no N x M array of bounds is built; a looser
bound only recomputes more entries. ``_rows`` builds either side's rows
and their parts (the one place that holds ERR's coefficients), and
``_estimate`` takes their product, for ``_ball_kernel`` and ``knn_radii``
alike.

- A ball test ``d <= r`` uses the guard band ``band = ERR + 8 u (sigma r)^2``:
  the entry is inside when ``s^ < (sigma r)^2 - band`` and outside when
  ``s^ > (sigma r)^2 + band``, the two thresholds computed in float64 and
  rounded outward to float32, so each comparison is a float32 one and no
  float64 copy of a block is made. The ``8 u (sigma r)^2`` term covers the
  rounding of ``r^2`` and of ``sqrt``, so a squared distance that far from
  ``r^2`` cannot round to the other side of r. Dense comparisons over a
  block mark the entries below the lower threshold as hits where they lie;
  only the entries in the band, neither below it nor above the upper one
  (NaN included), are listed and recomputed exactly (``_block_inside``).
- A k-NN radius is the k-th smallest exact squared distance in its row,
  then ``sqrt`` (which keeps order). With H the k-th smallest estimate in
  the row and ERR bounding every entry of the row, the k-th exact value
  lies in [H - ERR, H + ERR]: an entry whose estimate is below H - 2 ERR is
  below it, and one above H + 2 ERR is above it. So only the entries in
  [H - 2 ERR, H + 2 ERR] (thresholds rounded outward) are recomputed, and
  with ``below`` the count of entries under that band, the radius is the
  (k - below)-th smallest of their exact values (``_kth_exact``). Each set
  has its own centre, and ``knn_radii`` takes a stack of equal-size sets
  in one product per block.

The bound assumes that no float64 squared norm overflows, which float32
data (as ``EmbeddingSet`` stores it) cannot reach. A NaN estimate or bound
always falls in the band and is recomputed.

``_ball_kernel`` takes every ball decision: the hits of x's balls on
consecutive sets of y rows (``ball_hits``) and, from the same estimate, the
x rows in each of y's balls. Both are centred on the caller's centre and
scaled by the caller's sigma, which keeps the bound (c enters it only
through the rounding of x - c and y - c). It writes each block through
``out=`` into the caller's buffers: a fresh 1 MiB result per block lies
above glibc's mmap threshold (128 KiB), so its pages would fault in anew.
Sure hits count where they lie (column sums of the inside masks, and a
per-(ball, set) "any", or first-hit ranks for ``ball_hits`` alone), and the
band entries of both orders are recomputed together, once.
``pairwise_density_coverage`` centres every set on the real set's mean in
the frame and stacks consecutive whole sets in chunks of at most
``_CHUNK_ENTRIES`` entries (rows times D + 2; a larger set is a chunk by
itself). Each chunk is framed once, and its framed rows give its sets'
k-NN radii (a run of equal-size sets as one ``knn_radii`` stack) and its
rows. Its sigma comes from the largest squared norm of every set up to its
last one, which covers every set it meets (x sets come from it or earlier
chunks). Decisions are exact under any power-of-two sigma, so a chunk's
sigma moves no output. Each earlier set takes one kernel call per chunk,
which bounds each side's balls by the rows of the other side that it meets;
per-set sums of its outputs give both orders.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import groupby

import numpy as np

from .errors import NumericError, ParameterError
from .store import EmbeddingSet
from .util import readonly

EIGENVALUE_CLAMP = 1e-10
DEFAULT_K = 5

_UNIT_ROUNDOFF = 2.0**-24  # float32's, for the estimate
_SMALLEST_NORMAL = 2.0**-126  # float32's
# ERR = (_ERR_PER_DIM * D + _ERR_BASE) * (u * (|a|^2 + |b|^2) + 4 * 2^-126), in sigma^2 units
_ERR_PER_DIM = 3.0
_ERR_BASE = 12.0
# sigma = 2^e puts the largest squared row norm below 2^_TOP_EXPONENT, with
# e at most _MAX_SCALE_EXPONENT (module docstring).
_TOP_EXPONENT = 100
_MAX_SCALE_EXPONENT = 474
# Entries per block of the estimated distance matrix, whatever N is. knn_radii
# and ball_hits take a quarter block, whose copies and masks stay in a core's
# 2 MiB L2 cache; the pairwise matrix fills one full-size float32 buffer in place.
_BLOCK_ENTRIES = 1 << 18
# Right-hand entries per chunk of candidate sets stacked for one reference.
_CHUNK_ENTRIES = _BLOCK_ENTRIES // 4


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
    step = max(1, (_BLOCK_ENTRIES // 4) // x.shape[1])
    for start in range(0, rows.shape[0], step):
        diff = x[rows[start : start + step]]
        diff -= y[cols[start : start + step]]
        diff *= diff
        out[start : start + step] = np.cumsum(diff, axis=1, out=diff)[:, -1]
    return out


def _centred(x: np.ndarray, centre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(a, |a|^2)``: a = x - centre in float64, and each row's squared norm.

    ``x`` is one set (N, D) or a stack of sets (S, N, D), each with its own centre.
    """
    a = np.subtract(x, centre)
    return a, np.einsum("...j,...j->...", a, a)


def _scale(peak: float) -> float:
    """sigma = 2^e for rows whose largest squared norm is ``peak``: it puts that norm
    below 2^_TOP_EXPONENT, with e at most _MAX_SCALE_EXPONENT (module docstring)."""
    exponent = int(np.frexp(peak)[1])
    return 2.0 ** min(_MAX_SCALE_EXPONENT, (_TOP_EXPONENT - exponent) // 2)


def _rows(
    centred: tuple[np.ndarray, np.ndarray], scale: float, left: bool
) -> tuple[np.ndarray, np.ndarray]:
    """float32 rows of ``_centred``'s ``(a, |a|^2)`` under sigma ``scale``, and each row's
    part of ERR in sigma^2 units: ``[sigma a, sigma^2 |a|^2, 1]`` on the ``left`` of the
    product, whose part carries ERR's constant term, else ``[-2 sigma a, 1, sigma^2 |a|^2]``
    (module docstring)."""
    a, norms = centred
    dim = a.shape[-1]
    rows = np.empty(a.shape[:-1] + (dim + 2,), dtype=np.float32)
    np.multiply(a, scale if left else -2.0 * scale, out=rows[..., :dim])
    norms = norms * (scale * scale)
    rows[..., dim + (not left)] = norms
    rows[..., dim + left] = 1.0
    coef = _ERR_PER_DIM * dim + _ERR_BASE
    return rows, norms * (coef * _UNIT_ROUNDOFF) + (coef * 4.0 * _SMALLEST_NORMAL if left else 0.0)


def _estimate(left: np.ndarray, right: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The float32 estimates of every ``left`` row against every ``right`` row (``_rows``),
    of one block or of a stack of blocks, in one product."""
    with np.errstate(invalid="ignore"):  # a NaN entry falls in the band
        return np.matmul(left, np.swapaxes(right, -1, -2), out=out)


def _outward(value: np.ndarray, down: bool) -> np.ndarray:
    """float64 ``value`` rounded to float32 toward -inf (``down``) or +inf; NaN stays NaN."""
    rounded = value.astype(np.float32)
    off = rounded > value if down else rounded < value
    return np.where(off, np.nextafter(rounded, np.float32(-np.inf if down else np.inf)), rounded)


def _thresholds(radius: np.ndarray, slack: np.ndarray, scale: float) -> tuple[np.ndarray, ...]:
    """``(radius, lower, upper)``: balls of ``radius`` and their float32 thresholds on
    estimates in sigma^2 units, sigma being ``scale``, that err by at most ``slack``;
    below ``lower`` is inside, above ``upper`` outside (module docstring)."""
    squared = (radius * scale) ** 2
    band = slack + (8.0 * _UNIT_ROUNDOFF) * squared
    return radius, _outward(squared - band, down=True), _outward(squared + band, down=False)


def _block_inside(
    x: np.ndarray, y: np.ndarray, start: int, estimate: np.ndarray, sides: list, masks: np.ndarray
) -> np.ndarray:
    """Per side of balls, the exact mask of the entries of an estimate block of x rows
    from ``start`` inside them. A side is ``_thresholds``' triple as columns (a ball
    per x row) or rows (per y row). Comparisons into ``masks`` (two bool rows per
    side) mark the sure hits; entries in any side's band, NaN included, are listed
    in slices of whole rows, about a quarter of ``_BLOCK_ENTRIES`` entries each, and
    recomputed once for all sides (outside a band, exact and sure decisions agree).
    """
    height, m = estimate.shape
    masks = masks[: 2 * len(sides), : estimate.size].reshape(-1, height, m)
    inside, settled = masks[: len(sides)], masks[len(sides) :]
    for (_, lower, upper), sure, done in zip(sides, inside, settled):
        np.less(estimate, lower, out=sure)
        np.greater(estimate, upper, out=done)
        done |= sure
    settled[0] &= settled[-1]
    if settled[0].all():
        return inside
    step = max(1, (_BLOCK_ENTRIES // 4) // m)
    for lo in range(0, height, step):
        rows, cols = np.divmod(np.flatnonzero(~settled[0, lo : lo + step]), m)
        if rows.size:
            rows += lo
            exact = np.sqrt(_exact_squared(x[start:], y, rows, cols))
            for (radius, _, _), sure in zip(sides, inside):
                hit = exact <= (radius[rows, 0] if radius.ndim == 2 else radius[cols])
                sure[rows[hit], cols[hit]] = True
    return inside


def _ball_kernel(
    x: np.ndarray, y: np.ndarray, x_rows: tuple[np.ndarray, np.ndarray],
    y_rows: tuple[np.ndarray, np.ndarray], scale: float, radius: np.ndarray,
    lengths: np.ndarray, buffer: np.ndarray, masks: np.ndarray,
    y_radius: np.ndarray | None = None, ranks: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """``(sums, first)`` of x's balls of ``radius`` on the consecutive sets of ``lengths``
    rows in y: ``sums[0][j]`` counts x's balls holding y row j, ``first`` is
    ``ball_hits``', and with ``y_radius`` (y's balls) ``sums[1][j]`` counts the x rows
    inside y's ball j. Without ``ranks`` a hit reads the set's length less one in
    ``first``: below the length, all that coverage needs.

    ``x_rows`` and ``y_rows`` are the left ``_rows`` of x and the right ``_rows`` of y on
    one centre and sigma ``scale``; a caller builds y's rows once for every x it meets.
    Each block of x rows, as many as the float32 ``buffer`` holds (at least one), is
    estimated into it and decided into ``masks``.
    """
    left, slack_x = x_rows
    right, slack_y = y_rows
    m = y.shape[0]
    offsets = np.cumsum(lengths) - lengths
    # A slack over all of the other side's rows still bounds every entry of a block.
    x_side = _thresholds(radius, slack_x + slack_y.max(), scale)
    y_side = None if y_radius is None else _thresholds(y_radius, slack_y + slack_x.max(), scale)
    sums = np.zeros((1 if y_side is None else 2, m), dtype=np.int64)
    first = np.empty((lengths.size, x.shape[0]), dtype=np.int64)
    # Each column's rank counted back from its set's end: a ball's largest over its hits
    # is its set's length less the first hit's rank, and 0 where no row hits it.
    tail = (np.repeat(offsets + lengths, lengths) - np.arange(m)).astype(np.min_scalar_type(m))
    step = buffer.size // m
    for start in range(0, x.shape[0], step):
        block = slice(start, start + step)
        estimate = _estimate(left[block], right, buffer[: len(left[block]) * m].reshape(-1, m))
        sides = [tuple(t[block, None] for t in x_side)] + ([] if y_side is None else [y_side])
        inside = _block_inside(x, y, start, estimate, sides, masks)
        # uint8 sums of at most 255 rows are several times faster than wider sums.
        for lo in range(0, len(estimate), 255):
            sums += np.add.reduce(inside[:, lo : lo + 255].view(np.uint8), axis=1, dtype=np.uint8)
        first[:, block] = lengths[:, None] - np.maximum.reduceat(  # without ranks, tails of 1
            inside[0] * tail if ranks else inside[0].view(np.uint8), offsets, 1).T
    return sums, first


def _kth_exact(
    points: np.ndarray, estimate: np.ndarray, slack: np.ndarray, k: int, first: int, start: int
) -> np.ndarray:
    """The k-th smallest exact squared distance of each row of one ``knn_radii`` block,
    the row's own point excluded.

    ``estimate`` is (count, height, n) in sigma^2 units: row r of set s
    holds point ``first + s * n + start + r`` of ``points`` against the n
    points from ``first + s * n``, and ``slack`` (count, height) bounds the
    error of every entry of its row. Only the entries in the band around
    the row's k-th smallest estimate are recomputed (module docstring).
    """
    count, height, n = estimate.shape
    own = np.arange(height)
    estimate[:, own, own + start] = np.inf
    kth = np.partition(estimate, k - 1, axis=2)[..., k - 1]
    under = estimate < _outward(kth - 2.0 * slack, down=True)[..., None]
    below = np.count_nonzero(under, axis=2).ravel()
    # Listed: in the band, NaN included. Row r of the block is row r % height
    # of set r // height.
    listed = np.greater(estimate, _outward(kth + 2.0 * slack, down=False)[..., None])
    listed |= under
    block_row, cols = np.divmod(np.flatnonzero(np.logical_not(listed, out=listed)), n)
    first_row = first + block_row // height * n
    exact = _exact_squared(points, points, first_row + start + block_row % height, first_row + cols)
    # A point is not its own neighbour, as in the all-pairs reference.
    exact[start + block_row % height == cols] = np.inf
    exact = exact[np.lexsort((exact, block_row))]
    picked = exact[np.searchsorted(block_row, np.arange(count * height)) + k - 1 - below]
    return picked.reshape(count, height)


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
    caller's to bound. One sigma serves the whole stack.
    """
    ref = _as_matrix(reference)
    stack = ref if ref.ndim == 3 else ref[None]
    sets, n, dim = stack.shape
    if k < 1 or k >= n:
        raise ParameterError(f"k must satisfy 1 <= k < N, got k={k} with N={n}")
    points = stack.reshape(sets * n, dim)
    centred = _centred(stack, stack.mean(axis=1, keepdims=True))
    scale = _scale(centred[1].max(initial=0.0))
    left, slack_rows = _rows(centred, scale, left=True)
    right, slack_cols = _rows(centred, scale, left=False)
    del centred
    # Within row i every entry errs by at most slack_i.
    slack = slack_rows + slack_cols.max(axis=1, keepdims=True)
    kth = np.empty((sets, n), dtype=np.float64)
    entries = max(1, _BLOCK_ENTRIES // 4)
    group = max(1, entries // (n * n))
    step = max(1, min(n, entries // n))
    for lo in range(0, sets, group):
        block_sets = slice(lo, lo + group)
        for start in range(0, n, step):
            block_rows = slice(start, start + step)
            estimate = _estimate(left[block_sets, block_rows], right[block_sets])
            kth[block_sets, block_rows] = _kth_exact(
                points, estimate, slack[block_sets, block_rows], k, lo * n, start
            )
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
) -> tuple[float, float]:
    """Density and coverage of the candidate set against the reference manifold.

    Density is the expected number of reference k-NN balls containing a
    candidate point, divided by k; it can exceed 1. Coverage is the fraction
    of reference points whose ball contains at least one candidate point.
    """
    counts, first = ball_hits(reference, candidate, k)
    m, n = counts.shape[0], first.shape[0]
    return int(counts.sum()) / (k * m), int(np.count_nonzero(first < m)) / n


def pairwise_density_coverage(
    sets: Sequence[EmbeddingSet | np.ndarray],
    k: int,
    to_frame: Callable[[EmbeddingSet | np.ndarray], np.ndarray],
    centre: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices whose entry (i, j) is ``density_coverage(x_i, x_j, k)``, and 0 where i = j.

    x_i is ``to_frame(sets[i])`` (``real_frame`` gives the map), and every
    estimate row is centred on ``centre``. Each chunk is framed once, which
    gives its sets' k-NN radii, its rows, and the largest squared norm about
    ``centre`` up to its last set: sigma comes from that running peak, which
    covers every x set the chunk meets (module docstring).
    """
    parts = [s.data if isinstance(s, EmbeddingSet) else np.asarray(s) for s in sets]
    n, rows, dim = len(parts), np.array([part.shape[0] for part in parts]), parts[0].shape[1]
    hits, covered = np.zeros((2, n, n), dtype=np.int64)
    chunks = list(_chunks(rows.tolist(), dim + 2))
    size = max(_BLOCK_ENTRIES, *(rows[lo:hi].sum() for lo, hi in chunks))
    # One of each per matrix.
    buffer, masks = np.empty(size, dtype=np.float32), np.empty((4, size), dtype=bool)
    radii, peak = [], 0.0
    for lo, hi in chunks:
        y = to_frame(np.concatenate(parts[lo:hi]) if hi - lo > 1 else parts[lo])
        start = 0
        for length, run in groupby(rows[lo:hi].tolist()):  # a run of equal-size sets, one stack
            stop = start + length * len(list(run))
            radii.extend(knn_radii(y[start:stop].reshape(-1, length, dim), k).radii)
            start = stop
        centred = _centred(y, centre)
        peak = max(peak, float(centred[1].max()))
        scale = _scale(peak)
        right, slack_y = _rows(centred, scale, left=False)
        del centred
        for i in range(hi - 1):
            # Set i against the sets after it: the balls of each side, in one estimate.
            later = max(lo, i + 1)
            skip, lengths = rows[lo:later].sum(), rows[later:hi]
            x = to_frame(parts[i])
            (counts, back), first = _ball_kernel(
                x, y[skip:], _rows(_centred(x, centre), scale, left=True),
                (right[skip:], slack_y[skip:]), scale, radii[i], lengths, buffer, masks,
                np.concatenate(radii[later:hi]),
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
    x_rows, y_rows = _centred(ref, centre), _centred(cand, centre)
    scale = _scale(max(x_rows[1].max(), y_rows[1].max()))
    x_rows, y_rows = _rows(x_rows, scale, left=True), _rows(y_rows, scale, left=False)
    (counts,), first = _ball_kernel(
        ref, cand, x_rows, y_rows, scale, radius, lengths,
        np.empty(size, dtype=np.float32), np.empty((2, size), dtype=bool), ranks=True,
    )
    return counts, first[0] if segments is None else first


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
