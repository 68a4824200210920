import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gram_frechet, make_pool, standardized_by_real
from ganens import (
    EmbeddingSet,
    GaussianSummary,
    MetricConfig,
    MetricKind,
    NumericError,
    Orientation,
    ParameterError,
    density_coverage,
    frechet_distance,
    gaussian_summary,
    harmonic_d,
    knn_radii,
    metric_d,
    pairwise_distances,
    pairwise_matrix,
)
import ganens.metrics
from ganens.metrics import (
    EIGENVALUE_CLAMP,
    _UNIT_ROUNDOFF,
    _as_matrix,
    _block_inside,
    _centred,
    _exact_squared,
    _kth_exact,
    _rows,
    _scale,
    _thresholds,
    ball_tables,
    factored_set,
    frechet_factored,
    pairwise_density_coverage,
    real_frame,
)


def brute_force_density_coverage(ref, cand, k):
    """Independent all-pairs oracle; per-point loops, sort-based radii."""
    n, m = len(ref), len(cand)
    radii = np.empty(n)
    for i in range(n):
        d = np.sqrt(((ref[i] - ref) ** 2).sum(axis=1))
        radii[i] = np.sort(np.delete(d, i))[k - 1]
    inside = np.empty((n, m), dtype=bool)
    for i in range(n):
        inside[i] = np.sqrt(((ref[i] - cand) ** 2).sum(axis=1)) <= radii[i]
    return float(inside.sum()) / (k * m), float(inside.any(axis=1).mean())


class TestKnnRadii:
    def test_hand_example(self):
        profile = knn_radii(np.array([[0.0], [1.0], [3.0]]), 1)
        assert profile.tolist() == [1.0, 1.0, 2.0]

    def test_duplicate_points_give_zero_radius(self):
        profile = knn_radii(np.array([[2.0, 2.0], [2.0, 2.0]]), 1)
        assert profile.tolist() == [0.0, 0.0]

    def test_k_equal_to_n_is_an_error(self):
        with pytest.raises(ParameterError, match="1 <= k < N"):
            knn_radii(np.zeros((3, 2)), 3)
        with pytest.raises(ParameterError):
            knn_radii(np.zeros((3, 2)), 0)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 3))
        assert np.array_equal(knn_radii(x, 4), knn_radii(x, 4))


class TestDensityCoverage:
    def test_density_hand_examples(self):
        ref = np.array([[0.0], [1.0]])
        assert density_coverage(ref, np.array([[0.1]]), 1)[0] == 2.0
        assert density_coverage(ref, ref, 1)[0] == 2.0
        assert density_coverage(ref, np.array([[100.0]]), 1)[0] == 0.0

    def test_coverage_hand_examples(self):
        ref = np.array([[0.0], [1.0]])
        assert density_coverage(ref, ref, 1)[1] == 1.0
        assert density_coverage(ref, np.array([[0.1]]), 1)[1] == 1.0
        assert density_coverage(ref, np.array([[5.0]]), 1)[1] == 0.0

    def test_coverage_self_is_one_even_with_duplicates(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(15, 4))
        x = np.vstack([x, x[:3]])
        assert density_coverage(x, x, 3)[1] == 1.0

    def test_coverage_bounded(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            r = np.random.default_rng(seed)
            ref = r.normal(size=(25, 3))
            cand = r.normal(size=(18, 3)) + r.normal(0, 2, 3)
            cvg = density_coverage(ref, cand, 3)[1]
            assert 0.0 <= cvg <= 1.0

    def test_zero_when_disjoint_beyond_max_radius(self):
        rng = np.random.default_rng(3)
        ref = rng.normal(size=(30, 4))
        cand = rng.normal(size=(20, 4)) + 100.0
        radii = knn_radii(ref, 5)
        assert pairwise_distances(ref, cand).min() > radii.max()
        dns, cvg = density_coverage(ref, cand, 5)
        assert dns == 0.0 and cvg == 0.0

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_brute_force_equivalence(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(40):
            n = int(rng.integers(k + 1, 51))
            m = int(rng.integers(1, 51))
            d = int(rng.integers(1, 9))
            ref = rng.standard_normal((n, d))
            cand = rng.standard_normal((m, d)) + rng.normal(0, 1, d)
            assert density_coverage(ref, cand, k) == brute_force_density_coverage(ref, cand, k)

    def test_translation_invariance_exact(self):
        # continuous data: no comparison sits on a representability boundary
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, m, d = int(rng.integers(6, 30)), int(rng.integers(3, 30)), int(rng.integers(1, 6))
            ref = rng.standard_normal((n, d))
            cand = rng.standard_normal((m, d)) * 2
            shift = rng.normal(0, 10, d)
            assert density_coverage(ref, cand, 2) == density_coverage(ref + shift, cand + shift, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError, match="dimension mismatch"):
            density_coverage(np.zeros((4, 2)), np.zeros((4, 3)), 1)

    @pytest.mark.parametrize("segments", [[4, 4], [2, 2], [6, 0], [7, -1], []])
    def test_malformed_segments_rejected(self, segments):
        # Each set is one segment of the ball tables, taken in its order, which must
        # permute its rows: on 6 rows, [4, 4] and [2, 2] repeat a row and leave out the
        # others, [6, 0] and [7, -1] name rows that do not exist, and [] takes none.
        rng = np.random.default_rng(8)
        ref, cand = EmbeddingSet(rng.normal(size=(5, 2))), rng.normal(size=(6, 2))
        with pytest.raises(ParameterError, match="order must permute its rows, 1 or more"):
            ball_tables(ref, [(cand, np.arange(6)), (cand, segments)], 2, _as_matrix)


def reference_radii(x, k):
    """k-NN radii from the reference kernel: all pairs, then the k-th order statistic."""
    d = pairwise_distances(x, x)
    np.fill_diagonal(d, np.inf)
    return np.partition(d, k - 1, axis=1)[:, k - 1]


def float32_band_edges(lower, upper):
    """A band's edges as float32 thresholds: ``lower`` rounded down and ``upper`` rounded
    up, each checked not to be a float32 value itself. (Compared as float64: a Python
    float meeting a float32 would become one.)"""
    down, up = np.float32(lower), np.float32(upper)
    down = np.nextafter(down, np.float32(-np.inf)) if float(down) > lower else down
    up = np.nextafter(up, np.float32(np.inf)) if float(up) < upper else up
    assert float(down) < lower < float(np.nextafter(down, np.float32(np.inf)))
    assert float(np.nextafter(up, np.float32(-np.inf))) < upper < float(up)
    return down, up


def reference_density_coverage(ref, cand, k):
    inside = pairwise_distances(ref, cand) <= reference_radii(ref, k)[:, None]
    return float(inside.sum()) / (k * cand.shape[0]), float(inside.any(axis=1).mean())


def reference_tables(ref, cand, k, order=None):
    """``ball_tables``' ``(prefix, first)`` of one set in ``order`` (row order by default),
    from the reference's ball decisions."""
    order = np.arange(len(cand)) if order is None else order
    inside = (pairwise_distances(ref, cand) <= reference_radii(ref, k)[:, None])[:, order]
    prefix = np.concatenate([[0], np.cumsum(inside.sum(axis=0))])
    return prefix, np.where(inside.any(axis=1), inside.argmax(axis=1), len(order))


def one_set_tables(ref, cand, k, order=None):
    """``ball_tables`` of one set, in ``order`` (row order by default), as 1-D arrays."""
    order = np.arange(len(cand)) if order is None else order
    (prefix,), (first,) = ball_tables(ref, [(cand, order)], k, _as_matrix)
    return prefix, first


def assert_tables_equal(got, want):
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def grid_or_normal_rows(rng, kind, count, dim):
    """Rows on the integer grid, normal rows rounded to float32, or plain normal rows."""
    if kind == "grid":
        return rng.integers(-2, 3, size=(count, dim)).astype(np.float64)
    values = rng.standard_normal((count, dim))
    return values.astype(np.float32).astype(np.float64) if kind == "float32" else values


def assert_entries_equal_reference(matrix, pool, k, standardize):
    """Every entry of a dnc pairwise matrix over whole sets is the reference's mean of both orders."""
    subs = [es.data.astype(np.float64) for _, es in pool.members]
    if standardize:
        subs = standardized_by_real(pool, subs)
    for i in range(len(subs)):
        for j in range(i + 1, len(subs)):
            forward = harmonic_d(*reference_density_coverage(subs[i], subs[j], k))
            backward = harmonic_d(*reference_density_coverage(subs[j], subs[i], k))
            assert matrix.values[i, j] == (forward + backward) / 2.0


# Offsets and scales of the drawn sets. With scales of 1e19 and 1e31 (1e37
# with the offset) squared norms exceed float32's range; with 1e-30 and
# 1e-150 products fall below its normal range. Tiny rows, 1e-40 times the
# others, meet them in one call, so their products fall below float32's
# normal range whatever power of two scales the call.
OFFSETS = [0.0, 1e6]
SCALES = [1.0, 1e-150, 1e-30, 1e19, 1e31]


def planted_magnitudes(rng, sets, offset, scale, tiny):
    """Each set offset and scaled, and with ``tiny`` about a third of its rows made tiny."""
    out = []
    for rows in sets:
        rows = (rows + offset) * scale
        if tiny:
            rows[rng.random(len(rows)) < 0.3] *= 1e-40
        out.append(rows)
    return out


@st.composite
def ball_sets(draw, max_rows=14):
    """Two point sets meant to put ball decisions on and near their thresholds.

    Integer-grid rows sit exactly on one another's radii; duplicated rows
    give zero distances and zero radii; float32-rounded rows, a common
    offset of 1e6, the scales of ``SCALES`` and tiny rows stress the error
    bound of the fast kernel in different ways.
    """
    n = draw(st.integers(2, max_rows))
    m = draw(st.integers(2, max_rows))
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["grid", "float32", "normal"]))
    offset = draw(st.sampled_from(OFFSETS))
    scale = draw(st.sampled_from(SCALES))
    tiny = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    x, y = (grid_or_normal_rows(rng, kind, count, dim) for count in (n, m))
    if draw(st.booleans()):
        x[: n // 2] = x[rng.integers(0, n, n // 2)]
        y[: m // 2] = x[rng.integers(0, n, m // 2)]
    return tuple(planted_magnitudes(rng, (x, y), offset, scale, tiny))


@st.composite
def pool_sets(draw):
    """A real set and 3 to 7 generator sets of their own row counts, one dimension.

    Rows are drawn as in ``ball_sets``; with duplicates on, each set repeats
    rows of the real set, so ball decisions sit on their thresholds.
    """
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["grid", "float32", "normal"]))
    offset = draw(st.sampled_from(OFFSETS))
    scale = draw(st.sampled_from(SCALES))
    tiny = draw(st.booleans())
    duplicates = draw(st.booleans())
    counts = draw(st.lists(st.integers(2, 12), min_size=4, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    real, *generators = [grid_or_normal_rows(rng, kind, count, dim) for count in counts]
    if duplicates:
        for g in generators:
            g[: len(g) // 2] = real[rng.integers(0, len(real), len(g) // 2)]
    real, *generators = planted_magnitudes(rng, [real, *generators], offset, scale, tiny)
    return real, generators


@st.composite
def radius_plants(draw):
    """A set x, k, and rows y planted within one float32 ulp of x's k-NN radii.

    Each planted row is x_i's centred row a_i = x_i - c (c the mean of x)
    plus r_i (1 + t 2^-24) times a unit vector, t in {-1, 0, 1}, then c
    added back: its distance to x_i is the radius to within one float32
    ulp, and so is its float32 rounding.
    """
    x, _ = draw(ball_sets())
    k = 1 + draw(st.integers(0, 100)) % (len(x) - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radii, centre = reference_radii(x, k), x.mean(axis=0)
    balls = rng.integers(0, len(x), draw(st.integers(2, 14)))
    direction = rng.standard_normal((len(balls), x.shape[1]))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    stretch = 1.0 + rng.integers(-1, 2, len(balls)) * 2.0**-24
    y = centre + ((x[balls] - centre) + direction * (radii[balls] * stretch)[:, None])
    return x, y, k


@st.composite
def tie_sets(draw):
    """Rows tied at their k-th value: a point p, the 2 D points p +- s e_d at distance
    s from it, and a few drawn rows; on the integer grid the ties are exact, and off
    it near."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "normal"]))
    spacing = float(draw(st.sampled_from([1, 2, 3])))
    centre = grid_or_normal_rows(rng, kind, 1, dim)
    star = centre + spacing * np.vstack([np.eye(dim), -np.eye(dim)])
    rows = np.vstack([centre, star, grid_or_normal_rows(rng, kind, draw(st.integers(0, 6)), dim)])
    offset = draw(st.sampled_from(OFFSETS))
    scale = draw(st.sampled_from([1.0, 2.0**-100, 2.0**70]))
    return rows[rng.permutation(len(rows))] * scale + offset * scale


@st.composite
def crowded_pool_sets(draw):
    """A real set and 40 to 48 generator sets of 3 to 5 rows, with copies and loners.

    Rows are drawn as in ``ball_sets``. A copy repeats an earlier set's rows
    in another order, so with k = 1 each ball of the copy holds two rows of
    its source: the row it repeats and that row's nearest neighbour. A loner
    sits far from every other set, alone, so its entries hold no hit.
    """
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["grid", "float32", "normal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    roles = draw(st.lists(st.sampled_from(["drawn", "copy", "loner"]), min_size=40, max_size=48))
    real = grid_or_normal_rows(rng, kind, 5, dim)
    generators, drawn = [], []
    for i, role in enumerate(["drawn", "copy", "loner", *roles[3:]]):
        rows = grid_or_normal_rows(rng, kind, int(rng.integers(3, 6)), dim)
        if role == "copy":
            source = drawn[int(rng.integers(0, len(drawn)))]
            rows = source[rng.permutation(len(source))]
        elif role == "loner":
            rows += 1000.0 * (i + 1)
        else:
            drawn.append(rows)
        generators.append(rows)
    return real, generators


def estimates_at_bound(a, b, centre, sigma, sign):
    """sigma^2 s + sign * bound for every pair of rows of a and b, rounded to float32
    toward sigma^2 s: the module docstring's first-order bound, (2D + 7) u (|a|^2 + |b|^2)
    + (6D + 3) lambda with u = 2^-24, lambda = 2^-126 and the norms about ``centre``."""
    rows, cols = np.divmod(np.arange(len(a) * len(b)), len(b))
    exact = _exact_squared(a, b, rows, cols).reshape(len(a), len(b)) * sigma**2
    norms_a, norms_b = (_centred(z, centre)[1] * sigma**2 for z in (a, b))
    dim = a.shape[1]
    bound = (2 * dim + 7) * 2.0**-24 * (norms_a[:, None] + norms_b)
    bound += (6 * dim + 3) * 2.0**-126
    target = exact + sign * bound
    estimate = target.astype(np.float32)
    # A rounding away from sigma^2 s takes one float32 step back toward it.
    away = sign * (estimate - target) > 0
    back = np.nextafter(estimate, np.where(sign > 0, -np.inf, np.inf).astype(np.float32))
    return np.where(away, back, estimate)


class TestReferenceEquality:
    """The GEMM kernel takes every ball decision as the per-dimension loop does."""

    @settings(max_examples=400)
    @given(sets=ball_sets(), k_draw=st.integers(0, 100))
    def test_radii_and_counts_equal_reference(self, sets, k_draw):
        x, y = sets
        k = 1 + k_draw % (x.shape[0] - 1)
        assert np.array_equal(knn_radii(x, k), reference_radii(x, k))
        assert density_coverage(x, y, k) == reference_density_coverage(x, y, k)
        assert_tables_equal(one_set_tables(x, y, k), reference_tables(x, y, k))

    @settings(max_examples=100)
    @given(sets=ball_sets(), k_draw=st.integers(0, 100), standardize=st.booleans())
    def test_pairwise_entries_equal_reference(self, sets, k_draw, standardize):
        # Pool sets are float32, so the 1e-150 scale collapses them to
        # duplicates (and zero deviations); "c" repeats rows of both "a" and "b".
        x, y = sets
        size = min(len(x), len(y))
        pool = make_pool({"a": x[:size], "b": y[:size], "c": np.vstack([x, y])[-size:]}, x)
        k = 1 + k_draw % (size - 1)
        matrix = pairwise_matrix(pool, MetricConfig(k=k, standardize=standardize))
        assert_entries_equal_reference(matrix, pool, k, standardize)

    @settings(max_examples=150)
    @given(
        sets=pool_sets(),
        k_draw=st.integers(0, 100),
        standardize=st.booleans(),
        cap_rows=st.integers(0, 90),
    )
    def test_chunked_rows_equal_reference(self, sets, k_draw, standardize, cap_rows):
        # A cap of cap_rows rows splits a matrix row's candidates into chunks
        # of one set, of several sets, or leaves a set larger than the cap.
        real, generators = sets
        pool = make_pool({f"g{i}": g for i, g in enumerate(generators)}, real)
        k = 1 + k_draw % (min(len(g) for g in generators) - 1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ganens.metrics, "_CHUNK_ENTRIES", cap_rows * (real.shape[1] + 2))
            # A sample as large as the largest set keeps every set whole.
            matrix = pairwise_matrix(
                pool,
                MetricConfig(k=k, standardize=standardize),
                sample_per_generator=max(len(g) for g in generators),
            )
        assert_entries_equal_reference(matrix, pool, k, standardize)

    @settings(max_examples=30)
    @given(
        sets=crowded_pool_sets(),
        k_draw=st.integers(0, 100),
        standardize=st.booleans(),
        block_entries=st.integers(1, 12),
        cap_rows=st.integers(20, 120),
    )
    def test_blocked_rows_equal_reference(self, sets, k_draw, standardize, block_entries, cap_rows):
        # A chunk holds many sets, and an estimate block holds one row of a set
        # unless few columns follow it, so each ball of a copy holds rows of
        # its source from two blocks: it is covered once.
        real, generators = sets
        pool = make_pool({f"g{i:02d}": g for i, g in enumerate(generators)}, real)
        k = 1 + k_draw % 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ganens.metrics, "_BLOCK_ENTRIES", block_entries)
            patch.setattr(ganens.metrics, "_CHUNK_ENTRIES", cap_rows * (real.shape[1] + 2))
            matrix = pairwise_matrix(
                pool,
                MetricConfig(k=k, standardize=standardize),
                sample_per_generator=max(len(g) for g in generators),
            )
        assert_entries_equal_reference(matrix, pool, k, standardize)
        assert (matrix.values == 0).all(axis=1).any()

    @settings(max_examples=200)
    @given(data=st.data(), k_draw=st.integers(0, 100), block_entries=st.integers(1, 400))
    def test_stacked_radii_equal_one_set_calls(self, data, k_draw, block_entries):
        # Small blocks split a stack into groups of whole sets, or a set into
        # blocks of rows; copies within and across sets make ties and zero radii.
        sets, n, dim = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 7), (2, 9), (1, 4)))
        kind = data.draw(st.sampled_from(["grid", "float32", "normal"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        flat = grid_or_normal_rows(rng, kind, sets * n, dim)
        if data.draw(st.booleans()):
            flat[rng.integers(0, sets * n, sets * n // 2)] = flat[rng.integers(0, sets * n, sets * n // 2)]
        (flat,) = planted_magnitudes(
            rng, [flat], *(data.draw(st.sampled_from(v)) for v in (OFFSETS, SCALES, [False, True]))
        )
        stack = flat.reshape(sets, n, dim)
        k = 1 + k_draw % (n - 1)
        want = np.stack([knn_radii(x, k) for x in stack])
        assert np.array_equal(want, np.stack([reference_radii(x, k) for x in stack]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ganens.metrics, "_BLOCK_ENTRIES", block_entries)
            assert np.array_equal(knn_radii(stack, k), want)
            assert np.array_equal(knn_radii(stack[0], k), want[0])

    @settings(max_examples=200)
    @given(sets=ball_sets(), data=st.data(), k_draw=st.integers(0, 100),
           block_entries=st.integers(1, 400), cap_rows=st.integers(0, 30))
    def test_segmented_hits_equal_one_call_per_set(self, sets, data, k_draw, block_entries,
                                                   cap_rows):
        # One ball_tables call over several sets, each in a drawn order, gives each
        # set's one-set tables and the reference's, whatever runs of sets a cap of
        # cap_rows rows makes and whatever blocks the balls' rows fall into.
        x, y = sets
        k = 1 + k_draw % (x.shape[0] - 1)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(y) - 1), max_size=4)))
        bounds = [0, *cuts, len(y)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sets = [(y[lo:hi], rng.permutation(hi - lo)) for lo, hi in zip(bounds, bounds[1:])]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ganens.metrics, "_BLOCK_ENTRIES", block_entries)
            patch.setattr(ganens.metrics, "_CHUNK_ENTRIES", cap_rows * (x.shape[1] + 2))
            prefix, first = ball_tables(x, sets, k, _as_matrix)
        assert prefix.shape == (len(sets), max(np.diff(bounds)) + 1)
        assert first.shape == (len(sets), len(x))
        for s, (rows, order) in enumerate(sets):
            own = one_set_tables(x, rows, k, order)
            assert_tables_equal((prefix[s, : len(rows) + 1], first[s]), own)
            assert_tables_equal(own, reference_tables(x, rows, k, order))
            assert density_coverage(x, rows, k) == reference_density_coverage(x, rows, k)

    @pytest.mark.parametrize("axis", ["column", "row", "both"])
    def test_closed_ball_recomputes_nan_and_band_edges(self, axis, monkeypatch):
        # Radius 1 everywhere; row 0 holds y0 and row 1 holds y2, nothing else,
        # for x's balls (a column of radii) and for y's (a row). With both
        # sides, each planted entry is in the band of x's ball and y's at once.
        x = np.array([[0.0], [10.0]])
        y = np.array([[0.5], [2.0], [10.25], [13.0]])
        shapes = {"column": (2, 1), "row": (4,)}
        axes = ["column", "row"] if axis == "both" else [axis]
        sides = [_thresholds(np.ones(shapes[a]), np.full(shapes[a], 0.01), 1.0) for a in axes]
        exact = pairwise_distances(x, y) <= 1.0
        assert exact.tolist() == [[True, False, False, False], [False, False, True, False]]
        sure = (pairwise_distances(x, y) ** 2).astype(np.float32)
        band = 0.01 + 8.0 * _UNIT_ROUNDOFF
        lower, upper = float32_band_edges(1.0 - band, 1.0 + band)
        recomputed = []

        def recording(a, b, rows, cols):
            recomputed.extend(zip(rows.tolist(), cols.tolist()))
            return _exact_squared(a, b, rows, cols)

        monkeypatch.setattr(ganens.metrics, "_exact_squared", recording)
        # One unsure entry at a time: it must be listed and recomputed, once for
        # every side, inside or outside the ball.
        for value in (np.nan, lower, upper):
            for entry in ((0, 0), (1, 2), (0, 1), (1, 3)):
                estimate = sure.copy()
                estimate[entry] = value
                recomputed.clear()
                masks = np.empty((4, estimate.size), dtype=bool)
                for inside in _block_inside(x, y, 0, estimate, sides, masks):
                    assert np.array_equal(inside, exact), (value, entry)
                assert recomputed == [entry], (value, entry)

    def test_kth_recomputes_band_edges(self):
        # Row 0 of the points 0..5 has exact squared distances 1, 4, 9, 16, 25.
        # With row slack 0.01 and 9 estimated exactly, the band around H = 9 is
        # [9 - 0.02, 9 + 0.02] rounded outward to float32. An entry planted on
        # either edge must be in the band and recomputed: 16 on the lower edge
        # with k = 4, and 4 on the upper edge with k = 2. Counted below the band
        # or left above it, either would make the k-th value 9.
        points = np.arange(6.0)[:, None]
        slack = np.full((1, 1), 0.01)
        lower, upper = float32_band_edges(9.0 - 0.02, 9.0 + 0.02)
        for k, entry, value in ((4, 4, lower), (2, 2, upper)):
            estimate = (points.T**2).astype(np.float32)[None]
            estimate[0, 0, entry] = value
            kth = _kth_exact(points, estimate, slack, k, 0, 0)
            assert kth.tolist() == [[reference_radii(points, k)[0] ** 2]], (k, entry)

    @settings(max_examples=200)
    @given(sets=ball_sets(), k_draw=st.integers(0, 100), seed=st.integers(0, 2**32 - 1))
    def test_estimates_at_the_proven_bound_decide_exactly(self, sets, k_draw, seed):
        # Any estimate within the module docstring's first-order bound of
        # sigma^2 s, (2D + 7) u (|a|^2 + |b|^2) + (6D + 3) lambda with
        # u = 2^-24 and lambda = 2^-126, gives the reference's ball decisions
        # and radii. Here every estimate errs by that bound (rounded to float32
        # toward sigma^2 s): toward the wrong side of its ball for the ball
        # tests, in drawn directions for the radii. The slacks are the ones the
        # kernel builds for ball_tables and knn_radii.
        x, y = sets
        rng = np.random.default_rng(seed)

        def decided(estimate, radius, slack, sigma):
            masks = np.empty((2, estimate.size), dtype=bool)
            sides = [_thresholds(radius, slack, sigma)]
            return _block_inside(x, y, 0, estimate, sides, masks)[0]

        # Ball tests, centred on x's mean with one sigma for both sets, in both orientations.
        centre = x.mean(axis=0)
        (_, norms_x), (_, norms_y) = _centred(x, centre), _centred(y, centre)
        sigma = _scale(max(norms_x.max(), norms_y.max()))
        slack_x = _rows(_centred(x, centre), sigma, left=True)[1]
        slack_y = _rows(_centred(y, centre), sigma, left=False)[1]
        distances = pairwise_distances(x, y)
        radius_x = reference_radii(x, 1 + k_draw % (len(x) - 1))[:, None]
        radius_y = reference_radii(y, 1 + k_draw % (len(y) - 1))
        for radius, slack in (
            (radius_x, (slack_x + slack_y.max())[:, None]), (radius_y, slack_y + slack_x.max())
        ):
            want = distances <= radius
            estimate = estimates_at_bound(x, y, centre, sigma, np.where(want, 1.0, -1.0))
            assert np.array_equal(decided(estimate, radius, slack, sigma), want)

        # k-NN radii of x, on x's own mean and sigma, as knn_radii takes them.
        k = 1 + k_draw % (len(x) - 1)
        sigma = _scale(norms_x.max())
        slack = _rows(_centred(x, centre), sigma, left=True)[1]
        slack += _rows(_centred(x, centre), sigma, left=False)[1].max()
        estimate = estimates_at_bound(x, x, centre, sigma, rng.choice([-1.0, 1.0], (len(x), len(x))))
        kth = _kth_exact(x, estimate[None], slack[None], k, 0, 0)
        assert np.array_equal(np.sqrt(kth[0]), reference_radii(x, k))

    def test_a_far_first_set_bounds_the_balls_of_later_chunks(self, monkeypatch):
        # "far" sits f = 3 * 2^10 out along e_0, alone in the first chunk. The
        # second chunk's rows lie 2^10 from the centre, a ninth of "far"'s
        # squared norm. Rows 2^10 and -2^10 of "line" are each other's nearest
        # neighbour, so ball 0 of "line" has radius 2^11, and its edge runs
        # through "far"'s rows, t u f off it (t = -3..3, u = 2^-24). Every
        # estimate of a kernel call errs by the first-order bound toward the
        # wrong side of y's ball: about 12.2 u f^2 on those entries, where y's
        # band without the x rows' part is 5.6 u f^2 and the entries sit
        # within 4 u f^2 of the edge. Each call must also keep sigma^2 times
        # every row's squared norm below 2^100 (module docstring), "far"'s too.
        f, dim = 3.0 * 2**10, 2
        far = np.column_stack([f + np.arange(-3, 4) * 2.0**-24 * f, np.zeros(7)])
        line = np.array([[f / 3, 0.0], [-f / 3, 0.0]])
        cross = np.array([[0.0, f / 3], [0.0, -f / 3]])
        sets, centre, planted = [far, line, cross], np.zeros(dim), []
        estimate, kernel = ganens.metrics._estimate, ganens.metrics._ball_kernel

        def at_bound(x, y, x_rows, y_rows, scale, *args):
            assert max(x_rows[0][:, dim].max(), y_rows[0][:, dim + 1].max()) < 2.0**100
            inside = pairwise_distances(x, y) <= args[-1][0]  # y's thresholds' radii
            planted.append(estimates_at_bound(x, y, centre, scale, np.where(inside, 1.0, -1.0)))
            try:
                return kernel(x, y, x_rows, y_rows, scale, *args)
            finally:
                planted.pop()

        def estimated(left, right, out=None):
            if not planted:  # a k-NN radius
                return estimate(left, right, out)
            assert left.shape[0] == planted[-1].shape[0]  # one block
            return planted[-1]

        monkeypatch.setattr(ganens.metrics, "_ball_kernel", at_bound)
        monkeypatch.setattr(ganens.metrics, "_estimate", estimated)
        monkeypatch.setattr(ganens.metrics, "_CHUNK_ENTRIES", len(far) * (dim + 2))
        dns, cvg = pairwise_density_coverage(sets, 1, real_frame(far, False), centre)
        for i, x in enumerate(sets):
            for j, y in enumerate(sets):
                if i != j:
                    assert (dns[i, j], cvg[i, j]) == reference_density_coverage(x, y, 1)

    @settings(max_examples=200)
    @given(plants=radius_plants())
    def test_rows_planted_on_radii_equal_reference(self, plants):
        # Rows within one float32 ulp of a ball's edge are decided as the
        # reference decides them, alone and in a pool, whose float32 rows move
        # them by at most another half ulp per coordinate.
        x, y, k = plants
        assert_tables_equal(one_set_tables(x, y, k), reference_tables(x, y, k))
        assert density_coverage(x, y, k) == reference_density_coverage(x, y, k)
        pool = make_pool({"a": x, "b": np.vstack([y, x])}, x)
        matrix = pairwise_matrix(pool, MetricConfig(k=k), sample_per_generator=len(x) + len(y))
        assert_entries_equal_reference(matrix, pool, k, False)

    @settings(max_examples=150)
    @given(rows=tie_sets(), k_draw=st.integers(0, 100), block_entries=st.integers(1, 400))
    def test_radii_with_tied_kth_values_equal_reference(self, rows, k_draw, block_entries):
        # The star's centre has 2 D neighbours at one distance, so its k-th value
        # is tied for most k, and the narrowed recompute must count past ties.
        k = 1 + k_draw % (len(rows) - 1)
        want = reference_radii(rows, k)
        assert np.array_equal(knn_radii(rows, k), want)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ganens.metrics, "_BLOCK_ENTRIES", block_entries)
            assert np.array_equal(knn_radii(np.stack([rows, rows[::-1]]), k),
                                  np.stack([want, want[::-1]]))
        half = rows[::2]
        assert density_coverage(rows, half, k) == reference_density_coverage(rows, half, k)

    @settings(max_examples=200)
    @given(sets=ball_sets(), data=st.data(), k_draw=st.integers(0, 100),
           block_entries=st.integers(1, 24), standardize=st.booleans())
    def test_listed_slices_equal_reference(self, sets, data, k_draw, block_entries, standardize):
        # Blocks of one x row, and band slices of one row and a few entries,
        # split a ball's hits, and the hits of one (ball, set) pair, across
        # blocks; the listing of a block's band splits across slices.
        x, y = sets
        k = 1 + k_draw % (x.shape[0] - 1)
        cuts = sorted(data.draw(st.sets(st.integers(1, len(y) - 1), max_size=4)))
        bounds = [0, *cuts, len(y)]
        size = min(len(x), len(y))
        pool = make_pool({"a": x[:size], "b": y[:size], "c": np.vstack([x, y])[-size:]}, x)
        pool_k = 1 + k_draw % (size - 1)
        sets = [(y[lo:hi], np.arange(hi - lo)) for lo, hi in zip(bounds, bounds[1:])]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ganens.metrics, "_BLOCK_ENTRIES", block_entries)
            prefix, first = ball_tables(x, sets, k, _as_matrix)
            matrix = pairwise_matrix(pool, MetricConfig(k=pool_k, standardize=standardize))
        for s, (rows, _) in enumerate(sets):
            want = reference_tables(x, rows, k)
            assert_tables_equal((prefix[s, : len(rows) + 1], first[s]), want)
        assert_entries_equal_reference(matrix, pool, pool_k, standardize)

    def test_listed_slices_bound_the_temporaries(self):
        # Two copies of one 512-row set with k = N - 1: every ball holds every
        # row, so each 2^18-entry estimate block lists all its entries. Decided
        # at once they peaked at 18.7 MB under tracemalloc; in slices of 2^16
        # the matrix stage stays near 8.5 MB.
        base = np.random.default_rng(24).standard_normal((512, 2))
        pool = make_pool({"a": base, "b": base.copy()}, base)
        tracemalloc.start()
        try:
            matrix = pairwise_matrix(pool, MetricConfig(k=511))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        assert matrix.values[0, 1] == harmonic_d(512 / 511, 1.0)

    def test_every_entry_in_the_band_equals_reference(self):
        # Two copies of a 512-row identity: every distance off the diagonal and
        # every k-NN radius is sqrt(2), so nearly every entry of the single
        # 2^18-entry block sits on the edge of both its balls, and is listed and
        # recomputed. Sliced, the listing keeps the matrix stage under the bound
        # of the test above.
        base = np.eye(512)
        pool = make_pool({"a": base, "b": base.copy()}, base)
        tracemalloc.start()
        try:
            matrix = pairwise_matrix(pool, MetricConfig(k=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        assert_entries_equal_reference(matrix, pool, 5, False)
        assert_tables_equal(one_set_tables(base, base.copy(), 5),
                            reference_tables(base, base.copy(), 5))

    def test_band_recompute_sums_in_reference_order(self):
        # Magnitudes spread over 16 decades make the rounded sum depend on
        # the order of its terms, so any other order shows up here.
        rng = np.random.default_rng(11)
        for dim in (3, 17, 64):
            x = rng.standard_normal((25, dim)) * 10.0 ** rng.integers(-8, 9, dim)
            y = rng.standard_normal((30, dim)) * 10.0 ** rng.integers(-8, 9, dim)
            rows, cols = np.divmod(np.arange(25 * 30), 30)
            exact = np.sqrt(_exact_squared(x, y, rows, cols))
            assert np.array_equal(exact, pairwise_distances(x, y)[rows, cols])


class TestHarmonicD:
    def test_equal_inputs_return_the_value(self):
        for c in (0.1, 0.5, 1.0, 2.5):
            assert harmonic_d(c, c) == pytest.approx(c)

    def test_zero_annihilates(self):
        assert harmonic_d(0.0, 1.0) == 0.0
        assert harmonic_d(0.0, 0.0) == 0.0

    def test_worked_example(self):
        # density 0.886, coverage 1.000 combine to 0.9396 (4 significant digits)
        assert harmonic_d(0.886, 1.0) == pytest.approx(0.93955, abs=5e-6)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            harmonic_d(-0.1, 0.5)

    def test_min_preserving_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a, b = rng.uniform(0, 3, 2)
            assert harmonic_d(a, b) <= 2 * min(a, b) + 1e-12


class TestGaussianSummary:
    def test_hand_covariance(self):
        summary = gaussian_summary(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert summary.mean.tolist() == [1.0, 0.0]
        assert summary.covariance.tolist() == [[2.0, 0.0], [0.0, 0.0]]

    def test_single_point_rejected(self):
        with pytest.raises(ParameterError, match="at least 2 rows"):
            gaussian_summary(np.array([[1.0, 2.0]]))

    def test_identical_points_zero_covariance(self):
        summary = gaussian_summary(np.ones((10, 3)))
        assert np.allclose(summary.covariance, 0.0)

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        summary = gaussian_summary(rng.normal(size=(40, 6)))
        assert np.array_equal(summary.covariance, summary.covariance.T)


def eigh_route_frechet(a, b):
    """The Frechet distance with the full ``eigh`` of both S_a and the product.

    Returns the distance and the symmetrized product it decomposed.
    """

    def clamped(matrix):
        values, vectors = np.linalg.eigh(matrix)
        return np.where(values < EIGENVALUE_CLAMP, 0.0, values), vectors

    values, vectors = clamped(a.covariance)
    root = (vectors * np.sqrt(values)) @ vectors.T
    product = root @ b.covariance @ root
    product = (product + product.T) / 2.0
    diff = a.mean - b.mean
    value = (
        float(diff @ diff)
        + float(np.trace(a.covariance))
        + float(np.trace(b.covariance))
        - 2.0 * float(np.sqrt(clamped(product)[0]).sum())
    )
    return max(0.0, value), product


class TestFrechet:
    def test_scalar_mean_shift(self):
        a = GaussianSummary(np.array([0.0]), np.array([[1.0]]))
        b = GaussianSummary(np.array([1.0]), np.array([[1.0]]))
        assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_scalar_variance_gap(self):
        a = GaussianSummary(np.array([0.0]), np.array([[4.0]]))
        b = GaussianSummary(np.array([0.0]), np.array([[1.0]]))
        assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_identical_is_zero(self):
        rng = np.random.default_rng(8)
        summary = gaussian_summary(rng.normal(size=(50, 5)))
        assert frechet_distance(summary, summary) <= 1e-6

    def test_symmetry(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            a = gaussian_summary(rng.standard_normal((60, 6)) * rng.uniform(0.5, 2))
            b = gaussian_summary(rng.standard_normal((50, 6)) + rng.normal(0, 2, 6))
            assert abs(frechet_distance(a, b) - frechet_distance(b, a)) <= 1e-8

    def test_dim_mismatch(self):
        a = GaussianSummary(np.zeros(2), np.eye(2))
        b = GaussianSummary(np.zeros(3), np.eye(3))
        with pytest.raises(ParameterError):
            frechet_distance(a, b)

    def test_non_finite_covariance_raises_numeric(self):
        a = GaussianSummary(np.zeros(2), np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NumericError):
            frechet_distance(a, a)

    def test_non_finite_product_raises_numeric(self):
        # A finite first summary, so the NaN reaches the product's eigenvalues.
        a = gaussian_summary(np.random.default_rng(14).standard_normal((10, 3)))
        b = GaussianSummary(np.zeros(3), np.full((3, 3), np.nan))
        with pytest.raises(NumericError, match="covariance product"):
            frechet_distance(a, b)

    def test_failed_eigenvalues_raise_numeric(self, monkeypatch):
        x = np.random.default_rng(15).standard_normal((10, 3))
        a = gaussian_summary(x)

        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericError, match="eigendecomposition failed"):
            frechet_distance(a, a)
        with pytest.raises(NumericError, match="eigendecomposition failed"):
            frechet_factored(factored_set(x), x)

    def test_scaled_covariance_closed_form(self):
        # S_b = c^2 S_a gives Tr (S_a S_b)^(1/2) = c Tr S_a, so the distance is
        # |mu_a - mu_b|^2 + (1 - c)^2 Tr S_a.
        rng = np.random.default_rng(13)
        a = gaussian_summary(rng.standard_normal((40, 6)) * rng.uniform(0.5, 2, 6))
        shift = rng.normal(size=6)
        trace = float(np.trace(a.covariance))
        for c in (0.25, 1.0, 3.0):
            b = GaussianSummary(a.mean + shift, c * c * a.covariance)
            want = float(shift @ shift) + (1.0 - c) ** 2 * trace
            assert frechet_distance(a, b) == pytest.approx(want, rel=1e-12)

    def test_commuting_diagonal_closed_form(self):
        # Diagonal covariances commute: Tr (S_a S_b)^(1/2) = sum sqrt(a_i b_i).
        rng = np.random.default_rng(16)
        var_a, var_b = rng.uniform(0.1, 5.0, 8), rng.uniform(0.1, 5.0, 8)
        var_b[:2] = 0.0  # zero eigenvalues of the product, clamped to 0
        mean_a, mean_b = rng.normal(size=8), rng.normal(size=8)
        a = GaussianSummary(mean_a, np.diag(var_a))
        b = GaussianSummary(mean_b, np.diag(var_b))
        want = float((mean_a - mean_b) @ (mean_a - mean_b)) + float(
            var_a.sum() + var_b.sum() - 2.0 * np.sqrt(var_a * var_b).sum()
        )
        assert frechet_distance(a, b) == pytest.approx(want, rel=1e-12)
        assert frechet_distance(b, a) == pytest.approx(want, rel=1e-12)

    @settings(max_examples=200)
    @given(st.data())
    def test_eigenvalues_only_equal_eigh_route(self, data):
        # Full-rank summaries (N > D) and rank-deficient ones (N <= D), whose
        # product has zero eigenvalues that round to either side of 0.
        dim = data.draw(st.integers(2, 10))
        deficient = data.draw(st.booleans())
        rows = st.integers(2, dim) if deficient else st.integers(dim + 1, dim + 15)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

        def summary(n):
            scale, shift = rng.uniform(0.1, 10.0, dim), rng.normal(0.0, 3.0, dim)
            return gaussian_summary(rng.standard_normal((n, dim)) * scale + shift)

        a, b = summary(data.draw(rows)), summary(data.draw(rows))
        want, product = eigh_route_frechet(a, b)
        if deficient:
            assert np.linalg.eigvalsh(product).min() < EIGENVALUE_CLAMP
        assert abs(frechet_distance(a, b) - want) <= 1e-10 * want


class TestFactoredFrechet:
    """The covariance-factor route against the eigh reference, closed forms and an oracle."""

    @staticmethod
    def _rows(rng, n, dim):
        return rng.standard_normal((n, dim)) * rng.uniform(0.1, 10.0, dim) + rng.normal(0, 3, dim)

    @settings(max_examples=200)
    @given(st.data())
    def test_full_rank_equals_eigh_reference(self, data):
        # n > D, half the draws at n = D + 1, in the raw or the standardized
        # frame of the first set: stored against stored in both orders, and
        # stored against rows, within 1e-9 of the reference.
        dim = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sizes = [dim + (1 if data.draw(st.booleans()) else data.draw(st.integers(2, 15)))
                 for _ in range(2)]
        a, b = (self._rows(rng, n, dim) for n in sizes)
        to_frame = real_frame(a, data.draw(st.booleans()))
        framed_a, framed_b = to_frame(a), to_frame(b)
        want = frechet_distance(gaussian_summary(framed_a), gaussian_summary(framed_b))
        stored_a, stored_b = factored_set(a, to_frame), factored_set(b, to_frame)
        assert stored_a.lower is not None and stored_b.lower is not None
        for got in (
            frechet_factored(stored_a, stored_b),
            frechet_factored(stored_b, stored_a),
            frechet_factored(stored_a, framed_b),
            frechet_factored(stored_b, framed_a),
        ):
            assert abs(got - want) <= 1e-9 * want

    @settings(max_examples=100)
    @given(st.data())
    def test_rank_deficient_equals_gram_oracle(self, data):
        # n <= D: centred-rows factors, rebuilt from the rows through the frame
        # for every call.
        dim = data.draw(st.integers(2, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        a, b = (self._rows(rng, data.draw(st.integers(2, dim)), dim) for _ in range(2))
        to_frame = real_frame(a, data.draw(st.booleans()))
        stored_a, stored_b = factored_set(a, to_frame), factored_set(b, to_frame)
        assert stored_a.lower is None and stored_a.rows is a
        want = gram_frechet(to_frame(a), to_frame(b))
        for got in (
            frechet_factored(stored_a, stored_b),
            frechet_factored(stored_b, stored_a),
            frechet_factored(stored_a, to_frame(b)),
        ):
            assert abs(got - want) <= 1e-9 * want

    @pytest.mark.parametrize("n, dim", [(40, 6), (7, 6), (4, 12)])
    def test_scaled_copy_closed_form(self, n, dim):
        # Rows scaled by c about the mean: S_b = c^2 S_a with equal means, so the
        # distance is (1 - c)^2 Tr S_a, for Cholesky (n = D + 1 included) and
        # centred-rows factors.
        a = self._rows(np.random.default_rng(21), n, dim)
        mean = a.mean(axis=0)
        trace = float(np.trace(np.cov(a, rowvar=False)))
        stored = factored_set(a)
        assert (stored.lower is None) == (n <= dim)
        for c in (0.25, 1.0, 3.0):
            b = mean + c * (a - mean)
            want = (1.0 - c) ** 2 * trace
            for got in (frechet_factored(stored, factored_set(b)), frechet_factored(stored, b)):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12 * trace)

    def test_commuting_diagonal_closed_form(self):
        # Columns 1..8 of a 16 x 16 Sylvester-Hadamard matrix are centred and
        # orthogonal, so the covariances are diagonal and commute:
        # Tr (S_a S_b)^(1/2) = sum sqrt(a_i b_i). Two columns of b are
        # constant, so with n > D its Cholesky fails and it keeps centred rows.
        hadamard = np.ones((1, 1))
        for _ in range(4):
            hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
        signs = hadamard[:, 1:9]
        rng = np.random.default_rng(16)
        sd_a, sd_b = rng.uniform(0.1, 3.0, 8), rng.uniform(0.1, 3.0, 8)
        sd_b[:2] = 0.0
        mean_a, mean_b = rng.normal(size=8), rng.normal(size=8)
        a, b = mean_a + signs * sd_a, mean_b + signs[::-1] * sd_b
        var_a, var_b = sd_a**2 * 16 / 15, sd_b**2 * 16 / 15
        want = float((mean_a - mean_b) @ (mean_a - mean_b)) + float(
            ((np.sqrt(var_a) - np.sqrt(var_b)) ** 2).sum()
        )
        stored_a, stored_b = factored_set(a), factored_set(b)
        assert stored_a.lower is not None and stored_b.lower is None
        for got in (
            frechet_factored(stored_a, stored_b),
            frechet_factored(stored_b, stored_a),
            frechet_factored(stored_a, b),
            frechet_factored(stored_b, a),
        ):
            assert got == pytest.approx(want, rel=1e-12)

    def test_constant_column_falls_back_to_centred_rows(self):
        rng = np.random.default_rng(17)
        a, b = self._rows(rng, 30, 5), self._rows(rng, 25, 5)
        a[:, 2] = 4.0
        stored = factored_set(a)
        assert stored.lower is None
        want = gram_frechet(a, b)
        assert abs(frechet_factored(stored, factored_set(b)) - want) <= 1e-9 * want
        assert abs(frechet_factored(stored, b) - want) <= 1e-9 * want

    @pytest.mark.parametrize("copies, dim", [(8, 5), (4, 5)])
    def test_duplicated_rows(self, copies, dim):
        # Each row repeated: 8 distinct rows in 5 dimensions keep full rank;
        # 4 distinct rows give n = 8 > D with rank 3.
        rng = np.random.default_rng(18)
        a = np.vstack([self._rows(rng, copies, dim)] * 2)
        b = self._rows(rng, 20, dim)
        want = gram_frechet(a, b)
        if copies > dim:
            assert want == pytest.approx(
                frechet_distance(gaussian_summary(a), gaussian_summary(b)), rel=1e-9
            )
        for got in (frechet_factored(factored_set(a), factored_set(b)),
                    frechet_factored(factored_set(b), a)):
            assert abs(got - want) <= 1e-9 * want

    def test_one_dimension(self):
        rng = np.random.default_rng(19)
        a, b = rng.normal(2.0, 3.0, (20, 1)), rng.normal(-1.0, 0.5, (15, 1))
        sd_a, sd_b = a.std(ddof=1), b.std(ddof=1)
        want = (a.mean() - b.mean()) ** 2 + (sd_a - sd_b) ** 2
        assert frechet_factored(factored_set(a), factored_set(b)) == pytest.approx(want, rel=1e-12)
        assert frechet_factored(factored_set(a), b) == pytest.approx(want, rel=1e-12)

    def test_two_row_union(self):
        rng = np.random.default_rng(20)
        a, union = self._rows(rng, 30, 4), self._rows(rng, 2, 4)
        want = gram_frechet(a, union)
        assert abs(frechet_factored(factored_set(a), union) - want) <= 1e-9 * want
        with pytest.raises(ParameterError, match="at least 2 rows"):
            frechet_factored(factored_set(a), union[:1])
        with pytest.raises(ParameterError, match="at least 2 rows"):
            factored_set(union[:1])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ParameterError, match="dimension mismatch"):
            frechet_factored(factored_set(rng.normal(size=(10, 3))), rng.normal(size=(10, 4)))

    def test_non_finite_product_raises_numeric(self):
        a = np.random.default_rng(23).standard_normal((10, 3))
        b = a.copy()
        b[0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="covariance product"):
            frechet_factored(factored_set(a), b)


class TestMetricD:
    def test_identical_sets_density_coverage(self):
        x = EmbeddingSet(np.array([[0.0], [1.0]]), "x")
        assert metric_d(x, x, MetricConfig(k=1)) == pytest.approx(4.0 / 3.0)

    def test_identical_sets_frechet(self):
        rng = np.random.default_rng(9)
        x = EmbeddingSet(rng.normal(size=(30, 4)), "x")
        assert metric_d(x, x, MetricConfig(kind="fid")) <= 1e-6

    def test_disjoint_clusters_zero(self):
        rng = np.random.default_rng(10)
        x = EmbeddingSet(rng.normal(size=(20, 3)), "x")
        y = EmbeddingSet(rng.normal(size=(20, 3)) + 500.0, "y")
        assert metric_d(x, y, MetricConfig(k=2)) == 0.0

    def test_asymmetric_in_general(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([[0.0], [0.1]])
        cfg = MetricConfig(k=1)
        forward = metric_d(x, y, cfg)
        backward = metric_d(y, x, cfg)
        assert forward == pytest.approx(4.0 / 3.0)
        assert backward == pytest.approx(1.0)
        assert forward != backward

    def test_standardize_matches_manual(self):
        rng = np.random.default_rng(11)
        ref = rng.normal(size=(40, 3)) * np.array([1.0, 10.0, 0.1])
        cand = rng.normal(size=(30, 3)) * np.array([1.0, 10.0, 0.1])
        mean, std = ref.mean(axis=0), ref.std(axis=0)
        manual = metric_d((ref - mean) / std, (cand - mean) / std, MetricConfig(k=3))
        assert metric_d(ref, cand, MetricConfig(k=3, standardize=True)) == manual


class TestMetricConfig:
    def test_orientation_follows_kind(self):
        assert MetricConfig(kind="dnc").orientation is Orientation.HIGHER_IS_BETTER
        assert MetricConfig(kind="fid").orientation is Orientation.LOWER_IS_BETTER

    def test_kind_normalized_from_string(self):
        assert MetricConfig(kind="fid").kind is MetricKind.FRECHET

    def test_bad_k(self):
        with pytest.raises(ParameterError):
            MetricConfig(k=0)
