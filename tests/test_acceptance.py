"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""
import json
import time

import numpy as np
import pytest

from ganens import (
    EnsembleEvaluator,
    EnsembleGenome,
    GaussianSummary,
    MetricConfig,
    SearchConfig,
    canonical_fixture_path,
    compute_gap,
    density_coverage,
    dominates,
    frechet_distance,
    gaussian_summary,
    harmonic_d,
    quota_plan,
    read_embeddings,
    search,
    select_best,
)
from ganens.cli import main
from ganens.optimize import _selection_key

from test_metrics import brute_force_density_coverage


def criterion(number: int, description: str, passed: bool) -> None:
    print(f"[criterion {number}] {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_1_metric_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(0)

    ok = True
    # coverage(X, X) = 1 exactly, duplicates included
    for seed in range(10):
        r = np.random.default_rng(seed)
        x = r.normal(size=(int(r.integers(8, 40)), int(r.integers(1, 6))))
        if seed % 2:
            x = np.vstack([x, x[:3]])
        ok &= density_coverage(x, x, 3)[1] == 1.0

    # frechet(a, a) <= 1e-6
    for seed in range(5):
        r = np.random.default_rng(seed)
        s = gaussian_summary(r.normal(size=(40, 5)))
        ok &= frechet_distance(s, s) <= 1e-6

    # harmonic identities
    for c in np.linspace(0.01, 3.0, 25):
        ok &= harmonic_d(float(c), float(c)) == pytest.approx(float(c))
        ok &= harmonic_d(0.0, float(c)) == 0.0

    # 200 random instances against the all-pairs oracle, exact equality
    mismatches = 0
    for trial in range(200):
        k = (1, 3, 5)[trial % 3]
        n = int(rng.integers(k + 1, 51))
        m = int(rng.integers(1, 51))
        d = int(rng.integers(1, 9))
        ref = rng.standard_normal((n, d))
        cand = rng.standard_normal((m, d)) + rng.normal(0, 1, d)
        if density_coverage(ref, cand, k) != brute_force_density_coverage(ref, cand, k):
            mismatches += 1
    ok &= mismatches == 0

    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    criterion(1, f"metric identities and 200-instance oracle equality in {elapsed:.2f}s", ok)


def test_criterion_2_fid_scalar_cases():
    a = GaussianSummary(np.array([0.0]), np.array([[1.0]]))
    b = GaussianSummary(np.array([1.0]), np.array([[1.0]]))
    c = GaussianSummary(np.array([0.0]), np.array([[4.0]]))
    ok = abs(frechet_distance(a, b) - 1.0) <= 1e-9
    ok &= abs(frechet_distance(c, a) - 1.0) <= 1e-9
    criterion(2, "1-D Frechet scalar cases equal 1.0 within 1e-9", ok)


def test_criterion_3_pareto_correctness(toy10_pool):
    started = time.perf_counter()
    evaluator = EnsembleEvaluator(toy10_pool, MetricConfig(k=5), seed=0)
    exhaustive = search(toy10_pool, evaluator, SearchConfig(algorithm="exhaustive", seed=0))
    evolved = search(
        toy10_pool,
        evaluator,
        SearchConfig(algorithm="nsga2", budget=2048, population=50, seed=0),
    )
    no_dominated = not any(
        dominates(best, candidate)
        for _, candidate in evolved.front.entries
        for _, best in exhaustive.front.entries
    )
    exh_points = sorted((o.intra, o.inter) for _, o in exhaustive.front.entries)
    evo_points = sorted((o.intra, o.inter) for _, o in evolved.front.entries)
    identical = exh_points == evo_points
    elapsed = time.perf_counter() - started
    ok = no_dominated and identical and elapsed < 10.0
    criterion(
        3,
        f"evolutionary front undominated and identical to exhaustive at full budget ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_4_mode_recovery(tmp_path):
    started = time.perf_counter()
    spec = canonical_fixture_path()
    coverages = []
    excluded_e = True
    duplicate_guard = True
    for data_seed in range(10):
        base = tmp_path / f"seed{data_seed}"
        assert main(["toy", str(spec), "--out", str(base / "pool"), "--seed", str(data_seed)]) == 0
        manifest = str(base / "pool" / "manifest.json")
        assert (
            main(
                [
                    "optimize", "--manifest", manifest, "--algo", "exhaustive",
                    "--seed", "0", "--out", str(base / "opt"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "select", "--front", str(base / "opt" / "front.json"), "--manifest", manifest,
                    "--seed", "0", "--emit-union", "--out", str(base / "sel"),
                ]
            )
            == 0
        )
        selection = json.loads((base / "sel" / "selection.json").read_text())
        chosen = set(selection["chosen"])
        excluded_e &= "E" not in chosen
        real = read_embeddings(base / "pool" / "real.emb")
        union = read_embeddings(base / "sel" / "union.emb")
        coverages.append(density_coverage(real, union, 5)[1])
        if {"A", "C"} <= chosen:
            # only acceptable if no smaller ensemble reached equal-or-better delta
            delta = selection["objectives"]["intra"]
            members = selection["objectives"]["member_count"]
            scatter = (base / "opt" / "scatter.csv").read_text().strip().split("\n")[1:]
            for row in scatter:
                intra, _, _, count = row.split(",")
                if int(count) < members and float(intra) >= delta:
                    duplicate_guard = False
    mean_coverage = float(np.mean(coverages))
    elapsed = time.perf_counter() - started
    ok = mean_coverage >= 0.95 and excluded_e and duplicate_guard and elapsed < 60.0
    criterion(
        4,
        f"mode recovery: mean coverage {mean_coverage:.4f} over 10 seeds, "
        f"E excluded, A/C guard held ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_5_uniobjective_ablation(fixture_pool):
    ok = True
    for metric in ("dnc", "fid"):
        evaluator = EnsembleEvaluator(fixture_pool, MetricConfig(kind=metric, k=5), seed=0)
        cfg = SearchConfig(algorithm="exhaustive", seed=0)
        result = search(fixture_pool, evaluator, cfg)
        multi = select_best(result.front, fixture_pool)
        # The uni-objective pick: Intra-d alone over every evaluated genome.
        _, uni = min(result.evaluations, key=_selection_key)
        ok &= multi.objectives.member_count <= uni.member_count
        ok &= multi.objectives.effective()[0] >= uni.effective()[0] - 1e-12
    criterion(5, "multi-objective uses no more members at equal-or-better delta (dnc and fid)", ok)


def test_criterion_6_gamma_rs_reproduction(capsys):
    table = [
        (0.822, 0.854, 3.9), (0.822, 0.842, 2.4), (0.822, 0.652, -20.7),
        (0.822, 0.822, 0.0), (0.822, 0.823, 0.1), (0.822, 0.867, 5.5), (0.822, 0.881, 7.2),
        (0.817, 0.707, -13.5), (0.817, 0.697, -14.7), (0.817, 0.407, -50.2),
        (0.817, 0.664, -18.7), (0.817, 0.714, -12.6), (0.817, 0.755, -7.6), (0.817, 0.755, -7.6),
        (0.607, 0.588, -3.1), (0.607, 0.555, -8.6), (0.607, 0.339, -44.2),
        (0.607, 0.533, -12.2), (0.607, 0.487, -19.8), (0.607, 0.573, -5.6), (0.607, 0.573, -5.6),
    ]
    ok = all(abs(compute_gap(r, s).gamma_rs - printed) <= 0.05 for r, s, printed in table)
    # the exemplar pair through the command line itself
    assert main(["gap", "0.822", "0.867"]) == 0
    ok &= "gamma_rs +5.5" in capsys.readouterr().out
    criterion(6, "all 21 reference gamma_RS pairs reproduced within 0.05", ok)


def test_criterion_7_quota_arithmetic():
    _, plan = quota_plan(EnsembleGenome((1,) * 38), 4708)
    ok = int(plan.sum()) == 4708
    _, plan = quota_plan(EnsembleGenome((1, 1, 1)), 100)
    ok &= plan.tolist() == [34, 33, 33]
    criterion(7, "quota_plan(4708, 38) sums exactly; (100, 3) -> (34, 33, 33)", ok)


def test_criterion_8_determinism(tmp_path, fixture_spec):
    spec = canonical_fixture_path()
    assert main(["toy", str(spec), "--out", str(tmp_path / "pool")]) == 0
    manifest = str(tmp_path / "pool" / "manifest.json")
    for run in ("r1", "r2"):
        code = main(
            [
                "optimize", "--manifest", manifest, "--algo", "nsga2",
                "--budget", "60", "--population", "20", "--seed", "11",
                "--out", str(tmp_path / run),
            ]
        )
        assert code == 0
    ok = (tmp_path / "r1" / "front.json").read_bytes() == (tmp_path / "r2" / "front.json").read_bytes()
    ok &= (tmp_path / "r1" / "scatter.csv").read_bytes() == (tmp_path / "r2" / "scatter.csv").read_bytes()
    criterion(8, "repeated cmd_optimize produces byte-identical front JSON", ok)
