import json
import shutil

import numpy as np
import pytest

from ganens import (
    EnsembleGenome,
    GeneratorProfile,
    MetricConfig,
    ObjectiveVector,
    Orientation,
    ParetoFront,
    ShortfallWarning,
    build_union,
    canonical_fixture_path,
    emit_pool,
    load_pool,
    quality_rows,
    read_embeddings,
    select_best,
)
from ganens.cli import main
from ganens.objective import capped_plan

from conftest import four_modes, gram_frechet


@pytest.fixture(scope="module")
def fixture_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_pool")
    code = main(["toy", str(canonical_fixture_path()), "--out", str(out)])
    assert code == 0
    return out / "manifest.json"


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_small")
    profiles = [GeneratorProfile(f"s{i}", (i % 4,), samples=80) for i in range(3)]
    return emit_pool(four_modes(), 80, profiles, out, seed=4)


class TestToy:
    def test_emits_manifest_with_six_generators(self, fixture_manifest):
        doc = json.loads(fixture_manifest.read_text())
        assert len(doc["generators"]) == 6

    def test_missing_spec_is_usage_error(self, tmp_path, capsys):
        code = main(["toy", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 1
        assert "absent.json" in capsys.readouterr().err

    def test_seed_flag_changes_hashes(self, tmp_path):
        for seed in ("1", "2"):
            code = main(
                ["toy", str(canonical_fixture_path()), "--out", str(tmp_path / seed), "--seed", seed]
            )
            assert code == 0
        a = (tmp_path / "1" / "real.emb").read_bytes()
        b = (tmp_path / "2" / "real.emb").read_bytes()
        assert a != b

    @pytest.mark.parametrize(
        "change, detail",
        [({"seed": -1}, "seed -1"), ({"id": "real"}, "'real'"), ({"id": "../../x"}, "'../../x'"),
         ({"modes": [2.9]}, "mode index must be an integer, got 2.9")],
        ids=["negative-seed", "id-real", "id-outside-out", "fractional-mode"],
    )
    def test_bad_spec_is_data_error_and_writes_nothing(self, tmp_path, capsys, change, detail):
        doc = json.loads(canonical_fixture_path().read_text())
        if "seed" in change:
            doc.update(change)
        else:
            doc["generators"][0].update(change)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "a" / "b" / "out"
        code = main(["toy", str(spec), "--out", str(out)])
        assert code == 2
        assert detail in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["spec.json"]


class TestPairwise:
    def test_symmetric_csv(self, small_manifest, tmp_path):
        code = main(["pairwise", "--manifest", str(small_manifest), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "pairwise.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["id", "s0", "s1", "s2"]
        matrix = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert np.array_equal(matrix, matrix.T)
        meta = json.loads((tmp_path / "pairwise.csv.meta.json").read_text())
        assert meta["provenance"]["tool"] == "ganens"
        assert meta["metric"]["k"] == 5

    def test_duplicate_pair_fid_near_zero(self, tmp_path):
        profiles = [GeneratorProfile("dup1", (0, 1, 2, 3), samples=200)]
        manifest = emit_pool(four_modes(), 200, profiles, tmp_path / "pool", seed=5)
        shutil.copy(tmp_path / "pool" / "dup1.emb", tmp_path / "pool" / "dup2.emb")
        doc = json.loads(manifest.read_text())
        doc["generators"].append(
            {"id": "dup2", "model": "dup2", "iteration": 0, "path": "dup2.emb"}
        )
        manifest.write_text(json.dumps(doc))
        code = main(
            ["pairwise", "--manifest", str(manifest), "--metric", "fid", "--out", str(tmp_path / "pw")]
        )
        assert code == 0
        lines = (tmp_path / "pw" / "pairwise.csv").read_text().strip().split("\n")
        entry = float(lines[1].split(",")[2])
        assert entry <= 1e-4


class TestRankDeficientFrechet:
    """N=12 rows in D=20: every covariance is singular, as N=1000 < D=2048 makes them in the paper.

    Every set keeps centred-rows factors here, and values are checked against
    the Gram-form oracle: the eigh reference keeps null-space noise.
    """

    @pytest.fixture(scope="class")
    def wide_manifest(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli_wide")
        profiles = [GeneratorProfile(f"w{i}", (i, (i + 1) % 4), samples=12) for i in range(4)]
        return emit_pool(four_modes(dim=20), 12, profiles, out, seed=6)

    def test_pairwise_symmetric_and_finite(self, wide_manifest, tmp_path):
        code = main(["pairwise", "--manifest", str(wide_manifest), "--metric", "fid",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "pairwise.csv").read_text().strip().split("\n")
        matrix = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert matrix.shape == (4, 4)
        assert np.isfinite(matrix).all()
        assert np.array_equal(matrix, matrix.T)
        assert np.array_equal(np.diag(matrix), np.zeros(4))
        assert (matrix[~np.eye(4, dtype=bool)] > 0).all()
        # Every set has all 12 rows, so each entry compares two whole sets.
        pool = load_pool(wide_manifest)
        assert [line.split(",")[0] for line in lines[1:]] == list(pool.ids)
        for i, (_, a) in enumerate(pool.members):
            for j, (_, b) in enumerate(pool.members[i + 1 :], start=i + 1):
                want = gram_frechet(a.data, b.data)
                assert abs(matrix[i, j] - want) <= 1e-9 * want

    def test_exhaustive_optimize_finite(self, wide_manifest, tmp_path):
        code = main(["optimize", "--manifest", str(wide_manifest), "--metric", "fid",
                     "--algo", "exhaustive", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "scatter.csv").read_text().strip().split("\n")
        rows = np.array([[float(v) for v in line.split(",")[:2]] for line in lines[1:]])
        assert rows.shape == (15, 2)
        assert np.isfinite(rows).all()
        front = json.loads((tmp_path / "front.json").read_text())["front"]
        assert front and all(np.isfinite([e["intra"], e["inter"]]).all() for e in front)
        # Each front entry's Intra-d scores the union its quotas draw (seed 0).
        pool = load_pool(wide_manifest)
        for entry in front:
            genome = EnsembleGenome.from_ids(entry["ids"], pool, "front.json", "ids")
            quotas = {pool.ids[i]: take for i, take in capped_plan(genome, pool, pool.real.rows)}
            want = gram_frechet(pool.real.data, build_union(quotas, pool, 0).data)
            assert abs(entry["intra"] - want) <= 1e-9 * want


class TestOptimize:
    def test_exhaustive_matches_fixture_ground_truth(self, fixture_manifest, tmp_path):
        code = main(
            [
                "optimize", "--manifest", str(fixture_manifest),
                "--algo", "exhaustive", "--seed", "0", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        front = json.loads((tmp_path / "front.json").read_text())
        ids = {tuple(sorted(e["ids"])) for e in front["front"]}
        assert ("A", "B") in ids
        for e in front["front"]:
            assert "E" not in e["ids"]

    def test_scatter_row_count_equals_budget(self, small_manifest, tmp_path):
        code = main(
            [
                "optimize", "--manifest", str(small_manifest), "--algo", "random",
                "--budget", "25", "--seed", "1", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "scatter.csv").read_text().strip().split("\n")
        assert lines[0] == "intra,inter,on_front,member_count"
        assert len(lines) == 26
        assert any(line.endswith(",1") or ",1," in line for line in lines[1:])

    def test_repeat_run_identical_bytes(self, small_manifest, tmp_path):
        for run in ("r1", "r2"):
            code = main(
                [
                    "optimize", "--manifest", str(small_manifest), "--algo", "nsga2",
                    "--budget", "6", "--population", "3", "--seed", "9",
                    "--out", str(tmp_path / run),
                ]
            )
            assert code == 0
        assert (tmp_path / "r1" / "front.json").read_bytes() == (
            tmp_path / "r2" / "front.json"
        ).read_bytes()

    def test_flag_order_does_not_change_front_bytes(self, small_manifest, tmp_path):
        flags = [["--manifest", str(small_manifest)], ["--algo", "random"], ["--budget", "5"],
                 ["--seed", "3"], ["--k", "3"], ["--total", "50"], ["--standardize"]]
        fronts = []
        for name, order in (("a", flags), ("b", flags[::-1])):
            out = tmp_path / name
            assert main(["optimize", *[f for pair in order for f in pair], "--out", str(out)]) == 0
            fronts.append((out / "front.json").read_bytes())
        assert fronts[0] == fronts[1]

    def test_exhaustive_cap_is_validation_error(self, tmp_path, capsys):
        profiles = [GeneratorProfile(f"g{i:02d}", (0,), samples=10) for i in range(21)]
        manifest = emit_pool(four_modes(), 10, profiles, tmp_path / "pool", seed=0)
        code = main(
            [
                "optimize", "--manifest", str(manifest), "--algo", "exhaustive",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "capped" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algo, budget, evaluations",
        # 4082 of the 4095 nonempty genomes over 12 generators have at most 10
        # members; a budget of 4095 runs NSGA-II until it has seen all of them.
        [("exhaustive", [], 4082), ("random", ["--budget", "2000"], 2000),
         ("nsga2", ["--budget", "4095"], 4082)],
    )
    def test_genomes_outnumbering_total_are_not_proposed(self, tmp_path, algo, budget, evaluations):
        # 12 generators and a 10-row real set: a union of 10 rows cannot give
        # each of 11 or 12 members a row, so no search may propose such a genome.
        spec = json.loads(canonical_fixture_path().read_text())
        spec["generators"] = [{"id": f"g{i:02d}", "modes": [i % 4], "samples": 20} for i in range(12)]
        spec["real_samples"] = 10
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["toy", str(tmp_path / "spec.json"), "--out", str(tmp_path / "pool")]) == 0
        code = main(["optimize", "--manifest", str(tmp_path / "pool" / "manifest.json"),
                     "--algo", algo, *budget, "--k", "3", "--out", str(tmp_path / "opt")])
        assert code == 0
        rows = (tmp_path / "opt" / "scatter.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == evaluations
        assert max(int(row.split(",")[-1]) for row in rows) == 10

    def test_unknown_algorithm_is_usage_error(self, small_manifest, tmp_path):
        code = main(
            [
                "optimize", "--manifest", str(small_manifest), "--algo", "anneal",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1


class TestSelect:
    def test_selection_manifest_schema(self, fixture_manifest, tmp_path):
        code = main(
            [
                "select", "--manifest", str(fixture_manifest), "--algo", "exhaustive",
                "--seed", "0", "--emit-union", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "selection.json").read_text())
        assert doc["chosen"] == ["A", "B"]
        assert sum(doc["quotas"].values()) == doc["total"] == 600
        assert doc["front_size"] >= 1
        assert doc["provenance"]["version"]
        union = read_embeddings(tmp_path / "union.emb")
        assert union.rows == 600

    @staticmethod
    def _iteration_pool(tmp_path):
        """Two generators whose sorted ids ("g-40000" < "g-5000") reverse canonical order."""
        from ganens import EmbeddingSet, write_embeddings

        rng = np.random.default_rng(5)
        write_embeddings(EmbeddingSet(rng.normal(size=(400, 3)), "r"), tmp_path / "real.emb")
        entries, sets = [], {}
        for gid, iteration, shift in (("g-40000", 40000, 3.0), ("g-5000", 5000, 0.0)):
            sets[gid] = rng.normal(size=(400, 3)) + shift
            write_embeddings(EmbeddingSet(sets[gid], gid), tmp_path / f"{gid}.emb")
            entries.append({"id": gid, "model": "g", "iteration": iteration, "path": f"{gid}.emb"})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"real": "real.emb", "generators": entries}))
        return manifest, sets

    def test_front_quotas_match_emitted_union(self, tmp_path):
        manifest, sets = self._iteration_pool(tmp_path)
        front = tmp_path / "front.json"
        front.write_text(json.dumps({"orientation": "higher", "front": [
            {"ids": ["g-40000", "g-5000"], "intra": 1.0, "inter": 0.5, "member_count": 2}]}))
        code = main(["select", "--front", str(front), "--manifest", str(manifest),
                     "--total", "601", "--emit-union", "--out", str(tmp_path / "s")])
        assert code == 0
        doc = json.loads((tmp_path / "s" / "selection.json").read_text())
        assert doc["chosen"] == ["g-5000", "g-40000"]
        assert doc["quotas"] == {"g-5000": 301, "g-40000": 300}
        union = read_embeddings(tmp_path / "s" / "union.emb").data
        counts = {}
        for gid, data in sets.items():
            own = {row.tobytes() for row in data.astype(np.float32)}
            counts[gid] = sum(row.tobytes() in own for row in union)
        assert counts == doc["quotas"]

    def test_short_member_round_trip(self, tmp_path):
        # Generator A holds 100 rows, short of its 300-row share of the real set's 600.
        spec = json.loads(canonical_fixture_path().read_text())
        next(g for g in spec["generators"] if g["id"] == "A")["samples"] = 100
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["toy", str(tmp_path / "spec.json"), "--out", str(tmp_path / "pool")]) == 0
        manifest = tmp_path / "pool" / "manifest.json"
        front = tmp_path / "front.json"
        front.write_text(json.dumps({"orientation": "higher", "front": [
            {"ids": ["A", "B"], "intra": 1.0, "inter": 0.5, "member_count": 2}]}))
        with pytest.warns(ShortfallWarning, match="'A' holds 100 rows but quota is 300"):
            code = main(["select", "--front", str(front), "--manifest", str(manifest),
                         "--emit-union", "--out", str(tmp_path / "sel")])
        assert code == 0
        doc = json.loads((tmp_path / "sel" / "selection.json").read_text())
        assert doc["quotas"] == {"A": 100, "B": 300}
        assert sum(doc["quotas"].values()) == doc["total"] == 400
        union = read_embeddings(tmp_path / "sel" / "union.emb").data
        assert union.shape[0] == doc["total"]
        pool = load_pool(manifest)
        counts = {}
        for record, dataset in pool.members:
            own = {row.tobytes() for row in dataset.data}
            counts[record.id] = sum(row.tobytes() in own for row in union)
        assert {g: n for g, n in counts.items() if n} == doc["quotas"]
        code = main(["quality", "--manifest", str(manifest),
                     "--selection", str(tmp_path / "sel" / "selection.json"),
                     "--out", str(tmp_path / "q")])
        assert code == 0

    @pytest.mark.parametrize(
        "ids, detail",
        [(["g-5000", "g-7"], "'g-7'"), (["g-5000", "g-5000"], "twice")],
        ids=["unknown-id", "repeated-id"],
    )
    def test_front_ids_not_naming_an_ensemble_is_data_error(self, tmp_path, capsys, ids,
                                                            detail):
        manifest, _ = self._iteration_pool(tmp_path)
        front = tmp_path / "front.json"
        front.write_text(json.dumps({"orientation": "higher", "front": [
            {"ids": ids, "intra": 1.0, "inter": 0.5, "member_count": 2}]}))
        code = main(["select", "--front", str(front), "--manifest", str(manifest),
                     "--out", str(tmp_path / "s")])
        assert code == 2
        assert detail in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["manifest"])
    @pytest.mark.parametrize(
        "change, detail",
        [
            ({"orientation": []}, "is not a valid Orientation"),
            ({"orientation": "highest"}, "is not a valid Orientation"),
            ({"ids": "AB"}, "'ids' must be a nonempty list of generator ids"),
            ({"ids": [["A"], ["B"]]}, "'ids' must be a nonempty list of generator ids"),
            ({"member_count": 5}, "member_count 5 for 2 ids"),
            ({"member_count": 2.7}, "member_count must be an integer, got 2.7"),
        ],
        ids=["orientation-list", "orientation-unknown", "ids-string", "ids-nested",
             "member-count-disagrees", "member-count-fraction"],
    )
    def test_bad_front_entry_is_data_error(self, fixture_manifest, tmp_path, capsys, change,
                                           detail, source):
        doc = {"orientation": "higher", "front": [
            {"ids": ["A", "B"], "intra": 1.0, "inter": 0.5, "member_count": 2}]}
        if "orientation" in change:
            doc.update(change)
        else:
            doc["front"][0].update(change)
        front = tmp_path / "front.json"
        front.write_text(json.dumps(doc))
        code = main(["select", "--front", str(front), f"--{source}", str(fixture_manifest),
                     "--out", str(tmp_path / "s")])
        assert code == 2
        assert detail in capsys.readouterr().err
        assert not (tmp_path / "s" / "selection.json").exists()

    def test_singleton_front_selected(self, fixture_manifest, tmp_path):
        path = tmp_path / "front.json"
        path.write_text(json.dumps({"orientation": "higher", "front": [
            {"ids": ["D"], "intra": 0.5, "inter": 0.0, "member_count": 1}]}))
        code = main(["select", "--front", str(path), "--manifest", str(fixture_manifest),
                     "--total", "10", "--out", str(tmp_path / "s")])
        assert code == 0
        doc = json.loads((tmp_path / "s" / "selection.json").read_text())
        assert doc["chosen"] == ["D"] and doc["quotas"] == {"D": 10}

    def test_front_without_manifest_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "front.json"
        path.write_text(json.dumps({"orientation": "higher", "front": [
            {"ids": ["x"], "intra": 0.5, "inter": 0.0, "member_count": 1}]}))
        code = main(["select", "--front", str(path), "--total", "1", "--out", str(tmp_path / "s")])
        assert code == 1
        assert "--manifest" in capsys.readouterr().err

    def test_tie_breaks_as_select_best(self, fixture_manifest, tmp_path):
        # [A, B] and [A, C] tie on both objectives and on size; select_best takes
        # the smaller bit vector, (1, 0, 1, ...) for [A, C].
        entries = [{"ids": ids, "intra": 0.9, "inter": 0.4, "member_count": 2}
                   for ids in (["A", "B"], ["A", "C"])]
        path = tmp_path / "front.json"
        path.write_text(json.dumps({"orientation": "higher", "front": entries}))
        code = main(["select", "--front", str(path), "--manifest", str(fixture_manifest),
                     "--out", str(tmp_path / "s")])
        assert code == 0
        pool = load_pool(fixture_manifest)
        cfg = MetricConfig()
        front = ParetoFront(tuple(
            (EnsembleGenome.from_ids(e["ids"], pool, "test", "ids"),
             ObjectiveVector(e["intra"], e["inter"], e["member_count"], cfg))
            for e in entries), Orientation.HIGHER_IS_BETTER)
        doc = json.loads((tmp_path / "s" / "selection.json").read_text())
        assert doc["chosen"] == list(select_best(front, pool).chosen) == ["A", "C"]

    @pytest.mark.parametrize("metric", ["dnc", "fid"])
    def test_front_file_selects_as_search(self, tmp_path, metric):
        assert main(["toy", str(canonical_fixture_path()), "--out", str(tmp_path / "pool"),
                     "--seed", "3"]) == 0
        flags = ["--manifest", str(tmp_path / "pool" / "manifest.json"), "--metric", metric]
        search = [*flags, "--algo", "exhaustive"]
        assert main(["optimize", *search, "--out", str(tmp_path / "opt")]) == 0
        assert main(["select", *search, "--out", str(tmp_path / "search")]) == 0
        assert main(["select", "--front", str(tmp_path / "opt" / "front.json"), *flags,
                     "--out", str(tmp_path / "front")]) == 0
        docs = [json.loads((tmp_path / d / "selection.json").read_text())
                for d in ("search", "front")]
        for key in ("chosen", "quotas", "objectives", "front_size", "total"):
            assert docs[0][key] == docs[1][key], key

    def test_front_orientation_must_match_metric(self, fixture_manifest, tmp_path, capsys):
        path = tmp_path / "front.json"
        path.write_text(json.dumps({"orientation": "lower", "front": [
            {"ids": ["A"], "intra": 3.0, "inter": 0.0, "member_count": 1}]}))
        code = main(["select", "--front", str(path), "--manifest", str(fixture_manifest),
                     "--out", str(tmp_path / "s")])
        assert code == 2
        assert "orientation 'lower', but --metric dnc is 'higher'" in capsys.readouterr().err
        assert not (tmp_path / "s" / "selection.json").exists()

    @pytest.mark.parametrize(
        "change, detail",
        [({"member_count": 3}, "member_count 3 for 1 ids"),
         ({"inter": float("inf")}, "non-finite objectives for ['C']")],
        ids=["member-count-disagrees", "inter-infinite"],
    )
    def test_bad_entry_behind_the_best_is_data_error(self, fixture_manifest, tmp_path, capsys,
                                                     change, detail):
        worse = {"ids": ["C"], "intra": 0.5, "inter": 0.0, "member_count": 1, **change}
        path = tmp_path / "front.json"
        path.write_text(json.dumps({"orientation": "higher", "front": [
            {"ids": ["A", "B"], "intra": 0.9, "inter": 0.4, "member_count": 2}, worse]}))
        code = main(["select", "--front", str(path), "--manifest", str(fixture_manifest),
                     "--out", str(tmp_path / "s")])
        assert code == 2
        assert detail in capsys.readouterr().err

    def test_needs_manifest_or_front(self, tmp_path):
        assert main(["select", "--out", str(tmp_path)]) == 1


class TestQuality:
    def test_rows_and_scatter(self, fixture_manifest, tmp_path):
        sel_dir = tmp_path / "sel"
        code = main(
            [
                "select", "--manifest", str(fixture_manifest), "--algo", "exhaustive",
                "--seed", "0", "--out", str(sel_dir),
            ]
        )
        assert code == 0
        code = main(
            [
                "quality", "--manifest", str(fixture_manifest),
                "--selection", str(sel_dir / "selection.json"), "--out", str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "quality.csv").read_text().strip().split("\n")
        assert lines[0] == "label,fid,density,coverage"
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert set(rows) == {"A", "B", "C", "D", "E", "F", "union"}
        # off-manifold profile scores zero coverage; the union scores high
        assert float(rows["E"][2]) == 0.0
        assert float(rows["union"][2]) >= 0.95
        scatter = (tmp_path / "quality_scatter.csv").read_text().strip().split("\n")
        assert scatter[0] == "label,diversity,fidelity"
        assert len(scatter) == len(lines)

    def test_in_range_quotas_are_drawn(self, small_manifest, tmp_path):
        # Quotas other than the even split are drawn as written, not re-derived.
        doc = {
            "chosen": ["s0", "s2"], "quotas": {"s0": 79, "s2": 1}, "front_size": 1, "total": 80,
            "objectives": {"intra": 0.5, "inter": 0.0, "member_count": 2},
        }
        (tmp_path / "selection.json").write_text(json.dumps(doc))
        code = main(["quality", "--manifest", str(small_manifest),
                     "--selection", str(tmp_path / "selection.json"), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "quality.csv").read_text().strip().split("\n")
        want = quality_rows(load_pool(small_manifest), union=doc["quotas"])[-1]
        assert lines[-1] == f"union,{want.fid!r},{want.density!r},{want.coverage!r}"

    def test_include_all_with_more_generators_than_real_rows(self, tmp_path):
        from ganens import EmbeddingSet, write_embeddings

        rng = np.random.default_rng(9)
        write_embeddings(EmbeddingSet(rng.normal(size=(10, 3)), "r"), tmp_path / "real.emb")
        entries = []
        for i in range(12):
            gid = f"g{i:02d}"
            write_embeddings(EmbeddingSet(rng.normal(size=(10, 3)), gid), tmp_path / f"{gid}.emb")
            entries.append({"id": gid, "model": gid, "iteration": 0, "path": f"{gid}.emb"})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"real": "real.emb", "generators": entries}))
        code = main(
            ["quality", "--manifest", str(manifest), "--include-all", "--out", str(tmp_path / "q")]
        )
        assert code == 0
        lines = (tmp_path / "q" / "quality.csv").read_text().strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]][-1] == "all"


class TestGap:
    @pytest.mark.parametrize(
        "real, synth, printed",
        [("0.822", "0.867", "+5.5"), ("0.817", "0.755", "-7.6"), ("0.7", "0.7", "0.0")],
    )
    def test_printed_gap(self, real, synth, printed, capsys):
        assert main(["gap", real, synth]) == 0
        assert f"gamma_rs {printed}" in capsys.readouterr().out

    def test_gap_json(self, tmp_path):
        assert main(["gap", "0.822", "0.867", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "gap.json").read_text())
        assert doc["gamma_rs_printed"] == "+5.5"
        assert doc["provenance"]["command"] == "gap"

    def test_zero_real_gmean_is_validation_error(self, capsys):
        assert main(["gap", "0.0", "0.5"]) == 2
        assert "positive" in capsys.readouterr().err


class TestExitCodes:
    def test_dim_mismatch_is_data_error(self, tmp_path, capsys):
        from ganens import EmbeddingSet, write_embeddings

        rng = np.random.default_rng(0)
        write_embeddings(EmbeddingSet(rng.normal(size=(10, 4)), "r"), tmp_path / "real.emb")
        write_embeddings(EmbeddingSet(rng.normal(size=(10, 6)), "g"), tmp_path / "g.emb")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "real": "real.emb",
                    "generators": [{"id": "g", "model": "m", "iteration": 0, "path": "g.emb"}],
                }
            )
        )
        code = main(["pairwise", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "dimension mismatch" in capsys.readouterr().err

    def test_missing_manifest_is_usage_error(self, tmp_path):
        code = main(["pairwise", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 1

    def test_thread_cap_env(self, small_manifest, tmp_path, monkeypatch):
        monkeypatch.setenv("GANENS_THREADS", "1")
        code = main(["pairwise", "--manifest", str(small_manifest), "--out", str(tmp_path)])
        assert code == 0

    def test_bad_thread_cap(self, small_manifest, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GANENS_THREADS", "lots")
        code = main(["pairwise", "--manifest", str(small_manifest), "--out", str(tmp_path)])
        assert code == 2
        assert "GANENS_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, text, detail",
        [
            ("--front", "{not json", "Expecting"),
            ("--front", json.dumps({"front": [{"ids": ["x"], "intra": 0.5, "inter": 0.0}]}),
             "member_count"),
            ("--selection", "{not json", "Expecting"),
            ("--front", "[" * 100_000, "maximum recursion depth"),
            ("--selection", "[" * 100_000, "maximum recursion depth"),
        ],
        ids=["front-not-json", "front-entry-without-member-count", "selection-not-json",
             "front-deep-nesting", "selection-deep-nesting"],
    )
    def test_malformed_json_is_data_error(self, small_manifest, tmp_path, capsys, flag, text,
                                          detail):
        path = tmp_path / "doc.json"
        path.write_text(text)
        command = "select" if flag == "--front" else "quality"
        code = main([command, "--manifest", str(small_manifest), flag, str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed" in err and detail in err

    @pytest.mark.parametrize("declared", ["abc", [1], 8.9], ids=["string", "list", "fraction"])
    def test_non_integer_embedding_dim_is_data_error(self, small_manifest, tmp_path, capsys,
                                                     declared):
        doc = json.loads(small_manifest.read_text())
        doc["embedding_dim"] = declared
        manifest = small_manifest.parent / f"manifest-{type(declared).__name__}.json"
        manifest.write_text(json.dumps(doc))
        code = main(["pairwise", "--manifest", str(manifest), "--out", str(tmp_path)])
        assert code == 2
        assert "embedding_dim" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, detail",
        [
            ({"quotas": [80]}, "'quotas' must map ids to counts"),
            ({"quotas": "s0"}, "'quotas' must map ids to counts"),
            ({"chosen": ["s0", "nope"], "quotas": {"s0": 40, "nope": 40}},
             "names generators not in the pool: ['nope']"),
            ({"quotas": {"s1": 80}}, "has quotas for ['s1'], but chooses ['s0']"),
            ({"quotas": {"s0": 70}}, "has quotas summing to 70, not 80"),
            ({"quotas": {"s0": 0}, "total": 0}, "quota 0 of 's0' is not in 1..80"),
            ({"quotas": {"s0": 81}, "total": 81}, "quota 81 of 's0' is not in 1..80"),
            ({"chosen": ["s0", "s0"]}, "names a generator twice in 'chosen'"),
            ({"total": 80.7}, "total must be an integer, got 80.7"),
            ({"quotas": {"s0": 80.5}}, "quota of 's0' must be an integer, got 80.5"),
            ({"chosen": "s0"}, "'chosen' must be a nonempty list of generator ids"),
            ({"objectives": {"intra": 1e999, "inter": 0.0, "member_count": 1}}, "non-finite"),
            ({"objectives": {"intra": 0.5, "inter": 0.0, "member_count": 5}},
             "member_count 5 for 1 ids"),
        ],
        ids=["quotas-list", "quotas-string", "unknown-id", "quotas-other-ids",
             "quotas-off-total", "quota-zero", "quota-above-rows", "repeated-id",
             "total-fraction", "quota-fraction", "chosen-string", "objective-infinite",
             "member-count-disagrees"],
    )
    def test_bad_selection_is_data_error(self, small_manifest, tmp_path, capsys, change, detail):
        doc = {
            "chosen": ["s0"], "quotas": {"s0": 80}, "front_size": 1, "total": 80,
            "objectives": {"intra": 0.5, "inter": 0.0, "member_count": 1},
        }
        doc.update(change)
        path = tmp_path / "selection.json"
        path.write_text(json.dumps(doc))
        code = main(["quality", "--manifest", str(small_manifest), "--selection", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert detail in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
