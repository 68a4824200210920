import hashlib
import json

import numpy as np
import pytest

from ganens import (
    DataError,
    GeneratorProfile,
    ModeSpec,
    ParameterError,
    coverage,
    emit_pool,
    knn_radii,
    load_pool,
    load_profile_spec,
    pairwise_distances,
    sample_generator,
    sample_real,
)

from conftest import four_modes

# Frozen from the canonical fixture emission at its spec seed (5); any change
# to the sampling streams or the file format is a breaking change.
FIXTURE_HASHES = {
    "A.emb": "04e96f79707b79d7c6f7a77eec456b851fe97c96b53c651ae6ac06e6633d7dac",
    "B.emb": "efeedf17b3494cd878bf52c263ce3491cb72bb3422794acd560f3b4787a1337f",
    "C.emb": "76ceda414e40534be7d9b62cb123e272cc37d140d8b1aac49b7beafad8d17f33",
    "D.emb": "df8aa662ec2d6507011cbc059eb8367fcd8d8fa19ce377bf9f529bc4f8feee19",
    "E.emb": "df5a39a91e731a865c61e126361668d847aa2629f47d09feeca7701f22191b13",
    "F.emb": "545a6fd9c12ff56d16090788cea0ae6a8b32767dc9747f7cbda805004797461e",
    "manifest.json": "8f9a174ca27317d49b5af0b3890e131911ced395ce2eae8b46b4225b1016daed",
    "real.emb": "70b6ba9be827bdfcd35e74d15db14dcfae9381a70c8bfc069eae843e40d67853",
}


def energy_distance(x, y):
    return float(
        2 * pairwise_distances(x, y).mean()
        - pairwise_distances(x, x).mean()
        - pairwise_distances(y, y).mean()
    )


class TestSampleReal:
    def test_zero_spread_is_exact(self):
        modes = [ModeSpec(center=np.zeros(4), spread=0.0, weight=1.0)]
        out = sample_real(modes, 10, seed=0)
        assert np.array_equal(out.data, np.zeros((10, 4), dtype=np.float32))

    def test_per_mode_counts_within_multinomial_bound(self):
        modes = four_modes()
        real = sample_real(modes, 4000, seed=77)
        centers = np.stack([m.center for m in modes])
        assigned = np.argmin(pairwise_distances(real.data, centers), axis=1)
        counts = np.bincount(assigned, minlength=4)
        bound = 3 * np.sqrt(4000 * 0.25 * 0.75)  # 3 sigma of Binomial(4000, 1/4)
        assert all(abs(c - 1000) <= bound for c in counts)

    def test_same_seed_identical(self):
        modes = four_modes()
        a = sample_real(modes, 50, seed=5)
        b = sample_real(modes, 50, seed=5)
        assert np.array_equal(a.data, b.data)
        c = sample_real(modes, 50, seed=6)
        assert not np.array_equal(a.data, c.data)

    def test_degenerate_specs_rejected(self):
        with pytest.raises(ParameterError):
            sample_real([], 10, seed=0)
        with pytest.raises(ParameterError):
            sample_real(four_modes(), 0, seed=0)
        mixed = [ModeSpec(center=np.zeros(3), spread=1.0), ModeSpec(center=np.zeros(4), spread=1.0)]
        with pytest.raises(ParameterError, match="disagree on dimension"):
            sample_real(mixed, 10, seed=0)


class TestSampleGenerator:
    def test_full_coverage_clean_generator_matches_real(self):
        # energy statistic threshold frozen from oracle runs: matched
        # distributions score below 0.06 at 1000 v 1000, off-manifold ~177
        modes = four_modes()
        profile = GeneratorProfile("full", (0, 1, 2, 3), samples=1000)
        values = []
        for seed in range(3):
            real = sample_real(modes, 1000, seed)
            synth = sample_generator(profile, modes, seed + 100)
            values.append(energy_distance(real.data, synth.data))
        assert max(values) < 0.1

    def test_large_offset_kills_coverage(self):
        modes = four_modes()
        profile = GeneratorProfile(
            "off", (0, 1, 2, 3), offset=np.r_[100.0, np.zeros(7)], samples=600
        )
        real = sample_real(modes, 600, seed=3)
        synth = sample_generator(profile, modes, seed=9)
        radii = knn_radii(real, 5).radii
        assert pairwise_distances(real.data, synth.data).min() > radii.max()
        assert coverage(real, synth, 5) == 0.0

    def test_single_mode_covers_about_a_quarter(self):
        modes = four_modes()
        profile = GeneratorProfile("sub", (0,), samples=600)
        values = [
            coverage(sample_real(modes, 600, s), sample_generator(profile, modes, s + 50), 5)
            for s in range(10)
        ]
        assert 0.20 <= float(np.mean(values)) <= 0.30

    def test_unknown_mode_index(self):
        with pytest.raises(ParameterError, match="unknown mode"):
            sample_generator(GeneratorProfile("bad", (7,), samples=5), four_modes(), seed=0)

    def test_profile_validation(self):
        with pytest.raises(ParameterError):
            GeneratorProfile("p", ())
        with pytest.raises(ParameterError):
            GeneratorProfile("p", (0,), fidelity_noise=-1.0)
        with pytest.raises(ParameterError):
            GeneratorProfile("p", (0,), samples=0)


class TestEmitPool:
    def test_file_count_and_roundtrip(self, tmp_path):
        modes = four_modes()
        profiles = [GeneratorProfile(f"p{i}", (i % 4,), samples=20) for i in range(6)]
        manifest = emit_pool(modes, 30, profiles, tmp_path, seed=1)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert len(files) == 8  # 6 generators + real + manifest
        pool = load_pool(manifest)
        assert pool.size == 6
        for record, es in pool.members:
            direct = sample_generator(profiles[int(record.id[1])], modes, seed=1)
            assert np.array_equal(es.data, direct.data)

    def test_emission_order_does_not_matter(self, tmp_path):
        modes = four_modes()
        profiles = [GeneratorProfile(f"p{i}", (0,), samples=10) for i in range(3)]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        emit_pool(modes, 10, profiles, a_dir, seed=2)
        emit_pool(modes, 10, list(reversed(profiles)), b_dir, seed=2)
        for name in ("p0.emb", "p1.emb", "p2.emb", "real.emb"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_duplicate_profile_ids_rejected(self, tmp_path):
        profiles = [GeneratorProfile("p", (0,), samples=5)] * 2
        with pytest.raises(ParameterError, match="unique"):
            emit_pool(four_modes(), 10, profiles, tmp_path, seed=0)

    @pytest.mark.parametrize("gid", ["real", "../x", "a/b", "..", "."])
    def test_id_that_is_not_a_plain_file_name_rejected(self, tmp_path, gid):
        profiles = [GeneratorProfile(gid, (0,), samples=5)]
        with pytest.raises(ParameterError, match="plain file name other than 'real'"):
            emit_pool(four_modes(), 10, profiles, tmp_path / "out", seed=0)
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_canonical_fixture_regression_hashes(self, tmp_path, fixture_spec):
        emit_pool(
            list(fixture_spec.modes),
            fixture_spec.real_samples,
            list(fixture_spec.profiles),
            tmp_path,
            fixture_spec.seed,
        )
        for name, expected in FIXTURE_HASHES.items():
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == expected, f"{name} drifted"


class TestProfileSpec:
    def test_canonical_fixture_parses(self, fixture_spec):
        assert len(fixture_spec.modes) == 4
        assert [p.id for p in fixture_spec.profiles] == ["A", "B", "C", "D", "E", "F"]
        assert fixture_spec.profiles[4].offset is not None
        assert fixture_spec.real_samples == 600

    def test_malformed_spec(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text("{oops")
        with pytest.raises(DataError, match="not valid JSON"):
            load_profile_spec(bad)
        bad.write_text(json.dumps({"modes": []}))
        with pytest.raises(DataError):
            load_profile_spec(bad)
        bad.write_text(
            json.dumps(
                {
                    "modes": [{"center": [0], "spread": 1}],
                    "generators": [{"id": "g"}],
                    "real_samples": 5,
                }
            )
        )
        with pytest.raises(DataError, match="malformed"):
            load_profile_spec(bad)

    @pytest.mark.parametrize(
        "raw", [b"[" * 100_000, b"\xff{}"], ids=["deep-nesting", "invalid-utf8"]
    )
    def test_undecodable_spec_is_data_error(self, tmp_path, raw):
        bad = tmp_path / "spec.json"
        bad.write_bytes(raw)
        with pytest.raises(DataError, match="not valid JSON"):
            load_profile_spec(bad)

    @pytest.mark.parametrize(
        "change, detail",
        [({"seed": -1}, "seed -1"), ({"seed": 1.5}, "seed must be an integer"),
         ({"real_samples": 5.5}, "real_samples must be an integer")],
        ids=["negative-seed", "fractional-seed", "fractional-real-samples"],
    )
    def test_bad_counts_in_spec_are_data_errors(self, tmp_path, change, detail):
        doc = {"modes": [{"center": [0], "spread": 1}],
               "generators": [{"id": "g", "modes": [0]}], "real_samples": 5}
        doc.update(change)
        bad = tmp_path / "spec.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=detail):
            load_profile_spec(bad)
