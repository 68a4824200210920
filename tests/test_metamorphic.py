"""Metamorphic relations of the density/coverage pipeline.

Every ball decision and k-NN radius is exact, so some changes of the input
must leave the pairwise matrix and every evaluation bit-equal, with no
oracle to compare against (Chen et al., "Metamorphic Testing: A Review of
Challenges and Opportunities", ACM CSUR 51(1), 2018):

- every set scaled by 2^e, which float32 takes exactly while every value
  stays normal: distances and radii scale by 2^e, in the raw frame and in
  the real set's standardized one;
- a far generator appended last in canonical order: the entries and the
  evaluations that leave it out stay, though its norm raises sigma and the
  x-side slack of every chunk that reaches it;
- the manifest's generator entries permuted: the pool loads them in
  canonical (model, iteration) order, so its ids, its fingerprint, the
  matrix, every evaluation and every file the commands write stay.

Small chunk caps split the pool into chunks of one or several sets, each
estimated under its own sigma.
"""
import itertools
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_pool
from ganens import (
    EmbeddingSet,
    EnsembleEvaluator,
    EnsembleGenome,
    MetricConfig,
    canonical_fixture_path,
    load_pool,
    pairwise_matrix,
    write_embeddings,
)
from ganens.cli import main
import ganens.metrics


@st.composite
def small_pools(draw):
    """A real set and 2 to 4 generators ``g0``, ``g1``, ... of float32 rows, and k.

    Integer-grid rows sit on one another's radii. A drawn shift moves every
    generator away from the real set's mean, the estimate's centre, so
    their squared norms dwarf their distances and the estimate's error
    reaches its bound.
    """
    dim = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(4, 10), min_size=3, max_size=5))
    shift = draw(st.sampled_from([0.0, 1e3]))
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = [rng.integers(-2, 3, (n, dim)) if grid else rng.standard_normal((n, dim)) for n in counts]
    real, *generators = [(s + (i > 0) * shift).astype(np.float32) for i, s in enumerate(sets)]
    k = draw(st.integers(1, min(counts) - 1))
    return real, {f"g{i}": g for i, g in enumerate(generators)}, k


def outputs(pool, k, standardize, cap_rows):
    """The dnc pairwise matrix's values, and the objectives by bits of every genome
    with no more members than the union has rows."""
    cfg = MetricConfig(k=k, standardize=standardize)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ganens.metrics, "_CHUNK_ENTRIES", cap_rows * (pool.dim + 2))
        values = pairwise_matrix(pool, cfg).values
        evaluator = EnsembleEvaluator(pool, cfg, seed=0)
    evaluations = {}
    for bits in itertools.product((0, 1), repeat=pool.size):
        if 0 < sum(bits) <= evaluator.total:
            objectives = evaluator.evaluate(EnsembleGenome(bits))
            evaluations[bits] = (objectives.intra, objectives.inter, objectives.member_count)
    return values, evaluations


@pytest.mark.filterwarnings("ignore::ganens.ShortfallWarning")  # small members run short
@settings(max_examples=150)
@given(pool=small_pools(), exponent=st.sampled_from([-30, 20]), standardize=st.booleans(),
       cap_rows=st.integers(0, 30))
def test_scaling_every_set_by_a_power_of_two_moves_nothing(pool, exponent, standardize, cap_rows):
    real, generators, k = pool
    factor = np.float32(2.0**exponent)
    values, evaluations = outputs(make_pool(generators, real), k, standardize, cap_rows)
    scaled = make_pool({gid: rows * factor for gid, rows in generators.items()}, real * factor)
    scaled_values, scaled_evaluations = outputs(scaled, k, standardize, cap_rows)
    assert np.array_equal(scaled_values, values)
    assert scaled_evaluations == evaluations


@pytest.mark.filterwarnings("ignore::ganens.ShortfallWarning")  # small members run short
@settings(max_examples=150)
@given(pool=small_pools(), standardize=st.booleans(), cap_rows=st.integers(0, 30))
def test_a_far_generator_moves_no_entry_without_it(pool, standardize, cap_rows):
    real, generators, k = pool
    values, evaluations = outputs(make_pool(generators, real), k, standardize, cap_rows)
    far = generators["g0"] * np.float32(3.0) + np.float32(1e5)
    # "zz" sorts after every "g<i>", so the far set comes last in canonical order.
    far_pool = make_pool({**generators, "zz": far}, real)
    far_values, far_evaluations = outputs(far_pool, k, standardize, cap_rows)
    n = len(generators)
    assert np.array_equal(far_values[:n, :n], values)
    assert {bits[:n]: v for bits, v in far_evaluations.items() if not bits[n]} == evaluations


def write_manifest(out, real, entries):
    """A pool directory: the real set and the generators of ``entries`` (id, model,
    iteration, rows), listed in the manifest in the order given."""
    out.mkdir()
    write_embeddings(EmbeddingSet(real), out / "real.emb")
    for gid, _, _, rows in entries:
        write_embeddings(EmbeddingSet(rows), out / f"{gid}.emb")
    generators = [{"id": gid, "model": model, "iteration": iteration, "path": f"{gid}.emb"}
                  for gid, model, iteration, _ in entries]
    (out / "manifest.json").write_text(json.dumps({"real": "real.emb", "generators": generators}))
    return out / "manifest.json"


@pytest.mark.filterwarnings("ignore::ganens.ShortfallWarning")  # small members run short
@settings(max_examples=60)
@given(pool=small_pools(), data=st.data(), standardize=st.booleans(), cap_rows=st.integers(0, 30))
def test_permuting_the_manifest_entries_moves_nothing(pool, data, standardize, cap_rows):
    # Models and iterations are drawn, so canonical order is neither the ids' order
    # nor the manifest's.
    real, generators, k = pool
    gids = list(generators)
    models = data.draw(st.lists(st.sampled_from("xyz"), min_size=len(gids), max_size=len(gids)))
    iterations = data.draw(st.permutations(range(len(gids))))
    entries = [(g, m, i * 1000, generators[g]) for g, m, i in zip(gids, models, iterations)]
    order = data.draw(st.permutations(range(len(gids))))
    with tempfile.TemporaryDirectory() as tmp:
        pools = [load_pool(write_manifest(Path(tmp) / name, real, listed))
                 for name, listed in (("a", entries), ("b", [entries[i] for i in order]))]
    assert pools[0].ids == pools[1].ids
    assert pools[0].ref == pools[1].ref
    (values, evaluations), (permuted_values, permuted_evaluations) = (
        outputs(p, k, standardize, cap_rows) for p in pools)
    assert np.array_equal(permuted_values, values)
    assert permuted_evaluations == evaluations


def test_reversed_manifest_writes_the_same_files(tmp_path, monkeypatch):
    # The bundled fixture's pool, and a copy whose manifest lists the generators
    # in reverse; each directory runs the same commands from the same relative paths.
    pool = tmp_path / "a" / "pool"
    assert main(["toy", str(canonical_fixture_path()), "--out", str(pool)]) == 0
    shutil.copytree(pool, tmp_path / "b" / "pool")
    manifest = tmp_path / "b" / "pool" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["generators"].reverse()
    manifest.write_text(json.dumps(doc))
    m = "pool/manifest.json"
    for side in "ab":
        monkeypatch.chdir(tmp_path / side)
        for argv in (["optimize", "--manifest", m, "--algo", "nsga2", "--budget", "60", "--out", "opt"],
                     ["select", "--manifest", m, "--front", "opt/front.json", "--emit-union",
                      "--out", "sel"],
                     ["quality", "--manifest", m, "--selection", "sel/selection.json",
                      "--include-all", "--out", "quality"]):
            assert main(argv) == 0, argv
    for name in ("opt/front.json", "opt/scatter.csv", "sel/selection.json", "sel/union.emb",
                 "quality/quality.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
