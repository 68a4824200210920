import json
import struct
import warnings

import numpy as np
import pytest

from ganens import (
    DataError,
    EmbeddingSet,
    ParameterError,
    load_pool,
    read_embeddings,
    write_embeddings,
)


def test_write_format_arithmetic(tmp_path):
    # 4 magic + 4 + 4 header + 2*3*4 payload = 36 bytes
    es = EmbeddingSet(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), "s")
    dest = tmp_path / "s.emb"
    write_embeddings(es, dest)
    raw = dest.read_bytes()
    assert len(raw) == 36
    assert raw[:4] == b"EMB1"
    assert struct.unpack("<II", raw[4:12]) == (2, 3)
    assert np.frombuffer(raw, dtype="<f4", offset=12).tolist() == [1, 2, 3, 4, 5, 6]


def test_empty_set_rejected_before_write():
    with pytest.raises(ParameterError, match="N >= 1"):
        EmbeddingSet(np.empty((0, 3)), "empty")
    with pytest.raises(ParameterError, match="D >= 1"):
        EmbeddingSet(np.empty((2, 0)), "flat")


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    es = EmbeddingSet(rng.uniform(-1, 1, size=(1000, 64)), "big")
    write_embeddings(es, tmp_path / "big.emb")
    back = read_embeddings(tmp_path / "big.emb")
    assert back.rows == 1000 and back.dim == 64
    assert np.array_equal(back.data, es.data)


def test_round_trip_of_example_file(tmp_path):
    es = EmbeddingSet(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), "s")
    write_embeddings(es, tmp_path / "s.emb")
    back = read_embeddings(tmp_path / "s.emb")
    assert back.rows == 2 and back.dim == 3
    assert np.array_equal(back.data, es.data)


def test_non_finite_rejected():
    with pytest.raises(DataError, match="row 1, column 0"):
        EmbeddingSet(np.array([[1.0, 2.0], [np.nan, 0.0]]), "bad")
    # values overflowing float32 become inf at cast time
    with np.errstate(over="ignore"), pytest.raises(DataError):
        EmbeddingSet(np.array([[1e39, 0.0]]), "overflow")


def test_immutable_after_load(tmp_path):
    es = EmbeddingSet(np.ones((2, 2)), "x")
    with pytest.raises(ValueError):
        es.data[0, 0] = 5.0


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda raw: b"XXXX" + raw[4:], "bad magic"),
        (lambda raw: raw[:20], "truncated payload"),
        (lambda raw: raw + b"\x00\x00\x00\x00", "trailing bytes"),
        (lambda raw: raw[:4] + struct.pack("<II", 0, 3) + raw[12:], "zero row count"),
        (lambda raw: raw[:4] + struct.pack("<II", 2, 0) + raw[12:], "zero dimension"),
    ],
)
def test_binary_load_errors(tmp_path, mutate, message):
    es = EmbeddingSet(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), "s")
    path = tmp_path / "s.emb"
    write_embeddings(es, path)
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(DataError, match=message):
        read_embeddings(path)


def test_binary_non_finite_names_offset(tmp_path):
    path = tmp_path / "s.emb"
    write_embeddings(EmbeddingSet(np.array([[1.0, 2.0], [3.0, 4.0]]), "s"), path)
    raw = bytearray(path.read_bytes())
    raw[12 + 3 * 4 : 12 + 4 * 4] = struct.pack("<f", np.inf)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="byte offset 24"):
        read_embeddings(path)


def test_missing_file():
    with pytest.raises(DataError, match="not found"):
        read_embeddings("/nonexistent/never.emb")


def test_csv_parse(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    es = read_embeddings(path)
    assert np.array_equal(es.data, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))


def test_csv_errors(tmp_path):
    ragged = tmp_path / "r.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="line 2"):
        read_embeddings(ragged)

    junk = tmp_path / "j.txt"
    junk.write_text("1.0,abc\n")
    with pytest.raises(DataError, match="line 1"):
        read_embeddings(junk)

    nanfile = tmp_path / "n.csv"
    nanfile.write_text("1.0,2.0\nnan,4.0\n")
    with pytest.raises(DataError, match="line 2"):
        read_embeddings(nanfile)


def _write_manifest(tmp_path, entries, real_name="real.emb"):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"real": real_name, "generators": entries}))
    return manifest


def _emit(tmp_path, name, matrix):
    write_embeddings(EmbeddingSet(matrix, name), tmp_path / name)


def test_load_pool_basic(tmp_path):
    rng = np.random.default_rng(0)
    _emit(tmp_path, "real.emb", rng.normal(size=(5, 16)))
    entries = []
    for i in range(3):
        _emit(tmp_path, f"g{i}.emb", rng.normal(size=(4, 16)))
        entries.append({"id": f"g{i}", "model": f"g{i}", "iteration": 0, "path": f"g{i}.emb"})
    pool = load_pool(_write_manifest(tmp_path, entries))
    real, members = pool
    assert real.dim == 16
    assert len(members) == 3
    assert all(dataset.rows == 4 for _, dataset in members)


def test_load_pool_dim_mismatch_names_both(tmp_path):
    rng = np.random.default_rng(0)
    _emit(tmp_path, "real.emb", rng.normal(size=(5, 16)))
    _emit(tmp_path, "g0.emb", rng.normal(size=(4, 32)))
    manifest = _write_manifest(
        tmp_path, [{"id": "g0", "model": "m", "iteration": 0, "path": "g0.emb"}]
    )
    with pytest.raises(DataError, match="'g0' has D=32, 'real' has D=16"):
        load_pool(manifest)


def test_load_pool_duplicate_ids(tmp_path):
    rng = np.random.default_rng(0)
    _emit(tmp_path, "real.emb", rng.normal(size=(5, 4)))
    _emit(tmp_path, "g.emb", rng.normal(size=(4, 4)))
    entries = [
        {"id": "g", "model": "m", "iteration": 0, "path": "g.emb"},
        {"id": "g", "model": "m", "iteration": 1, "path": "g.emb"},
    ]
    with pytest.raises(DataError, match="duplicate generator id"):
        load_pool(_write_manifest(tmp_path, entries))

    entries = [
        {"id": "g1", "model": "m", "iteration": 0, "path": "g.emb"},
        {"id": "g2", "model": "m", "iteration": 0, "path": "g.emb"},
    ]
    with pytest.raises(DataError, match="duplicate \\(model, iteration\\)"):
        load_pool(_write_manifest(tmp_path, entries))


def test_canonical_order_independent_of_manifest_order(tmp_path):
    rng = np.random.default_rng(1)
    _emit(tmp_path, "real.emb", rng.normal(size=(5, 4)))
    entries = []
    for model in ("beta", "alpha"):
        for it in (20000, 40000):
            name = f"{model}{it}.emb"
            _emit(tmp_path, name, rng.normal(size=(3, 4)))
            entries.append({"id": f"{model}-{it}", "model": model, "iteration": it, "path": name})
    forward = load_pool(_write_manifest(tmp_path, entries))
    backward = load_pool(_write_manifest(tmp_path, list(reversed(entries))))
    assert forward.ids == backward.ids
    assert forward.ids == ("alpha-20000", "alpha-40000", "beta-20000", "beta-40000")
    for (_, a), (_, b) in zip(forward.members, backward.members):
        assert np.array_equal(a.data, b.data)


def test_search_space_of_110_models(tmp_path):
    # 22 models x 5 iterations, authored shuffled
    rng = np.random.default_rng(2)
    _emit(tmp_path, "real.emb", rng.normal(size=(4, 4)))
    _emit(tmp_path, "shared.emb", rng.normal(size=(2, 4)))
    entries = [
        {"id": f"m{m:02d}-{it}", "model": f"m{m:02d}", "iteration": it, "path": "shared.emb"}
        for m in range(22)
        for it in range(20000, 100001, 20000)
    ]
    shuffled = list(entries)
    np.random.default_rng(3).shuffle(shuffled)
    pool = load_pool(_write_manifest(tmp_path, shuffled))
    assert pool.size == 110
    assert list(pool.ids) == sorted(pool.ids, key=lambda gid: (gid.split("-")[0], int(gid.split("-")[1])))


def test_load_is_idempotent(tmp_path):
    rng = np.random.default_rng(4)
    _emit(tmp_path, "real.emb", rng.normal(size=(5, 4)))
    _emit(tmp_path, "g.emb", rng.normal(size=(4, 4)))
    manifest = _write_manifest(
        tmp_path, [{"id": "g", "model": "m", "iteration": 0, "path": "g.emb"}]
    )
    first = load_pool(manifest)
    second = load_pool(manifest)
    assert np.array_equal(first.real.data, second.real.data)
    assert first.ref == second.ref


def test_malformed_manifest(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        load_pool(bad)
    bad.write_text(json.dumps({"real": "x.emb"}))
    with pytest.raises(DataError, match="'real' and 'generators'"):
        load_pool(bad)
    bad.write_text(json.dumps({"real": "x.emb", "generators": []}))
    with pytest.raises(DataError, match="lists no generators"):
        load_pool(bad)
    bad.write_text(json.dumps({"real": "x.emb", "generators": [{"id": "g"}]}))
    with pytest.raises(DataError, match="malformed"):
        load_pool(bad)


@pytest.mark.parametrize(
    "raw",
    [b"[" * 100_000, b"\xff{}", b'{"real": "r\xe9.emb"}', b"[" + b"9" * 5000 + b"]"],
    ids=["deep-nesting", "invalid-utf8-start", "invalid-utf8-inside", "integer-too-long"],
)
def test_undecodable_manifest_is_data_error(tmp_path, raw):
    bad = tmp_path / "m.json"
    bad.write_bytes(raw)
    with pytest.raises(DataError, match="manifest '.*m.json' is malformed, not valid JSON"):
        load_pool(bad)


@pytest.mark.parametrize("iteration", [1.5, True, "3"], ids=["fraction", "bool", "string"])
def test_non_integer_iteration_is_data_error(tmp_path, iteration):
    rng = np.random.default_rng(0)
    _emit(tmp_path, "real.emb", rng.normal(size=(5, 4)))
    _emit(tmp_path, "g.emb", rng.normal(size=(4, 4)))
    manifest = _write_manifest(
        tmp_path, [{"id": "g", "model": "m", "iteration": iteration, "path": "g.emb"}]
    )
    with pytest.raises(DataError, match="iteration must be an integer"):
        load_pool(manifest)


def test_csv_not_utf8_is_data_error_naming_the_file(tmp_path):
    rng = np.random.default_rng(0)
    _emit(tmp_path, "real.emb", rng.normal(size=(5, 2)))
    (tmp_path / "g.csv").write_bytes(b"1.0,2.0\n3.0,\xff4.0\n")
    manifest = _write_manifest(
        tmp_path, [{"id": "g", "model": "m", "iteration": 0, "path": "g.csv"}]
    )
    with pytest.raises(DataError, match=r"line 2 of '.*g\.csv'"):
        load_pool(manifest)


def test_csv_float32_overflow_is_data_error_without_a_warning(tmp_path):
    path = tmp_path / "o.csv"
    path.write_text("1.0,2.0\n1e39,4.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="line 2, field 1"):
            read_embeddings(path)
