"""Fuzzing the files the command line reads: a bad input ends in exit 1 or 2, never a traceback.

Each example copies a small valid pool (an EMB1 and a CSV generator), a
front file and a selection file, damages one of them, and runs the command
that reads it through ``main``. The damage is byte edits (replace, insert,
truncate) and, for the JSON files, one node swapped for an arbitrary JSON
value. A damaged file may still be valid, so exit 0 is allowed; any other
exit needs a message on stderr, and no exception may escape ``main``.
"""
import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ganens import EmbeddingSet, write_embeddings
from ganens.cli import main

TARGETS = ("g0.emb", "g1.csv", "manifest.json", "front.json", "selection.json")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["g0", "g1", "higher", "lower"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
EDITS = st.lists(
    st.tuples(st.integers(0, 400), st.integers(0, 8), st.binary(max_size=4)), max_size=3
)
DEEP = [(0, 10**9, b"[" * 100_000)]  # replaces the whole file


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    write_embeddings(EmbeddingSet(rng.normal(size=(12, 3)), "real"), root / "real.emb")
    write_embeddings(EmbeddingSet(rng.normal(size=(10, 3)), "g0"), root / "g0.emb")
    rows = rng.normal(size=(10, 3)).round(3)
    (root / "g1.csv").write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    documents = {
        "manifest.json": {"real": "real.emb", "generators": [
            {"id": "g0", "model": "a", "iteration": 0, "path": "g0.emb"},
            {"id": "g1", "model": "b", "iteration": 3, "path": "g1.csv"}]},
        "front.json": {"orientation": "higher", "front": [
            {"ids": ["g0", "g1"], "intra": 0.9, "inter": 0.2, "member_count": 2},
            {"ids": ["g1"], "intra": 0.5, "inter": 0.0, "member_count": 1}]},
        "selection.json": {"chosen": ["g0", "g1"], "quotas": {"g0": 6, "g1": 6},
                           "objectives": {"intra": 0.9, "inter": 0.2, "member_count": 2},
                           "front_size": 2, "total": 12},
    }
    for name, doc in documents.items():
        (root / name).write_text(json.dumps(doc))
    return root


def _nodes(doc, found):
    """Every (container, key) pair in ``doc``, in pre-order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        found.append((doc, key))
        if isinstance(value, (dict, list)):
            _nodes(value, found)
    return found


def _damage(path: Path, edits, swap) -> None:
    if swap is not None:
        doc = json.loads(path.read_text())
        index, value = swap
        nodes = _nodes(doc, [])
        container, key = nodes[index % len(nodes)]
        container[key] = value
        path.write_text(json.dumps(doc))
    raw = path.read_bytes()
    for pos, delete, insert in edits:
        pos = min(pos, len(raw))
        raw = raw[:pos] + insert + raw[pos + delete:]
    path.write_bytes(raw)


def _argv(work: Path, target: str) -> list[str]:
    manifest, out = ["--manifest", str(work / "manifest.json")], ["--out", str(work / "out")]
    if target == "front.json":
        return ["select", "--front", str(work / target), *manifest, "--emit-union", *out]
    if target == "selection.json":
        return ["quality", *manifest, "--selection", str(work / target), "--include-all", *out]
    return ["quality", *manifest, *out]


@settings(max_examples=150)
@given(
    target=st.sampled_from(TARGETS),
    edits=EDITS,
    swap=st.none() | st.tuples(st.integers(0, 40), JSON_VALUES),
)
@example(target="manifest.json", edits=DEEP, swap=None)
@example(target="front.json", edits=DEEP, swap=None)
@example(target="selection.json", edits=DEEP, swap=None)
@example(target="manifest.json", edits=[(0, 0, b"\xff")], swap=None)
@example(target="g1.csv", edits=[(5, 0, b"\xff")], swap=None)
@example(target="front.json", edits=[], swap=(3, [["g0"], ["g1"]]))
@example(target="front.json", edits=[], swap=(3, "g0g1"))
def test_damaged_input_exits_with_a_message(base, target, edits, swap):
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        for name in ("real.emb", *TARGETS):
            shutil.copy(base / name, work / name)
        _damage(work / target, edits, swap if target.endswith(".json") else None)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(_argv(work, target))
        assert code in (0, 1, 2)
        assert code == 0 or err.getvalue().strip()
    finally:
        shutil.rmtree(work)
