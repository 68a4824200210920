"""On-disk embedding format, pool manifest schema, and validated loading.

Embeddings travel as flat binary files: the magic bytes ``EMB1``, two
unsigned 32-bit little-endian integers (rows, dim), then rows*dim
little-endian float32 values in row-major order. Files whose extension
marks them as text (``.csv``/``.txt``) are parsed instead as one
comma-separated vector per line.

A pool manifest is a JSON document::

    {"real": "real.emb",
     "generators": [{"id": "...", "model": "...", "iteration": 0, "path": "..."}]}

Relative paths resolve against the manifest's directory. Generator records
are kept in canonical order, sorted by (model, iteration), so genome index
``i`` always refers to the same record no matter how the manifest was
authored.
"""
from __future__ import annotations

import hashlib
import json
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DataError, ParameterError
from .util import readonly, worker_count

MAGIC = b"EMB1"
_HEADER = struct.Struct("<II")
_TEXT_SUFFIXES = {".csv", ".txt"}


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """An immutable N x D matrix of float32 feature vectors for one dataset."""

    data: np.ndarray
    source_id: str = ""

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float32, copy=True)
        if arr.ndim != 2:
            raise ParameterError(
                f"embedding set '{self.source_id}' must be 2-D, got shape {arr.shape}"
            )
        if arr.shape[0] < 1:
            raise ParameterError(f"embedding set '{self.source_id}' must have N >= 1 rows")
        if arr.shape[1] < 1:
            raise ParameterError(f"embedding set '{self.source_id}' must have D >= 1 columns")
        bad = ~np.isfinite(arr)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DataError(
                f"non-finite value at row {i}, column {j} of embedding set '{self.source_id}'"
            )
        object.__setattr__(self, "data", readonly(arr))

    @property
    def rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def dim(self) -> int:
        return int(self.data.shape[1])


@dataclass(frozen=True)
class GeneratorRecord:
    """Identity and file location of one candidate generator."""

    id: str
    model_name: str
    iteration: int
    path: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ParameterError("generator id must be a nonempty string")
        if self.iteration < 0:
            raise ParameterError(f"generator '{self.id}' has negative iteration {self.iteration}")

    @property
    def sort_key(self) -> tuple[str, int]:
        return (self.model_name, self.iteration)


class Pool(NamedTuple):
    """A loaded pool: the real set plus canonically ordered generator sets."""

    real: EmbeddingSet
    members: tuple[tuple[GeneratorRecord, EmbeddingSet], ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(record.id for record, _ in self.members)

    @property
    def dim(self) -> int:
        return self.real.dim

    @property
    def ref(self) -> str:
        """Short fingerprint identifying the pool a genome indexes into."""
        text = "|".join(f"{r.id}:{r.model_name}:{r.iteration}" for r, _ in self.members)
        return hashlib.sha256(f"{self.dim}|{text}".encode("utf-8")).hexdigest()[:12]


def write_embeddings(embeddings: EmbeddingSet, dest: str | Path) -> None:
    """Write one EMB1 binary file; round-trips bit-exactly at float32."""
    path = Path(dest)
    payload = embeddings.data.astype("<f4", copy=False).tobytes(order="C")
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(_HEADER.pack(embeddings.rows, embeddings.dim))
            fh.write(payload)
    except OSError as exc:
        raise DataError(f"cannot write embeddings to '{path}': {exc}") from exc


def read_json(path: str | Path, what: str):
    """Parse one UTF-8 JSON file; a failure to read or decode it is a DataError naming ``what``."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {what} '{path}': {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8 and bad JSON are ValueErrors
        raise DataError(f"{what} '{path}' is malformed, not valid JSON: {exc}") from None


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; for a bool, float or string, a ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def read_embeddings(src: str | Path, source_id: str | None = None) -> EmbeddingSet:
    """Load and validate one embedding file (EMB1 binary, or CSV by extension)."""
    path = Path(src)
    if not path.is_file():
        raise DataError(f"embedding file not found: '{path}'")
    tag = source_id if source_id is not None else str(path)
    if path.suffix.lower() in _TEXT_SUFFIXES:
        return _read_csv(path, tag)
    return _read_binary(path, tag)


def _read_binary(path: Path, source_id: str) -> EmbeddingSet:
    raw = path.read_bytes()
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise DataError(f"bad magic at offset 0 in '{path}': expected {MAGIC!r}")
    if len(raw) < 12:
        raise DataError(f"truncated header in '{path}': {len(raw)} bytes, need at least 12")
    n, d = _HEADER.unpack_from(raw, 4)
    if n == 0:
        raise DataError(f"zero row count in header (offset 4) of '{path}'")
    if d == 0:
        raise DataError(f"zero dimension in header (offset 8) of '{path}'")
    expected = n * d * 4
    got = len(raw) - 12
    if got < expected:
        raise DataError(
            f"truncated payload in '{path}': {got} bytes at offset 12, need {expected}"
        )
    if got > expected:
        raise DataError(
            f"trailing bytes in '{path}': payload ends at offset {12 + expected}, file has {len(raw)} bytes"
        )
    flat = np.frombuffer(raw, dtype="<f4", count=n * d, offset=12)
    bad = ~np.isfinite(flat)
    if bad.any():
        idx = int(np.argmax(bad))
        raise DataError(f"non-finite value at byte offset {12 + idx * 4} in '{path}'")
    return EmbeddingSet(flat.reshape(n, d), source_id=source_id)


def _read_csv(path: Path, source_id: str) -> EmbeddingSet:
    rows: list[list[float]] = []
    linenos: list[int] = []
    width = None
    # An undecodable byte reads as U+FFFD, which fails float() below with its line.
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            fields = text.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise DataError(
                    f"line {lineno} of '{path}' has {len(fields)} values, expected {width}"
                )
            try:
                values = [float(f) for f in fields]
            except ValueError as exc:
                raise DataError(f"unparsable value on line {lineno} of '{path}': {exc}") from None
            rows.append(values)
            linenos.append(lineno)
    if not rows:
        raise DataError(f"no vectors found in '{path}'")
    arr = np.asarray(rows, dtype=np.float64)
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(arr.astype(np.float32))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DataError(f"non-finite value on line {linenos[i]}, field {j + 1} of '{path}'")
    return EmbeddingSet(arr, source_id=source_id)


def load_pool(manifest: str | Path) -> Pool:
    """Load a manifest and every embedding file it references.

    Returns the real set and the generator records with their sets, in
    canonical (model, iteration) order. All sets must share one embedding
    dimension. File loads run in parallel; the result is immutable.
    """
    manifest_path = Path(manifest)
    doc = read_json(manifest_path, "manifest")
    if not isinstance(doc, dict) or "real" not in doc or "generators" not in doc:
        raise DataError(f"manifest '{manifest_path}' must contain 'real' and 'generators'")
    entries = doc["generators"]
    if not isinstance(entries, list) or not entries:
        raise DataError(f"manifest '{manifest_path}' lists no generators")
    declared = doc.get("embedding_dim")
    if declared is not None and type(declared) is not int:
        raise DataError(f"manifest '{manifest_path}' has embedding_dim {declared!r}, not an integer")

    base = manifest_path.parent
    records = []
    for pos, entry in enumerate(entries):
        try:
            record = GeneratorRecord(
                id=str(entry["id"]),
                model_name=str(entry["model"]),
                iteration=json_int(entry["iteration"], "iteration"),
                path=str(entry["path"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"generator entry {pos} of '{manifest_path}' is malformed: {exc}"
            ) from None
        records.append(record)

    seen_ids: set[str] = set()
    seen_keys: set[tuple[str, int]] = set()
    for record in records:
        if record.id in seen_ids:
            raise DataError(f"duplicate generator id '{record.id}' in '{manifest_path}'")
        if record.sort_key in seen_keys:
            raise DataError(
                f"duplicate (model, iteration) pair {record.sort_key} in '{manifest_path}'"
            )
        seen_ids.add(record.id)
        seen_keys.add(record.sort_key)
    records.sort(key=lambda r: r.sort_key)

    def resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    jobs = [("real", resolve(str(doc["real"])))]
    jobs += [(record.id, resolve(record.path)) for record in records]
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        sets = list(pool.map(lambda job: read_embeddings(job[1], source_id=job[0]), jobs))

    real = sets[0]
    if declared is not None and declared != real.dim:
        raise DataError(
            f"manifest declares embedding_dim {declared} but 'real' has D={real.dim}"
        )
    for es in sets[1:]:
        if es.dim != real.dim:
            raise DataError(
                f"dimension mismatch: '{es.source_id}' has D={es.dim}, 'real' has D={real.dim}"
            )
    return Pool(real=real, members=tuple(zip(records, sets[1:])))
