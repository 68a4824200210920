"""Desk-scale synthetic cohorts: a Gaussian-mixture "real" set and imperfect generators.

Each generator profile covers a subset of the real modes, optionally blurs
them with extra noise, or drifts them off-manifold with an offset vector.
That is enough to reproduce the classic failure taxonomy: clean coverage,
partial coverage, mode duplication, and fully off-manifold output.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError
from .store import EmbeddingSet, json_int, read_json, write_embeddings
from .util import readonly, seeded_stream


@dataclass(frozen=True)
class ModeSpec:
    """One mixture component: an isotropic Gaussian blob."""

    center: np.ndarray
    spread: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        center = np.asarray(self.center, dtype=np.float64)
        if center.ndim != 1:
            raise ParameterError("mode center must be a vector")
        if self.spread < 0:
            raise ParameterError(f"mode spread must be >= 0, got {self.spread}")
        if self.weight < 0:
            raise ParameterError(f"mode weight must be >= 0, got {self.weight}")
        object.__setattr__(self, "center", readonly(center))


@dataclass(frozen=True)
class GeneratorProfile:
    """An imperfect generator: which modes it hits, how noisily, and how far off."""

    id: str
    modes_covered: tuple[int, ...]
    fidelity_noise: float = 0.0
    offset: np.ndarray | None = None
    samples: int = 500

    def __post_init__(self) -> None:
        if not self.id:
            raise ParameterError("generator profile needs a nonempty id")
        covered = tuple(int(i) for i in self.modes_covered)
        if not covered:
            raise ParameterError(f"profile '{self.id}' must cover at least one mode")
        if self.fidelity_noise < 0:
            raise ParameterError(f"profile '{self.id}' has negative fidelity noise")
        if self.samples < 1:
            raise ParameterError(f"profile '{self.id}' must emit at least one sample")
        object.__setattr__(self, "modes_covered", covered)
        if self.offset is not None:
            object.__setattr__(
                self, "offset", readonly(np.asarray(self.offset, dtype=np.float64))
            )


def _mixture(
    modes: list[ModeSpec],
    picks: list[int],
    n: int,
    rng: np.random.Generator,
    extra_noise: float = 0.0,
    offset: np.ndarray | None = None,
) -> np.ndarray:
    centers = np.stack([modes[i].center for i in picks])
    spreads = np.array([modes[i].spread for i in picks], dtype=np.float64)
    weights = np.array([modes[i].weight for i in picks], dtype=np.float64)
    if weights.sum() <= 0:
        raise ParameterError("mixture weights must sum to a positive value")
    weights = weights / weights.sum()
    dim = centers.shape[1]
    assignment = rng.choice(len(picks), size=n, p=weights)
    noise = rng.standard_normal((n, dim))
    rows = centers[assignment] + (spreads[assignment] + extra_noise)[:, None] * noise
    if offset is not None:
        if offset.shape != (dim,):
            raise ParameterError(f"offset must have length {dim}, got {offset.shape}")
        rows = rows + offset
    return rows


def sample_real(modes: list[ModeSpec], n: int, seed: int) -> EmbeddingSet:
    """Draw n points from the full mixture, deterministically under seed."""
    if n < 1:
        raise ParameterError(f"need n >= 1 real samples, got {n}")
    if not modes:
        raise ParameterError("need at least one mode")
    dims = {m.center.shape[0] for m in modes}
    if len(dims) != 1:
        raise ParameterError(f"mode centers disagree on dimension: {sorted(dims)}")
    rng = seeded_stream(seed, "real")
    return EmbeddingSet(_mixture(modes, list(range(len(modes))), n, rng), source_id="real")


def sample_generator(
    profile: GeneratorProfile, modes: list[ModeSpec], seed: int
) -> EmbeddingSet:
    """Draw a profile's synthetic set: covered modes only, blurred and shifted."""
    bad = [i for i in profile.modes_covered if not 0 <= i < len(modes)]
    if bad:
        raise ParameterError(f"profile '{profile.id}' references unknown mode indices {bad}")
    rng = seeded_stream(seed, profile.id)
    rows = _mixture(
        modes,
        list(profile.modes_covered),
        profile.samples,
        rng,
        extra_noise=profile.fidelity_noise,
        offset=profile.offset,
    )
    return EmbeddingSet(rows, source_id=profile.id)


def emit_pool(
    modes: list[ModeSpec],
    real_samples: int,
    profiles: list[GeneratorProfile],
    out_dir: str | Path,
    seed: int,
) -> Path:
    """Write real + generator embedding files and the manifest; returns its path.

    Output bytes are a pure function of (spec, seed): every stream is keyed
    by the profile id, so emission order never matters.
    """
    out = Path(out_dir)
    ids = [p.id for p in profiles]
    if len(set(ids)) != len(ids):
        raise ParameterError("profile ids must be unique")
    for gid in ids:
        # Each id names its own file in out_dir, next to real.emb.
        if gid in ("real", ".", "..") or "/" in gid or "\0" in gid:
            raise ParameterError(f"profile id {gid!r} must be a plain file name other than 'real'")
    out.mkdir(parents=True, exist_ok=True)
    write_embeddings(sample_real(modes, real_samples, seed), out / "real.emb")
    entries = []
    for profile in profiles:
        write_embeddings(sample_generator(profile, modes, seed), out / f"{profile.id}.emb")
        entries.append(
            {"id": profile.id, "model": profile.id, "iteration": 0, "path": f"{profile.id}.emb"}
        )
    manifest = out / "manifest.json"
    manifest.write_text(
        json.dumps({"real": "real.emb", "generators": entries}, indent=2) + "\n",
        encoding="utf-8",
    )
    return manifest


@dataclass(frozen=True)
class SimSpec:
    """A parsed profile-spec file: the full recipe for one synthetic pool."""

    modes: tuple[ModeSpec, ...]
    profiles: tuple[GeneratorProfile, ...]
    real_samples: int
    seed: int


def load_profile_spec(path: str | Path) -> SimSpec:
    """Parse a profile spec JSON file.

    Schema: ``{"modes": [{"center", "spread", "weight"}], "generators":
    [{"id", "modes", "noise", "offset", "samples"}], "real_samples", "seed"}``.
    ``offset`` may be omitted for on-manifold generators.
    """
    spec_path = Path(path)
    doc = read_json(spec_path, "profile spec")
    try:
        modes = tuple(
            ModeSpec(
                center=np.asarray(m["center"], dtype=np.float64),
                spread=float(m["spread"]),
                weight=float(m.get("weight", 1.0)),
            )
            for m in doc["modes"]
        )
        profiles = tuple(
            GeneratorProfile(
                id=str(g["id"]),
                modes_covered=tuple(json_int(i, "mode index") for i in g["modes"]),
                fidelity_noise=float(g.get("noise", 0.0)),
                offset=np.asarray(g["offset"], dtype=np.float64) if "offset" in g else None,
                samples=json_int(g.get("samples", 500), "samples"),
            )
            for g in doc["generators"]
        )
        real_samples = json_int(doc["real_samples"], "real_samples")
        seed = json_int(doc.get("seed", 0), "seed")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"profile spec '{spec_path}' is malformed: {exc}") from None
    if not modes or not profiles:
        raise DataError(f"profile spec '{spec_path}' needs modes and generators")
    if seed < 0:
        raise DataError(f"profile spec '{spec_path}' has seed {seed}, not a non-negative integer")
    return SimSpec(modes=modes, profiles=profiles, real_samples=real_samples, seed=seed)


def canonical_fixture_path() -> Path:
    """The versioned mode-recovery fixture shipped with the package."""
    return Path(str(resources.files("ganens").joinpath("fixtures/mode_recovery.json")))
