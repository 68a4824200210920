import numpy as np
import pytest
from hypothesis import settings

from ganens import (
    EmbeddingSet,
    GeneratorProfile,
    GeneratorRecord,
    ModeSpec,
    Pool,
    canonical_fixture_path,
    emit_pool,
    load_pool,
    load_profile_spec,
)
from ganens.metrics import EIGENVALUE_CLAMP

# Derandomized property tests without a deadline: runs are repeatable, and a
# slow host cannot fail an example on time alone. Each test sets max_examples.
settings.register_profile("ganens", deadline=None, derandomize=True)
settings.load_profile("ganens")


def make_pool(sets: dict[str, np.ndarray], real: np.ndarray) -> Pool:
    """In-memory pool from raw matrices; ids double as model names."""
    members = []
    for gid in sorted(sets):
        es = EmbeddingSet(sets[gid], source_id=gid)
        members.append((GeneratorRecord(gid, gid, 0, f"{gid}.emb"), es))
    return Pool(real=EmbeddingSet(real, source_id="real"), members=tuple(members))


def standardized_by_real(pool: Pool, sets: list[np.ndarray]) -> list[np.ndarray]:
    """Each float64 set centred and scaled by the real set's columns; a zero deviation is 1."""
    real = pool.real.data.astype(np.float64)
    mean, scale = real.mean(axis=0), real.std(axis=0)
    scale[scale == 0] = 1.0
    return [(x - mean) / scale for x in sets]


def gram_frechet(a: np.ndarray, b: np.ndarray) -> float:
    """Frechet distance in the Gram form, an oracle that holds no D x D matrix.

    With A and B the centred rows over sqrt(n - 1), the trace term is the sum
    of the square roots of the eigenvalues of A B^T B A^T, those below the
    clamp taken as zero. Where a set has no more rows than dimensions, the
    eigh reference keeps null-space noise, and this form does not.
    """
    a, b = (np.asarray(x, dtype=np.float64) for x in (a, b))
    centred_a = (a - a.mean(axis=0)) / np.sqrt(len(a) - 1.0)
    centred_b = (b - b.mean(axis=0)) / np.sqrt(len(b) - 1.0)
    cross = centred_a @ centred_b.T
    values = np.linalg.eigvalsh(cross @ cross.T)
    root_trace = np.sqrt(np.where(values < EIGENVALUE_CLAMP, 0.0, values)).sum()
    diff = a.mean(axis=0) - b.mean(axis=0)
    traces = (centred_a * centred_a).sum() + (centred_b * centred_b).sum()
    return max(0.0, float(diff @ diff + traces - 2.0 * root_trace))


def four_modes(dim: int = 8, separation: float = 10.0) -> list[ModeSpec]:
    return [
        ModeSpec(center=np.eye(dim)[i] * separation, spread=1.0, weight=0.25)
        for i in range(4)
    ]


@pytest.fixture(scope="session")
def fixture_spec():
    return load_profile_spec(canonical_fixture_path())


@pytest.fixture(scope="session")
def fixture_pool(fixture_spec, tmp_path_factory):
    """The canonical mode-recovery pool, emitted at its own spec seed."""
    out = tmp_path_factory.mktemp("fixture_pool")
    manifest = emit_pool(
        list(fixture_spec.modes),
        fixture_spec.real_samples,
        list(fixture_spec.profiles),
        out,
        fixture_spec.seed,
    )
    return load_pool(manifest)


def ten_generator_profiles(dim: int = 8) -> list[GeneratorProfile]:
    """A 10-profile pool with fidelity, coverage, noise, and offset trade-offs."""
    return [
        GeneratorProfile("g0", (0,), samples=300),
        GeneratorProfile("g1", (1,), samples=300),
        GeneratorProfile("g2", (2,), samples=300),
        GeneratorProfile("g3", (3,), samples=300),
        GeneratorProfile("g4", (0, 1), samples=300),
        GeneratorProfile("g5", (2, 3), samples=300),
        GeneratorProfile("g6", (0, 1, 2, 3), samples=300),
        GeneratorProfile("g7", (0,), fidelity_noise=2.0, samples=300),
        GeneratorProfile("g8", (0, 1, 2, 3), offset=np.full(dim, 30.0), samples=300),
        GeneratorProfile("g9", (1,), samples=300),
    ]


@pytest.fixture(scope="session")
def toy10_pool(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy10")
    manifest = emit_pool(four_modes(), 300, ten_generator_profiles(), out, 42)
    return load_pool(manifest)
