"""Small shared helpers: deterministic RNG streams, worker caps, array locking."""
from __future__ import annotations

import hashlib
import os

import numpy as np

from .errors import ParameterError


def readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def seeded_stream(seed: int, tag: str) -> np.random.Generator:
    """Independent generator derived from (seed, tag).

    The tag is hashed so streams stay stable across runs and do not depend
    on enumeration order. The trailing 0 in the seed tuple keeps the bits
    that existing outputs were drawn from.
    """
    digest = int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng((int(seed), digest, 0))


def worker_count() -> int:
    """The CPU count, capped by the GANENS_THREADS environment variable."""
    workers = os.cpu_count() or 1
    cap = os.environ.get("GANENS_THREADS")
    if cap is not None:
        try:
            cap_value = int(cap)
        except ValueError:
            raise ParameterError(f"GANENS_THREADS must be an integer, got {cap!r}") from None
        workers = min(workers, max(1, cap_value))
    return max(1, int(workers))
