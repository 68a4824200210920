"""Small shared helpers: deterministic RNG streams and array locking."""
from __future__ import annotations

import hashlib

import numpy as np


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

