"""Deterministic random streams.

All randomness in the package flows from one 64-bit root seed through named
substreams, so that (seed, stream name, index) pins a generator exactly and
independent components never share a stream.
"""

import hashlib
import operator

import numpy as np


def _tag(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")


def substream(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Generator for substream `name`/`index` of the given root seed."""
    try:
        entropy = [operator.index(seed), _tag(name), operator.index(index)]
    except TypeError:
        raise ValueError(f"seed {seed!r} and index {index!r} must be integers") from None
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))
