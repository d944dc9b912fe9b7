"""Deterministic random-stream derivation.

Every stochastic quantity in a trial (signal, measurement matrices, noise)
draws from ``np.random.default_rng(stream_seed(master_seed, *path))``, its own
named substream of one master seed, so results are reproducible bit-for-bit
and independent of evaluation order.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _key_part(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & 0xFFFFFFFF


def stream_seed(master_seed: int, *path: int | str) -> int:
    """64-bit seed derived from a named substream, for APIs that take ints."""
    ss = np.random.SeedSequence(
        entropy=int(master_seed) & _MASK64,
        spawn_key=tuple(_key_part(p) for p in path),
    )
    a, b = ss.generate_state(2, dtype=np.uint64)[:2]
    return int(a ^ (b << 1)) & _MASK64
