"""Seedable RNG streams.

All randomness is drawn from named per-carrier streams so that runs sharing
a seed see the same fading regardless of which carriers the splitter
actually uses (common random numbers).
"""

from __future__ import annotations

import zlib

import numpy as np


def make_rng(seed: int, stream_id: str) -> np.random.Generator:
    """Independent generator for (seed, stream_id).

    The same pair always yields the same sample sequence; distinct stream
    ids yield independent streams.  Stream ids are hashed with crc32 so the
    mapping is stable across processes and platforms.
    """
    tag = zlib.crc32(stream_id.encode("utf-8"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(seed, tag))))
