"""Deterministic substream derivation for every random draw in the engine.

All randomness flows from one user-supplied 64-bit seed through Philox
counter-based generators.  Independent purposes (world generation, dataset
sampling, training, per-sequence conversion noise) get independent streams
through the second Philox key word:

    key = [seed, (purpose << 32) | index]

so the stream for sequence ``index`` opens directly, without consuming
draws that belong to another sequence.  A sequence's conversion noise
therefore depends only on its position in the batch.
"""
from __future__ import annotations

import numpy as np

PURPOSE_WORLD = 1
PURPOSE_DATA = 2
PURPOSE_TRAIN = 3
PURPOSE_CONVERT = 4
PURPOSE_VERIFY = 5


def substream(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Open the generator for one (seed, purpose, index) triple."""
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError(f"seed {seed} outside [0, 2**64)")
    if not 0 <= int(purpose) < 2 ** 32:
        raise ValueError(f"purpose {purpose} outside [0, 2**32)")
    if not 0 <= int(index) < 2 ** 32:
        raise ValueError(f"substream index {index} outside [0, 2**32)")
    key = np.array([int(seed), (int(purpose) << 32) | int(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
