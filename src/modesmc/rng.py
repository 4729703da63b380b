"""Counter-based random streams.

Every stochastic phase of a run (initialization, each stage's resampling,
each stage's mutation, ...) draws from its own Philox stream keyed by
(master seed, stage, phase). Streams are independent of execution order
and of how work is split across workers, which is what makes run output a
pure function of the master seed.
"""

from __future__ import annotations

import numpy as np

INIT = 0
RESAMPLE = 1
MUTATE = 2
CHAIN = 3
SWAP = 4
REPLICATE = 5
LEVELS = 6

_MAX_SEED = 2**64


def stream(master_seed: int, stage: int, phase: int) -> np.random.Generator:
    """Return the Generator for one (seed, stage, phase) slot."""
    if not 0 <= master_seed < _MAX_SEED:
        raise ValueError(f"master seed must be a u64, got {master_seed}")
    if stage < 0 or phase < 0 or phase >= 256:
        raise ValueError(f"bad stream slot: stage={stage} phase={phase}")
    key = np.array(
        [master_seed, (np.uint64(stage) << np.uint64(8)) | np.uint64(phase)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def substream_seed(master_seed: int, index: int) -> int:
    """Derive a child master seed, e.g. one per replicate of an ensemble."""
    return int(stream(master_seed, index, REPLICATE).integers(0, 2**63))
