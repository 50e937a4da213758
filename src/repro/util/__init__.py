"""General-purpose utilities shared across the IFoT reproduction.

Submodules
----------
ids
    Deterministic, human-readable identifier generation.
rng
    Named, seeded random streams so every experiment is replayable.
stats
    Streaming statistics (Welford mean/variance, percentiles).
ringbuffer
    Fixed-capacity ring buffer for bounded stream windows.
serialization
    Compact, dependency-free payload encoding for flow records.
validate
    Small argument-checking helpers used across constructors.
"""

from repro.util.ids import IdGenerator
from repro.util.ringbuffer import RingBuffer
from repro.util.rng import RngRegistry, derive_seed
from repro.util.stats import LatencyRecorder, RunningStats
from repro.util.serialization import (
    decode_payload,
    encode_payload,
    payload_size,
)

__all__ = [
    "IdGenerator",
    "LatencyRecorder",
    "RingBuffer",
    "RngRegistry",
    "RunningStats",
    "decode_payload",
    "derive_seed",
    "encode_payload",
    "payload_size",
]
