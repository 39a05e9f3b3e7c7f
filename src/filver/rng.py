"""Counter-based random streams.

Every stream is identified by (seed, stream_id) and an advancing draw counter.
Each draw call instantiates a fresh Philox generator keyed by (seed, stream_id)
with the call counter placed in a high word of the 256-bit block counter, so
consecutive calls read disjoint blocks of the Philox stream.  Streams derived
with different ids never share state, so a client's draws do not depend on
which clients trained before it, and a stream rebuilt from its tags on resume
repeats the draws of the uninterrupted run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1


def _tag64(tag) -> int:
    """Map a stream tag (int or str) to a stable 64-bit value."""
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    if isinstance(tag, str):
        digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    raise TypeError(f"stream tag must be int or str, got {type(tag).__name__}")


def _mix64(a: int, b: int) -> int:
    # splitmix64 finalizer over the running id; cheap and collision-resistant
    # for the handful of (client, round, purpose) tuples we derive.
    z = (a + 0x9E3779B97F4A7C15 + b) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass
class RngStream:
    """Deterministic stream of random draws, fully determined by (seed, stream_id).

    The counter advances by one per draw call; RngStream(seed, stream_id,
    counter) built from a saved triple resumes the stream bit-exactly.
    """

    seed: int
    stream_id: int = 0
    counter: int = field(default=0)

    def __post_init__(self):
        self.seed = int(self.seed) & _MASK64
        self.stream_id = int(self.stream_id) & _MASK64
        self.counter = int(self.counter)

    def child(self, *tags) -> "RngStream":
        """Derive an independent stream; same tags always yield the same stream."""
        sid = self.stream_id
        for tag in tags:
            sid = _mix64(sid, _tag64(tag))
        return RngStream(self.seed, sid)

    def _next_generator(self) -> np.random.Generator:
        # explicit uint64 arrays: a plain list with any element >= 2**63 would
        # be inferred as float64 and silently round away the low key bits
        bitgen = np.random.Philox(
            counter=np.array([0, 0, self.counter & _MASK64, 0], dtype=np.uint64),
            key=np.array([self.seed, self.stream_id], dtype=np.uint64),
        )
        self.counter += 1
        return np.random.Generator(bitgen)

    def normal(self, shape=None) -> np.ndarray:
        return self._next_generator().standard_normal(shape)

    def uniform(self, low=0.0, high=1.0, shape=None) -> np.ndarray:
        return self._next_generator().uniform(low, high, shape)

    def integers(self, low, high=None, shape=None) -> np.ndarray:
        return self._next_generator().integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._next_generator().permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        """Sample `size` indices from range(n)."""
        return self._next_generator().choice(n, size=size, replace=replace)
