"""Counter-based random streams.

Every stream is identified by (seed, stream_id) and an advancing draw counter.
Each draw call resets one module-level Philox bit generator to key
(seed, stream_id) with the call counter in a high word of the 256-bit block
counter, an empty output buffer and no leftover 32-bit half: the state a
freshly constructed Philox(key=..., counter=...) starts from.  The draw then
reads from the one Generator built on it, so consecutive calls read disjoint
blocks of the Philox stream and no call depends on what an earlier call
consumed.  Streams derived with different ids never share state, so a
client's draws do not depend on which clients trained before it, and a
stream rebuilt from its tags on resume repeats the draws of the
uninterrupted run.

A normal draw can also be read in parts (`RngStream.normal_draw`): each
part continues the one draw where the last part stopped, and `mark()`
records the Philox state reached, as an opaque value.  NormalDraw(mark)
reads on from that state, so a part can be drawn again later, to the same
bytes, whatever other draws came between.

Draws are not thread-safe: two threads drawing at once would reset the one
generator under each other.  The program draws from one thread.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1

# Shared by every draw; _next_generator resets the state before each one.
# Setting the state costs a fraction of building a Philox and a Generator.
_BITGEN = np.random.Philox(0)
_GENERATOR = np.random.Generator(_BITGEN)
_EMPTY_BUFFER = (0, 0, 0, 0)
_BUFFER_SIZE = len(_EMPTY_BUFFER)  # buffer_pos at its size means the buffer is empty

# values a NormalDraw.skip draws per call, into one scratch array (512 KB)
_SKIP_CHUNK = 1 << 16

_STR_TAGS: dict[str, int] = {}


def _tag64(tag) -> int:
    """Map a stream tag (int or str) to a stable 64-bit value."""
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    if isinstance(tag, str):
        value = _STR_TAGS.get(tag)
        if value is None:
            digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
            value = _STR_TAGS[tag] = int.from_bytes(digest, "little")
        return value
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
        # Python ints convert to the state's uint64 words exactly, seeds and
        # ids >= 2**63 included
        _BITGEN.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, self.counter & _MASK64, 0),
                      "key": (self.seed, self.stream_id)},
            "buffer": _EMPTY_BUFFER,
            "buffer_pos": _BUFFER_SIZE,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.counter += 1
        return _GENERATOR

    def normal(self, shape=None) -> np.ndarray:
        return self._next_generator().standard_normal(shape)

    def normal_draw(self) -> "NormalDraw":
        """This stream's next draw, as a normal draw to read in parts."""
        self._next_generator()
        return NormalDraw(_BITGEN.state)

    def uniform(self, low=0.0, high=1.0, shape=None) -> np.ndarray:
        return self._next_generator().uniform(low, high, shape)

    def integers(self, low, high=None, shape=None) -> np.ndarray:
        return self._next_generator().integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._next_generator().permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        """Sample `size` indices from range(n)."""
        return self._next_generator().choice(n, size=size, replace=replace)


class NormalDraw:
    """One draw of standard normals, read part by part.

    Parts read back to back hold, in C order, the values that one `normal`
    call of their total size draws.  `mark()` records the position reached;
    NormalDraw(mark) reads on from it, to the same values, whatever other
    draws came between.  The state is restored before each part and recorded
    after it, so draws of other streams between parts do not shift it.
    """

    def __init__(self, mark: dict):
        self._state = mark

    def mark(self) -> dict:
        """The position reached: the Philox state, as an opaque value."""
        return self._state

    def normal(self, shape) -> np.ndarray:
        """The draw's next values, as an array of `shape`."""
        _BITGEN.state = self._state
        values = _GENERATOR.standard_normal(shape)
        self._state = _BITGEN.state
        return values

    def skip(self, count: int) -> None:
        """Advance past the draw's next `count` values, holding at most
        _SKIP_CHUNK of them at a time."""
        _BITGEN.state = self._state
        scratch = np.empty(min(count, _SKIP_CHUNK))
        for lo in range(0, count, _SKIP_CHUNK):
            _GENERATOR.standard_normal(out=scratch[:min(_SKIP_CHUNK, count - lo)])
        self._state = _BITGEN.state
