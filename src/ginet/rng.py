"""Deterministic pseudorandom numbers.

Every stochastic code path in the package draws from one of these
generators, seeded explicitly.  The generator is splitmix64: a single
64-bit state advanced by a fixed odd constant, with a finalizing mix.
No environment entropy is ever used, so identical seeds reproduce
identical runs bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def _fnv1a(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def stream_floats(states: np.ndarray, count: int) -> np.ndarray:
    """The next count uniform() values of every splitmix64 stream in
    states, as the rows of a (len(states), count) array.

    states is a uint64 array of stream states, advanced in place past the
    values drawn.  The values are mixed as one uint64 array, whose
    arithmetic wraps mod 2^64 like the & _MASK of next_u64.
    """
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = states[:, None] + np.uint64(_GAMMA) * steps
    states += np.uint64(count * _GAMMA & _MASK)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


class SplitMix64:
    """splitmix64 stream; yields uint64, floats in [0,1), and arrays."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, bias-free."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        limit = (_MASK + 1) - ((_MASK + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def floats(self, *shape: int) -> np.ndarray:
        """The next prod(shape) uniform() values: stream_floats on this
        one state."""
        if any(s < 0 for s in shape):
            raise ValueError(f"negative dimension in shape {shape}")
        states = np.array([self.state], dtype=np.uint64)
        out = stream_floats(states, math.prod(shape))
        self.state = int(states[0])
        return out.reshape(shape)

    def uniforms(self, lo: float, hi: float, *shape: int) -> np.ndarray:
        return lo + (hi - lo) * self.floats(*shape)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def spawn(self, tag: str) -> "SplitMix64":
        """Independent child stream; deterministic in (state, tag)."""
        return SplitMix64(_mix(self.next_u64() ^ _fnv1a(str(tag))))
