"""Deterministic SplitMix64 stream used everywhere randomness is needed.

The generator is pinned to the published SplitMix64 constants so that any
implementation in any language reproduces the exact same doubles from the same
seed.  Algorithm per draw, on 64-bit unsigned integers with wrapping
arithmetic:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z =  z ^ (z >> 31)
    double = (z >> 11) * 2**-53      # uniform in [0, 1)

numpy's own Generator is deliberately not used for anything that affects
results: its bit streams are not stable across numpy versions.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue
from .fields import is_integer

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_D53 = 2.0**-53


def _mix(z):
    """The output function of one draw, on a uint64 scalar or array; the
    caller ignores overflow, which is the wrapping arithmetic."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def check_seed(seed: int, name: str) -> None:
    """Reject a seed that is not an integer in [0, 2^64); SplitMix64 itself
    would mask it."""
    if not is_integer(seed):
        raise InvalidValue(f"{name} must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise InvalidValue(f"{name} must be in [0, 2^64), got {seed}")


class SplitMix64:
    """Stateful SplitMix64 stream of uniform doubles in [0, 1)."""

    def __init__(self, seed: int):
        if not is_integer(seed):
            raise InvalidValue(f"seed must be an integer, got {seed!r}")
        self._state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def next_uint64(self) -> int:
        with np.errstate(over="ignore"):
            self._state = self._state + _GAMMA
            return int(_mix(self._state))

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * _D53

    def doubles(self, n: int) -> np.ndarray:
        """Vectorized batch of n doubles; identical to n next_double() calls."""
        if not is_integer(n) or n < 0:
            raise InvalidValue(f"n must be a nonnegative integer, got {n!r}")
        # wrapping uint64 arithmetic; numpy warns on overflow, which is the point
        with np.errstate(over="ignore"):
            idx = np.arange(1, n + 1, dtype=np.uint64)
            z = _mix(self._state + idx * _GAMMA)
            self._state = self._state + np.uint64(n) * _GAMMA
        return (z >> np.uint64(11)).astype(np.float64) * _D53
