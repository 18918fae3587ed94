"""Deterministic, portable random number generation.

Every random draw in this package flows through :class:`SeededRng`, a
counter-based SplitMix64 generator.  The algorithm is small enough to
re-implement in any language, which keeps generated fixtures and training
runs reproducible outside this codebase:

    output_i = mix64(seed + (i + 1) * 0x9E3779B97F4A7C15)   (mod 2^64)

    mix64(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9            (mod 2^64)
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB            (mod 2^64)
        return z ^ (z >> 31)

Derived quantities:
  * uniform double in [0, 1):  (output >> 11) * 2^-53
  * standard normal:           Box-Muller, two uniforms per normal:
                               sqrt(-2 ln(1 - u1)) * cos(2 pi u2)
  * integer in [0, n):         floor(uniform * n)

The counter-based form makes array generation a pure function of
(seed, counter), so scalar and vectorized paths produce identical
sequences.  It also lets a stream start part-way: ``skip(n)`` advances
the counter past n outputs without computing them, so a fresh stream that
skips n and then draws yields exactly the values a stream that had already
drawn n outputs would.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DERIVE_SALT = 0xD1B54A32D192ED03

_TWO_NEG53 = 2.0 ** -53


def _mix64_array(z: np.ndarray) -> np.ndarray:
    ## uint64 array arithmetic wraps modulo 2^64 silently; a numpy uint64
    ## scalar would warn on the same wrap, so callers pass arrays
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SeededRng:
    """Counter-based SplitMix64 stream.

    Two instances constructed with equal seeds yield identical sequences
    regardless of whether values are drawn one at a time or in arrays.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._count = 0

    @property
    def seed(self) -> int:
        return self._seed

    def derive(self, tag: int) -> "SeededRng":
        """Child stream; independent of this stream's position."""
        z = self._seed ^ ((_DERIVE_SALT + (int(tag) * _GAMMA)) & _MASK64)
        return SeededRng(int(_mix64_array(np.array([z], dtype=np.uint64))[0]))

    def skip(self, n: int) -> "SeededRng":
        """Advance past n outputs without drawing them; returns this stream."""
        if n < 0:
            raise ValueError("n must be non-negative")
        self._count += int(n)
        return self

    def u64(self, size: int | None = None):
        """Raw 64-bit outputs; the primitive all other draws reduce to."""
        n = 1 if size is None else int(size)
        if n < 0:
            raise ValueError("size must be non-negative")
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            raw = _mix64_array(np.uint64(self._seed) + idx * np.uint64(_GAMMA))
        if size is None:
            return int(raw[0])
        return raw

    def uniform(self, size=None):
        """Uniform doubles in [0, 1)."""
        if size is None:
            return (self.u64() >> 11) * _TWO_NEG53
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        raw = self.u64(n)
        out = (raw >> np.uint64(11)).astype(np.float64) * _TWO_NEG53
        return out.reshape(shape)

    def normal(self, size=None):
        """Standard normals via Box-Muller; consumes two uniforms each."""
        if size is None:
            return float(self.normal(1)[0])
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        u = self.uniform(2 * n)
        u1, u2 = u[0::2], u[1::2]
        z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
        return z.reshape(shape)

    def randint(self, n: int, size=None):
        """Integers in [0, n), one uniform per value."""
        if n <= 0:
            raise ValueError("n must be positive")
        if size is None:
            return int(self.uniform() * n)
        u = self.uniform(size)
        return (u * n).astype(np.int64)

    def sample(self, n: int, k: int) -> np.ndarray:
        """k distinct integers from range(n) (partial Fisher-Yates), unsorted."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = np.arange(n, dtype=np.int64)
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k].copy()
