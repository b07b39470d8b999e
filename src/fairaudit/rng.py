"""Counter-based pseudo-random generator used by every randomized routine.

The generator is SplitMix64: output i is a bit-mix of ``seed + i * GOLDEN``
(mod 2**64), so the stream is a pure function of (seed, counter). That makes
every consumer reproducible bit-for-bit across platforms, however its draws are
split into blocks. The reference stream for seed 42 is frozen in the README and
in tests/test_rng.py.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# numpy scalars, kept as uint64 so vectorized arithmetic wraps mod 2**64
_U_GOLDEN = np.uint64(GOLDEN)
_U_M1 = np.uint64(_M1)
_U_M2 = np.uint64(_M2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)

_INV53 = 2.0 ** -53


def mix64(z: int) -> int:
    """Scalar SplitMix64 finalizer (reference implementation)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _mix_block(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer of every element of ``z``, in place; ``tmp`` is scratch of z's shape."""
    tmp = np.empty_like(z) if tmp is None else tmp
    z ^= np.right_shift(z, _U30, out=tmp)
    z *= _U_M1
    z ^= np.right_shift(z, _U27, out=tmp)
    z *= _U_M2
    z ^= np.right_shift(z, _U31, out=tmp)
    return z


def derive_seed(seed: int, index: int) -> int:
    """Deterministic sub-seed for replicate/worker ``index`` of ``seed``."""
    return mix64((seed & _MASK) ^ mix64(((index + 1) * GOLDEN) & _MASK))


def resample_blocks(seed: int, sizes: list[int], B: int, step: int):
    """Within-group resample indices of replicates 0 to B - 1, ``step`` at a time: yields (start, block),
    where row i of ``block`` is ``floor(uniforms(n) * n)`` from ``CounterRng(derive_seed(seed, start + i))``,
    plus the sizes before n, for each n in ``sizes``, joined. The next chunk overwrites ``block``."""
    seeds = _mix_block(np.uint64(seed & _MASK) ^ _mix_block(np.arange(1, B + 1, dtype=np.uint64) * _U_GOLDEN))
    steps = np.arange(1, sum(sizes) + 1, dtype=np.uint64) * _U_GOLDEN
    # k * 2**-53 and n * 2**-53 are exact, so this rounds as uniforms(n) * n does; the cast floors
    scale = np.repeat(np.asarray(sizes, dtype=np.float64) * _INV53, sizes)
    offsets = np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)
    k, x = np.empty((step, len(steps)), dtype=np.uint64), np.empty((step, len(steps)))  # the two buffers
    for start in range(0, B, step):
        z, f = k[:B - start], x[:B - start]
        _mix_block(np.add(seeds[start:start + step, None], steps, out=z), f.view(np.uint64))
        np.copyto(f, np.right_shift(z, _U11, out=z), casting="unsafe")
        np.copyto(block := z.view(np.int64), np.multiply(f, scale, out=f), casting="unsafe")
        block += offsets
        yield start, block


class CounterRng:
    """Seeded stream of uniforms/normals with an explicit draw counter."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0

    def u64_block(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs."""
        start = self.counter + 1
        self.counter += n
        counters = np.arange(start, start + n, dtype=np.uint64)
        return _mix_block(np.uint64(self.seed) + counters * _U_GOLDEN)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles in [0, 1)."""
        return (self.u64_block(n) >> _U11).astype(np.float64) * _INV53

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller on consecutive uniform pairs."""
        m = (n + 1) // 2
        # u1 in (0, 1] so log(u1) is finite: k * 2**-53 + 2**-53 is (k + 1) * 2**-53 exactly; u2 in [0, 1)
        u1 = self.uniforms(m) + _INV53
        u2 = self.uniforms(m)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """A uniform random permutation of range(n)."""
        return np.argsort(self.uniforms(n), kind="stable")
