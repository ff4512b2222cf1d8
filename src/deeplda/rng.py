"""Deterministic random numbers built on the SplitMix64 mixing function.

Every stochastic step in this package (weight initialization, epoch
shuffling, dropout masks) draws from :class:`SplitMix64` so that a run is
fully determined by its seed. SplitMix64 is counter based: draw ``i`` of a
stream is ``mix64(seed + (i + 1) * GAMMA)`` in 64-bit wrapping arithmetic,
which makes the sequence identical on every platform and lets draws be
produced in vectorized numpy passes, one block of :data:`BLOCK` words at a
time. Platform or library RNGs are deliberately not used anywhere.

State is just ``(seed, counter)``. A generator must not be shared between
threads; everything else in the package is pure and shareable.
"""

from __future__ import annotations

import numpy as np

# Elementwise passes, here and in the network, walk their arrays in blocks
# of this many values through block-sized scratch, so that one block stays
# in the L2 cache and no full-size temporary is allocated.
BLOCK = 16384

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# j * GAMMA mod 2**64 for j = 1..BLOCK: the offsets of a block's words
# from the block's base.
_STEPS = np.arange(1, BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
# 2**-53: maps the top 53 bits of a mixed word onto [0, 1).
_DOUBLE_SCALE = 1.0 / float(1 << 53)


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wrapping arithmetic), in
    place in ``z``; ``tmp`` is scratch of the same size."""
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=tmp)
        z *= mul
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


class SplitMix64:
    """Seeded stream of uniform doubles with an explicit draw counter."""

    def __init__(self, seed: int, counter: int = 0):
        if counter < 0:
            raise ValueError("counter must be non-negative")
        self.seed = int(seed) & _MASK64
        self.counter = int(counter)

    def __repr__(self) -> str:
        return f"SplitMix64(seed={self.seed}, counter={self.counter})"

    def _word_blocks(self, n: int):
        """Advance the counter by n and return an iterator over the n mixed
        64-bit words as ``(offset, words)`` blocks of at most :data:`BLOCK`.
        Each ``words`` is the same scratch array, overwritten by the next."""
        if n < 0:
            raise ValueError("n must be non-negative")
        counter = self.counter
        self.counter += n
        words = np.empty(min(BLOCK, n), dtype=np.uint64)
        tmp = np.empty_like(words)

        def blocks():
            for off in range(0, n, BLOCK):
                m = min(BLOCK, n - off)
                base = np.uint64((self.seed + (counter + off) * _GAMMA) & _MASK64)
                yield off, _mix64(np.add(_STEPS[:m], base, out=words[:m]), tmp[:m])

        return blocks()

    def _next_words(self, n: int) -> np.ndarray:
        """Advance the counter by n and return n mixed 64-bit words."""
        blocks = self._word_blocks(n)
        out = np.empty(n, dtype=np.uint64)
        for off, words in blocks:
            out[off : off + words.size] = words
        return out

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n independent doubles in [lo, hi), advancing the state by n."""
        if not lo < hi:
            raise ValueError(f"empty interval: lo={lo!r} must be < hi={hi!r}")
        blocks = self._word_blocks(n)
        out = np.empty(n)
        # Rounding of lo + u*(hi-lo) can land exactly on hi; keep [lo, hi).
        top = np.nextafter(hi, lo)
        for off, words in blocks:
            ob = out[off : off + words.size]
            np.multiply(np.right_shift(words, np.uint64(11), out=words), _DOUBLE_SCALE, out=ob)
            ob *= hi - lo
            ob += lo
            np.minimum(ob, top, out=ob)
        return out

    def next_uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """One double in [lo, hi), advancing the state by one draw."""
        return float(self.uniforms(1, lo, hi)[0])

    def uniform_matrix(self, rows: int, cols: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """A (rows, cols) float64 matrix of uniforms, filled row-major."""
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix dims must be positive, got {rows}x{cols}")
        return self.uniforms(rows * cols, lo, hi).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic uniform permutation of range(n).

        Sorts n fresh uniform keys; stable sort makes the (vanishingly
        unlikely) tie case deterministic as well.
        """
        return np.argsort(self.uniforms(n), kind="stable")
