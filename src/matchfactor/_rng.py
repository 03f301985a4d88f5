"""The seeded generator behind every random draw of the package.

``SeededRandom(seed)`` draws from the standard library's Mersenne Twister,
``random.Random(seed)``, and offers only the draws the package makes: the
fits' random starts, k-means++ seeding, and the synthetic generator's planted
factors, noise and wins.  ``random`` is loaded at start-up anyway and seeds
from an integer without ``hashlib``, while the first use of ``numpy.random``
would load that package and add about 6 MB to a stage's peak RSS.

There is one kind of uniform: ``k * 2**-53`` for the top 53 bits ``k`` of
each little-endian 64-bit word of ``randbytes``, so a seed gives the same
values on every platform.  Normals are Box-Muller pairs of one such uniform
radius and one such uniform angle, drawn ``_BLOCK`` values at a time straight
into the result; the largest normal they give is 8.57 in magnitude.
"""

from __future__ import annotations

import math
import operator
import random

import numpy as np

# normals drawn per Box-Muller block: its temporaries stay near 0.4 MB
_BLOCK = 1 << 14


class SeededRandom:
    """A reproducible stream of draws from a non-negative integer seed."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._gen = random.Random(seed)

    def random(self, shape) -> np.ndarray:
        """Uniforms on [0, 1) in an array of ``shape``."""
        n = int(np.prod(shape))
        words = np.frombuffer(self._gen.randbytes(8 * n), dtype="<u8") >> np.uint64(11)
        out = words.astype(np.float64).reshape(shape)
        out *= 2.0**-53
        return out

    def uniform(self, low: float, high: float, size=None):
        """Uniforms on [low, high): a float when ``size`` is None, else an array."""
        if size is None:
            return low + (high - low) * float(self.random(()))
        out = self.random(size)
        out *= high - low
        out += low
        return out

    def standard_normal(self, shape) -> np.ndarray:
        """Standard normals in an array of ``shape``, by Box-Muller."""
        out = np.empty(shape)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _BLOCK):
            block = flat[start : start + _BLOCK]
            pairs = (block.size + 1) // 2
            u = self.random(2 * pairs)
            radius, angle = u[:pairs], u[pairs:]
            # 1 - u lies in (0, 1], so the log is finite
            np.subtract(1.0, radius, out=radius)
            np.log(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=radius)
            angle *= 2.0 * math.pi
            np.cos(angle, out=block[:pairs])
            block[:pairs] *= radius
            np.sin(angle[: block.size - pairs], out=block[pairs:])
            block[pairs:] *= radius[: block.size - pairs]
        return out

    def integers(self, n: int) -> int:
        """A uniform integer in [0, n)."""
        return self._gen.randrange(n)

    def choice(self, n: int, p: np.ndarray) -> int:
        """An index in [0, n) drawn with probabilities ``p``, by inverse CDF.

        ``p`` need not sum to exactly 1; an index of weight 0 is never drawn.
        """
        cdf = np.cumsum(p, dtype=np.float64)
        if cdf.shape != (n,) or not cdf[-1] > 0:
            raise ValueError(f"need {n} weights with a positive sum")
        # the last entry is then exactly 1 > u, and a zero weight repeats
        # its predecessor, which no u falls between
        cdf /= cdf[-1]
        return int(np.searchsorted(cdf, self.random(()), side="right"))
