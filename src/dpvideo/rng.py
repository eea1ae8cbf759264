"""Counter-based random streams.

Every source of randomness in the package is a Philox stream keyed by
(seed, domain, step).  Philox is a counter-based generator, so a stream is a
pure function of its key: runs are reproducible regardless of worker count or
call interleaving, and independent streams never share state.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# Domain tags keep streams for different purposes disjoint under one user seed.
INIT = 1
DATA = 2
TEMPLATE = 3
POISSON = 4
NOISE = 5
CLIP_SAMPLE = 6
SHUFFLE = 7

_MASK64 = (1 << 64) - 1
_MASK48 = (1 << 48) - 1


def check_seed(seed: int, name: str = "seed") -> None:
    """A seed is an unsigned 64-bit integer, so that distinct seeds key distinct streams."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")


def stream(seed: int, domain: int, step: int = 0) -> np.random.Generator:
    """Independent generator for (seed, domain, step)."""
    check_seed(seed)
    if not 0 <= domain < (1 << 16):
        raise ValueError(f"domain tag out of range: {domain}")
    key = np.array(
        [seed, ((domain << 48) | (step & _MASK48)) & _MASK64],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def standard_normal(seed: int, domain: int, step: int, n: int) -> np.ndarray:
    """n standard-normal draws, one counter position per coordinate.

    Uses inverse-CDF sampling on (k + 0.5) / 2^53 uniforms so coordinate i is a
    fixed function of (seed, domain, step, i); draws are exactly Phi^-1(U).
    """
    rng = stream(seed, domain, step)
    words = rng.integers(0, 1 << 53, size=n, dtype=np.uint64)
    u = (words.astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)
