"""Bit-level primitives: seeded Bernoulli sources and the AND product.

Probabilities are carried as random binary signals whose long-run fraction
of 1 bits equals the encoded value. The buses and counters built from these
signals are described, and simulated, in `machine`.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_CYCLES = 10**7


def stream_seed(master_seed: int, *key: int) -> np.random.SeedSequence:
    """Derive an independent child seed from a master seed and an index key.

    Distinct keys yield statistically independent generator streams, which is
    what the AND-product derivation requires of any two signals it combines.
    """
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))


@dataclass
class BitSource:
    """A seeded Bernoulli bit generator with fixed emission probability."""

    p: float
    rng: np.random.Generator

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"bit probability must be in [0, 1], got {self.p}")

    @classmethod
    def from_seed(cls, p: float, master_seed: int, index: int = 0) -> "BitSource":
        return cls(p, np.random.default_rng(stream_seed(master_seed, index)))

    def emit(self, n: int) -> np.ndarray:
        """Emit `n` independent bits, each 1 with probability `p`.

        A fresh uniform variate is compared against `p` for every bit, so the
        encoding is exact Bernoulli with no fixed-point quantization bias.
        """
        if n <= 0:
            raise ValueError("bit count must be positive")
        return (self.rng.random(n) < self.p).astype(np.uint8)


def and_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bitwise conjunction of two bit sequences.

    For uncorrelated input streams encoding p1 and p2 the output stream
    encodes p1 * p2.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"bit sequence length mismatch: {a.shape} vs {b.shape}")
    return a & b
