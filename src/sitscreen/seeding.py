"""Deterministic seed derivation.

All randomness in the package flows through explicit integer seeds.  Derived
seeds are produced by hashing a tuple of integers through
``numpy.random.SeedSequence``, which guarantees well-mixed, collision-resistant
streams that do not depend on scheduling or thread count.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Fixed master seed used by the CLI when --seed is not given (never time-based).
DEFAULT_MASTER_SEED = 42


def derive_seed(*parts: int) -> int:
    """Hash a tuple of non-negative integers into a fresh 64-bit seed."""
    entropy = tuple(int(p) for p in parts)
    for part in entropy:
        if part < 0:
            raise ConfigError(f"seeds must be non-negative integers, got {part}")
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def rng_from_seed(seed: int) -> np.random.Generator:
    """Canonical generator construction: one PCG64 stream per seed."""
    return np.random.default_rng(int(seed))
