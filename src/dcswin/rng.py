"""Named deterministic random streams.

Every stochastic source in the package (init, shuffling, noise, splits,
synthesis) draws from its own stream so that enabling or disabling one
feature never perturbs the draws of another.
"""
from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


def check_seed(seed: int) -> int:
    """`seed` as an int; a negative seed raises ConfigError."""
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def stream(seed: int, name: str) -> np.random.Generator:
    """Generator for (seed, name); same pair always yields the same draws."""
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([check_seed(seed),
                                                         key]))


def state_of(gen: np.random.Generator) -> dict:
    """JSON-serializable snapshot of a generator's position."""
    return gen.bit_generator.state


def restore(state: dict) -> np.random.Generator:
    """Rebuild a generator from a `state_of` snapshot."""
    bg = np.random.PCG64()
    bg.state = state
    return np.random.Generator(bg)
