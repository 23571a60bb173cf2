"""Named, independently seeded random streams.

Each subsystem (arrivals, prompt lengths, fragmentation churn, placement
tie-breaking, ...) draws from its own stream so that changing one subsystem
never perturbs another — a requirement for apples-to-apples system
comparisons on identical workloads.
"""

from __future__ import annotations

import numpy as np


class RandomStreams:
    """Factory of named ``numpy.random.Generator`` streams.

    Streams are derived deterministically from ``(seed, name)`` so two
    ``RandomStreams`` objects with the same seed hand out identical streams
    regardless of the order in which names are first requested.
    """

    def __init__(self, seed: int = 0):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=(stable_hash(name),))
            generator = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = generator
        return generator

    def __getattr__(self, name: str) -> np.random.Generator:
        if name.startswith("_"):
            raise AttributeError(name)
        return self.stream(name)


def stable_hash(name: str) -> int:
    """Deterministic 63-bit FNV-1a hash of a name (``hash()`` is salted).

    Shared by stream derivation and request-id namespacing — any
    deterministic name-to-integer need should use this rather than grow
    another copy of the loop.
    """
    value = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value & 0x7FFFFFFFFFFFFFFF
