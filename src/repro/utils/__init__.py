"""Shared utilities: deterministic randomness, timing, codecs."""

from repro.utils.rng import ReproRandom, derive_seed
from repro.utils.timer import Stopwatch

__all__ = [
    "ReproRandom",
    "derive_seed",
    "Stopwatch",
]
