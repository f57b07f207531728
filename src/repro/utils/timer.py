"""Timing utilities for the experiment harness.

:class:`Stopwatch` measures a single region; :class:`TimingRecorder`
accumulates named timings across a protocol run so the benchmark
harness can report per-phase costs (model randomization, OT, and
interpolation phases of the paper's Fig. 9 / Fig. 10).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Stopwatch:
    """A simple perf_counter-based stopwatch usable as a context manager."""

    def __init__(self) -> None:
        self._start: float = 0.0
        self.elapsed: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start

    @property
    def elapsed_ms(self) -> float:
        """Elapsed time in milliseconds."""
        return self.elapsed * 1e3


class TimingRecorder:
    """Accumulates named phase timings.

    >>> recorder = TimingRecorder()
    >>> with recorder.measure("phase"):
    ...     pass
    >>> recorder.count("phase")
    1
    """

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = defaultdict(list)

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Context manager that appends the region's duration to ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._samples[name].append(time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        """Record an externally measured duration."""
        self._samples[name].append(float(seconds))

    def total(self, name: str) -> float:
        """Total seconds recorded under ``name`` (0.0 if absent)."""
        return sum(self._samples.get(name, ()))

    def count(self, name: str) -> int:
        """Number of samples recorded under ``name``."""
        return len(self._samples.get(name, ()))

    def mean(self, name: str) -> float:
        """Mean duration for ``name``; raises KeyError when unseen."""
        if name not in self._samples:
            raise KeyError(name)
        samples = self._samples[name]
        return sum(samples) / len(samples)

    def names(self) -> List[str]:
        """All phase names seen so far, sorted."""
        return sorted(self._samples)

    def as_dict(self) -> Dict[str, float]:
        """Mapping of phase name to total seconds."""
        return {name: self.total(name) for name in self.names()}
