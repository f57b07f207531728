"""Timing utilities for the experiment harness.

:class:`Stopwatch` measures a single region.  Per-phase protocol costs
come from the trace spans of :mod:`repro.obs`.
"""

from __future__ import annotations

import time


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
