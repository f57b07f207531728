"""Tests for the timing utilities."""

import time

from repro.utils.timer import Stopwatch


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as watch:
            time.sleep(0.01)
        assert watch.elapsed >= 0.009
        assert watch.elapsed_ms >= 9.0
