"""Tests for the timing utilities."""

import time

import pytest

from repro.utils.timer import Stopwatch, TimingRecorder


class TestStopwatch:
    def test_measures_elapsed(self):
        with Stopwatch() as watch:
            time.sleep(0.01)
        assert watch.elapsed >= 0.009
        assert watch.elapsed_ms >= 9.0


class TestTimingRecorder:
    def test_measure_and_total(self):
        recorder = TimingRecorder()
        with recorder.measure("phase"):
            time.sleep(0.005)
        assert recorder.total("phase") >= 0.004
        assert recorder.count("phase") == 1

    def test_add_and_mean(self):
        recorder = TimingRecorder()
        recorder.add("x", 1.0)
        recorder.add("x", 3.0)
        assert recorder.mean("x") == 2.0
        assert recorder.total("x") == 4.0

    def test_unknown_phase_total_is_zero(self):
        assert TimingRecorder().total("nope") == 0.0

    def test_unknown_phase_mean_raises(self):
        with pytest.raises(KeyError):
            TimingRecorder().mean("nope")

    def test_names_sorted(self):
        recorder = TimingRecorder()
        recorder.add("b", 1.0)
        recorder.add("a", 1.0)
        assert recorder.names() == ["a", "b"]

    def test_as_dict(self):
        recorder = TimingRecorder()
        recorder.add("a", 1.0)
        assert recorder.as_dict() == {"a": 1.0}

    def test_measure_records_on_exception(self):
        recorder = TimingRecorder()
        with pytest.raises(RuntimeError):
            with recorder.measure("x"):
                raise RuntimeError("boom")
        assert recorder.count("x") == 1
