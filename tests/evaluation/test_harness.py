"""Tests for the experiment harness and registry."""

import pytest

import repro.evaluation  # noqa: F401 — populate the registry
from repro import obs
from repro.evaluation.harness import (
    ExperimentResult,
    available_experiments,
    register,
    run_experiment,
)
from repro.exceptions import ValidationError
from tests.spans import find


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        expected = {"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}
        assert expected <= set(available_experiments())

    def test_unknown_experiment(self):
        with pytest.raises(ValidationError):
            run_experiment("fig99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError):
            register("table1", lambda: None)


class TestExperimentResult:
    def _result(self):
        return ExperimentResult(
            experiment_id="t",
            title="Test",
            columns=["a", "b"],
            rows=[{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}],
            notes="note",
        )

    def test_column_extraction(self):
        assert self._result().column("a") == [1, 3]

    def test_unknown_column(self):
        with pytest.raises(ValidationError):
            self._result().column("c")

    def test_to_text_contains_everything(self):
        text = self._result().to_text()
        assert "Test" in text and "2.5" in text and "note" in text

    def test_to_text_empty_rows(self):
        empty = ExperimentResult("t", "T", ["x"], [])
        assert "t" in empty.to_text()


class TestObservabilityWiring:
    def test_experiment_runs_inside_a_span(self):
        with obs.observed() as (tracer, _):
            run_experiment("fig6")
        spans = find(tracer, "experiment")
        assert spans and spans[0].attributes["experiment"] == "fig6"
