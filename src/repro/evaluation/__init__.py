"""Evaluation harness: regenerate every table and figure of the paper."""

from repro.evaluation import extensions, figures, tables  # noqa: F401 (registry side effects)
from repro.evaluation.harness import (
    ExperimentResult,
    available_experiments,
    run_experiment,
)
from repro.evaluation.report import render_text, run_all

__all__ = [
    "ExperimentResult",
    "available_experiments",
    "run_experiment",
    "render_text",
    "run_all",
]
