"""Experiment registry and shared result structures.

Every table and figure of the paper's evaluation section (Table I,
Table II, Figs. 5–10) has a runner in :mod:`repro.evaluation.tables` or
:mod:`repro.evaluation.figures`.  This module provides the common
result containers and the registry that maps experiment ids to runners
— the per-experiment index of DESIGN.md, as code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro import obs
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class ExperimentResult:
    """A regenerated table or figure.

    ``columns`` names the fields; ``rows`` holds one dict per data row
    (tables) or per series point (figures); ``notes`` records paper-vs-
    measured commentary for EXPERIMENTS.md.
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[dict]
    notes: str = ""

    def column(self, name: str) -> List:
        """Extract a column as a list."""
        if name not in self.columns:
            raise ValidationError(
                f"unknown column {name!r}; available: {list(self.columns)}"
            )
        return [row[name] for row in self.rows]

    def to_text(self) -> str:
        """Render as an aligned text table."""
        columns = list(self.columns)
        widths = {
            c: max(len(c), *(len(_fmt(row[c])) for row in self.rows)) if self.rows else len(c)
            for c in columns
        }
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(c.ljust(widths[c]) for c in columns))
        lines.append("  ".join("-" * widths[c] for c in columns))
        for row in self.rows:
            lines.append("  ".join(_fmt(row[c]).ljust(widths[c]) for c in columns))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


#: Experiment registry: id -> (title, runner factory).  Populated by
#: tables.py / figures.py at import time via register().
_REGISTRY: Dict[str, Callable[..., ExperimentResult]] = {}


def register(experiment_id: str, runner: Callable[..., ExperimentResult]) -> None:
    """Register a runner under an experiment id (e.g. ``table1``)."""
    if experiment_id in _REGISTRY:
        raise ValidationError(f"experiment {experiment_id!r} already registered")
    _REGISTRY[experiment_id] = runner


def available_experiments() -> List[str]:
    """All registered experiment ids."""
    return sorted(_REGISTRY)


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one experiment by id.

    The run executes inside an ``experiment`` span.
    """
    try:
        runner = _REGISTRY[experiment_id]
    except KeyError:
        raise ValidationError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {available_experiments()}"
        ) from None
    with obs.get_tracer().span(
        "experiment", phase="experiment", experiment=experiment_id
    ):
        return runner(**kwargs)
