"""Report generation: run every experiment and render the results.

``python -m repro.evaluation.report`` regenerates all tables/figures
and prints them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.evaluation import extensions, figures, tables  # noqa: F401 (registry side effects)
from repro.evaluation.harness import (
    ExperimentResult,
    available_experiments,
    run_experiment,
)


def run_all(
    experiment_ids: Optional[Sequence[str]] = None, **kwargs
) -> Dict[str, ExperimentResult]:
    """Run all (or the selected) experiments, returning results by id."""
    ids = list(experiment_ids) if experiment_ids is not None else available_experiments()
    return {experiment_id: run_experiment(experiment_id, **kwargs) for experiment_id in ids}


def render_text(results: Dict[str, ExperimentResult]) -> str:
    """Render all results as plain text."""
    return "\n\n".join(results[key].to_text() for key in sorted(results))


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point: run and print everything (``--plots`` adds charts)."""
    import sys

    argv = list(sys.argv[1:] if argv is None else argv)
    results = run_all()
    print(render_text(results))
    if "--plots" in argv:
        from repro.evaluation.plotting import render_experiment

        for key in sorted(results):
            chart = render_experiment(results[key])
            if chart:
                print()
                print(chart)


if __name__ == "__main__":
    main()
