"""Cost-model drift detection.

:mod:`repro.evaluation.costmodel` predicts the wire bytes of every
protocol phase in closed form; this module compares those predictions
against *observed* bytes — from a live metrics registry
(``repro_phase_bytes_total``) or a recorded transcript — and flags any
phase whose measured traffic diverges beyond tolerance.

Why it matters: the cost model is calibrated against today's
variable-length rational encodings.  A serialization change, an OT
framing regression, or a protocol edit that silently inflates a message
shows up here first, as a drifted phase — before it shows up as a
bandwidth bill.

Tolerances: the model documents ~25% accuracy on totals (the rational
encodings are variable-length).  Per-phase errors are larger for the
tiny fixed-size phases (request/params are a handful of bytes), so the
check uses a relative tolerance *plus* an absolute floor under which a
phase can never be flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core.ompe.config import OMPEConfig
from repro.evaluation.costmodel import (
    CostBreakdown,
    predict_classification_bytes,
)

#: Default relative tolerance: the cost model's documented ~25%
#: accuracy plus headroom for the variable-length integer encodings.
DEFAULT_TOLERANCE = 0.35

#: Phases whose predicted size is below this many bytes are compared
#: with absolute slack instead of relative (a 7-byte request message
#: that measures 9 bytes is a 29% "drift" nobody should page for).
ABSOLUTE_FLOOR_BYTES = 64


@dataclass(frozen=True)
class PhaseDrift:
    """Observed-versus-predicted bytes for one protocol phase."""

    phase: str
    observed_bytes: int
    predicted_bytes: int
    tolerance: float
    drifted: bool

    @property
    def ratio(self) -> float:
        """``observed / predicted`` (``inf`` when nothing was predicted)."""
        if self.predicted_bytes == 0:
            return float("inf") if self.observed_bytes else 1.0
        return self.observed_bytes / self.predicted_bytes


@dataclass(frozen=True)
class DriftReport:
    """Per-phase drift verdicts for one (class of) protocol run."""

    phases: Tuple[PhaseDrift, ...]
    tolerance: float
    runs: int = 1

    @property
    def ok(self) -> bool:
        """True when no phase drifted beyond tolerance."""
        return not any(phase.drifted for phase in self.phases)

    @property
    def drifted_phases(self) -> Tuple[PhaseDrift, ...]:
        return tuple(phase for phase in self.phases if phase.drifted)

    @property
    def total_observed(self) -> int:
        return sum(phase.observed_bytes for phase in self.phases)

    @property
    def total_predicted(self) -> int:
        return sum(phase.predicted_bytes for phase in self.phases)

    def to_text(self) -> str:
        """Aligned human-readable drift table."""
        lines = [
            f"{'phase':14s} {'observed':>10s} {'predicted':>10s} "
            f"{'ratio':>7s}  verdict"
        ]
        for phase in self.phases:
            verdict = "DRIFT" if phase.drifted else "ok"
            ratio = (
                f"{phase.ratio:7.2f}" if phase.ratio != float("inf") else "    inf"
            )
            lines.append(
                f"{phase.phase:14s} {phase.observed_bytes:10d} "
                f"{phase.predicted_bytes:10d} {ratio}  {verdict}"
            )
        total_ratio = (
            self.total_observed / self.total_predicted
            if self.total_predicted
            else float("inf")
        )
        lines.append(
            f"{'total':14s} {self.total_observed:10d} "
            f"{self.total_predicted:10d} {total_ratio:7.2f}  "
            f"(tolerance ±{self.tolerance:.0%}"
            + (f", averaged over {self.runs} runs)" if self.runs != 1 else ")")
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe summary for harness artifacts."""
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "runs": self.runs,
            "total_observed_bytes": self.total_observed,
            "total_predicted_bytes": self.total_predicted,
            "phases": [
                {
                    "phase": phase.phase,
                    "observed_bytes": phase.observed_bytes,
                    "predicted_bytes": phase.predicted_bytes,
                    "drifted": phase.drifted,
                }
                for phase in self.phases
            ],
        }


def compare_to_prediction(
    observed_by_phase: Mapping[str, float],
    predicted: CostBreakdown,
    tolerance: float = DEFAULT_TOLERANCE,
    runs: int = 1,
) -> DriftReport:
    """Compare observed per-phase bytes against a predicted breakdown.

    ``observed_by_phase`` maps canonical phase labels (see
    :func:`repro.net.transcript.phase_of`) to bytes summed over
    ``runs`` protocol executions; observations are averaged per run
    before comparison.  Phases observed but never predicted (unknown
    labels) are always flagged — the model does not know about them.
    """
    predicted_by_phase = predicted.by_phase()
    verdicts = []
    for phase, predicted_bytes in predicted_by_phase.items():
        observed = int(round(observed_by_phase.get(phase, 0) / runs))
        if predicted_bytes < ABSOLUTE_FLOOR_BYTES:
            drifted = abs(observed - predicted_bytes) > ABSOLUTE_FLOOR_BYTES
        else:
            drifted = (
                abs(observed - predicted_bytes) / predicted_bytes > tolerance
            )
        verdicts.append(
            PhaseDrift(
                phase=phase,
                observed_bytes=observed,
                predicted_bytes=predicted_bytes,
                tolerance=tolerance,
                drifted=drifted,
            )
        )
    for phase in sorted(observed_by_phase):
        if phase not in predicted_by_phase:
            observed = int(round(observed_by_phase[phase] / runs))
            verdicts.append(
                PhaseDrift(
                    phase=phase,
                    observed_bytes=observed,
                    predicted_bytes=0,
                    tolerance=tolerance,
                    drifted=observed > ABSOLUTE_FLOOR_BYTES,
                )
            )
    return DriftReport(phases=tuple(verdicts), tolerance=tolerance, runs=runs)


def classification_drift(
    observed_by_phase: Mapping[str, float],
    config: OMPEConfig,
    dimension: int,
    function_degree: int = 1,
    tolerance: float = DEFAULT_TOLERANCE,
    runs: int = 1,
) -> DriftReport:
    """Drift of observed classification traffic against the cost model."""
    predicted = predict_classification_bytes(config, dimension, function_degree)
    return compare_to_prediction(
        observed_by_phase, predicted, tolerance=tolerance, runs=runs
    )


def drift_from_transcript(
    transcript,
    config: OMPEConfig,
    dimension: int,
    function_degree: int = 1,
    tolerance: float = DEFAULT_TOLERANCE,
) -> DriftReport:
    """Drift of one recorded protocol run against the cost model."""
    return classification_drift(
        transcript.bytes_by_phase(),
        config,
        dimension,
        function_degree=function_degree,
        tolerance=tolerance,
    )


def drift_from_metrics(
    registry,
    config: OMPEConfig,
    dimension: int,
    function_degree: int = 1,
    tolerance: float = DEFAULT_TOLERANCE,
    runs: Optional[int] = None,
) -> DriftReport:
    """Drift of live metrics against the cost model.

    Reads the ``repro_phase_bytes_total`` counter that
    :meth:`repro.net.channel.Channel.send` maintains.  ``runs``
    defaults to the ``repro_ompe_runs_total`` counter so multi-query
    sessions are compared per run.
    """
    phase_counter = registry.counter("repro_phase_bytes_total")
    observed: Dict[str, float] = {}
    for labels, value in phase_counter.items():
        label_map = dict(labels)
        phase = label_map.get("phase", "unknown")
        observed[phase] = observed.get(phase, 0.0) + value
    if runs is None:
        runs = int(registry.counter("repro_ompe_runs_total").total()) or 1
    return classification_drift(
        observed,
        config,
        dimension,
        function_degree=function_degree,
        tolerance=tolerance,
        runs=runs,
    )


def drift_from_service_metrics(
    registry,
    config: OMPEConfig,
    dimension: int,
    function_degree: int = 1,
    tolerance: float = DEFAULT_TOLERANCE,
    kind: str = "classify",
    runs: Optional[int] = None,
) -> DriftReport:
    """Drift of the trainer service's per-session telemetry.

    Reads ``repro_service_phase_bytes_total`` — the per-phase counter
    the server reconciles from every session transcript's
    ``bytes_by_phase()`` — restricted to sessions of the given
    ``kind``, and compares against the analytic cost model.  Because
    the server-side :class:`~repro.net.mux.MuxChannel` transcript
    records both directions, those numbers are directly comparable to
    the single-process ``repro_phase_bytes_total`` path in
    :func:`drift_from_metrics`.  ``runs`` defaults to the
    ``repro_service_sessions_total`` count for ``kind``.
    """
    phase_counter = registry.counter("repro_service_phase_bytes_total")
    observed: Dict[str, float] = {}
    for labels, value in phase_counter.items():
        label_map = dict(labels)
        if label_map.get("kind") != kind:
            continue
        phase = label_map.get("phase", "unknown")
        observed[phase] = observed.get(phase, 0.0) + value
    if runs is None:
        sessions = registry.counter("repro_service_sessions_total")
        runs = int(sessions.value(kind=kind)) or 1
    return classification_drift(
        observed,
        config,
        dimension,
        function_degree=function_degree,
        tolerance=tolerance,
        runs=runs,
    )
