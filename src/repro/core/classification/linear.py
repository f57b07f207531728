"""Privacy-preserving linear classification (paper Section IV-A).

Alice holds a trained linear SVM ``d(t) = w·t + b``; Bob holds a sample
``t̃``.  One OMPE run with the decision polynomial as the sender
function gives Bob the amplified value ``r_a · d(t̃)`` whose sign is his
class label.  Alice never sees ``t̃``; Bob never sees ``(w, b)`` and —
because ``r_a`` is fresh per query — cannot accumulate distances for
the tangent-circle reconstruction of Section VI-A (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.ompe import OMPEConfig, OMPEFunction, execute_ompe
from repro.core.ompe.protocol import OMPEOutcome
from repro.exceptions import ValidationError
from repro.math.polynomials import Number
from repro.ml.svm.model import SVMModel
from repro.net.channel import LinkModel
from repro.net.runner import ProtocolReport


@dataclass(frozen=True)
class ClassificationOutcome:
    """The client's result for one sample.

    ``label`` is ``sign(d(t̃))`` in {-1.0, +1.0}; ``randomized_value``
    is everything the client actually learns (``r_a d(t̃)``); ``report``
    carries the transcript and cost accounting.
    """

    label: float
    randomized_value: Number
    report: ProtocolReport

    @property
    def total_bytes(self) -> int:
        return self.report.total_bytes

    @classmethod
    def from_ompe(cls, outcome: OMPEOutcome) -> "ClassificationOutcome":
        """Bob's result from his OMPE outcome ``r_a d(t̃)``.

        The paper assigns +1 on the hyperplane boundary (``d ≥ 0``).
        """
        value = outcome.value
        return cls(
            label=1.0 if value >= 0 else -1.0,
            randomized_value=value,
            report=outcome.report,
        )


def decision_function_for_model(model: SVMModel) -> OMPEFunction:
    """The sender-side OMPE function of a model's decision boundary.

    Linear models expose the decision polynomial directly; polynomial-
    kernel models use the exact kernel-form evaluator (the ``direct``
    method of :mod:`repro.core.classification.nonlinear`).  Every
    classification path — one-shot, session and the TCP trainer
    service — builds its function here.
    """
    if model.is_linear():
        return OMPEFunction.from_polynomial(model.linear_decision_polynomial())
    name, params = model.kernel_spec
    if name not in ("poly", "polynomial"):
        raise ValidationError(
            "sessions support linear and polynomial-kernel models; "
            "polynomialize RBF/sigmoid models first"
        )
    return OMPEFunction.from_callable(
        arity=model.dimension,
        total_degree=int(params.get("degree", 3)),
        evaluate=model.exact_decision_value,
        evaluate_batch=model.exact_decision_values,
    )


def classify_linear(
    model: SVMModel,
    sample: Sequence[float],
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    amplify: bool = True,
    link: Optional[LinkModel] = None,
) -> ClassificationOutcome:
    """Run the private linear classification protocol for one sample.

    ``amplify=False`` deliberately disables the paper's ``r_a``
    randomizer — used only by the Fig. 6 attack demonstration, never in
    production.
    """
    if not model.is_linear():
        raise ValidationError("classify_linear requires a linear-kernel model")
    sample = tuple(sample)
    if len(sample) != model.dimension:
        raise ValidationError(
            f"sample has {len(sample)} coordinates, model expects "
            f"{model.dimension}"
        )
    outcome = execute_ompe(
        decision_function_for_model(model),
        sample,
        config=config,
        seed=seed,
        amplify=amplify,
        offset=False,
        link=link,
    )
    return ClassificationOutcome.from_ompe(outcome)


def classify_linear_batch(
    model: SVMModel,
    samples: np.ndarray,
    config: Optional[OMPEConfig] = None,
    seed: int = 0,
    limit: Optional[int] = None,
) -> List[ClassificationOutcome]:
    """Classify many samples, one protocol run (and fresh ``r_a``) each."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValidationError("samples must be a 2-D array")
    count = samples.shape[0] if limit is None else min(limit, samples.shape[0])
    return [
        classify_linear(model, samples[index], config=config, seed=seed + index)
        for index in range(count)
    ]


def predicted_labels(outcomes: Iterable[ClassificationOutcome]) -> np.ndarray:
    """Collect labels from a batch of outcomes."""
    return np.asarray([outcome.label for outcome in outcomes], dtype=float)
