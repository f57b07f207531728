"""Reusable classification sessions with precomputed randomness.

A trainer serving many private queries should not regenerate masking
polynomials per request (paper Section VI-B.1), and a client issuing
many queries can pre-hide before going online.
:class:`PrivateClassificationSession` bundles a model, a protocol
config, and matching sender/receiver randomness pools, exposing the
same ``classify`` surface as the one-shot functions while drawing from
the pools and refilling them when they run dry.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.classification.linear import ClassificationOutcome, _label_from_value
from repro.core.ompe import OMPEConfig, OMPEFunction, execute_ompe
from repro.core.ompe.precompute import ReceiverPool, SenderPool, draw_pools
from repro.exceptions import ValidationError
from repro.ml.svm.model import SVMModel
from repro.utils.rng import ReproRandom


def decision_function_for_model(model: SVMModel) -> OMPEFunction:
    """The sender-side OMPE function of a model's decision boundary.

    Linear models expose the decision polynomial directly; polynomial-
    kernel models use the exact kernel-form evaluator (the ``direct``
    method of :mod:`repro.core.classification.nonlinear`).  Shared by
    in-process sessions and the TCP trainer service so both construct
    the same function for the same model.
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
    )


class PrivateClassificationSession:
    """A long-lived trainer/client pairing over one model.

    Parameters
    ----------
    model:
        The trainer's model (linear or polynomial kernel).
    config:
        Shared protocol parameters.
    pool_size:
        Randomness bundles precomputed per refill.
    seed:
        Root seed; per-query seeds derive deterministically from it.
    """

    def __init__(
        self,
        model: SVMModel,
        config: Optional[OMPEConfig] = None,
        pool_size: int = 32,
        seed: Optional[int] = None,
    ) -> None:
        if pool_size < 1:
            raise ValidationError(f"pool_size must be at least 1, got {pool_size}")
        self.model = model
        self.config = config or OMPEConfig()
        self.pool_size = pool_size
        self._root = ReproRandom(seed)
        self._queries = 0
        self._refills = 0
        self._function = decision_function_for_model(model)
        self._sender_pool: Optional[SenderPool] = None
        self._receiver_pool: Optional[ReceiverPool] = None
        self._refill()

    # -- pool management ---------------------------------------------------

    def _refill(self) -> None:
        self._refills += 1
        with obs.get_tracer().span(
            "classification.refill",
            phase="precompute",
            pool_size=self.pool_size,
            refill=self._refills,
        ):
            self._sender_pool, self._receiver_pool = draw_pools(
                self.config,
                self._function,
                self.pool_size,
                self._root.fork("pools", self._refills),
            )
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_session_refills_total",
                "Precompute pool refills across sessions",
            ).inc()

    @property
    def remaining_bundles(self) -> int:
        """Unused precomputed bundles before the next refill."""
        return min(len(self._sender_pool), len(self._receiver_pool))

    @property
    def queries_served(self) -> int:
        """Total queries classified through this session."""
        return self._queries

    # -- classification ------------------------------------------------------

    def classify(self, sample: Sequence[float]) -> ClassificationOutcome:
        """Classify one sample, drawing randomness from the pools."""
        if self.remaining_bundles == 0:
            self._refill()
        self._queries += 1
        with obs.get_tracer().span(
            "classification.query", phase="classification", query=self._queries
        ):
            outcome = execute_ompe(
                self._function,
                tuple(sample),
                config=self.config,
                seed=self._root.fork("query", self._queries).seed,
                amplify=True,
                offset=False,
                sender_pool=self._sender_pool,
                receiver_pool=self._receiver_pool,
            )
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_classifications_total",
                "Private classification queries served",
            ).inc()
            metrics.gauge(
                "repro_session_pool_remaining",
                "Unused precompute bundles before the next refill",
            ).set(self.remaining_bundles)
        return ClassificationOutcome(
            label=_label_from_value(outcome.value),
            randomized_value=outcome.value,
            report=outcome.report,
        )

    def classify_batch(
        self, samples: np.ndarray, limit: Optional[int] = None
    ) -> List[ClassificationOutcome]:
        """Classify a batch of samples through the session."""
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2:
            raise ValidationError("samples must be a 2-D array")
        count = samples.shape[0] if limit is None else min(limit, samples.shape[0])
        return [self.classify(samples[index]) for index in range(count)]
