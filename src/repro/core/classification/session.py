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
from repro.core.classification.linear import (
    ClassificationOutcome,
    decision_function_for_model,
)
from repro.core.ompe import OMPEConfig, execute_ompe
from repro.core.ompe.precompute import ReceiverPool, SenderPool, draw_pools
from repro.exceptions import ValidationError
from repro.ml.svm.model import SVMModel
from repro.utils.rng import ReproRandom


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
            sample = tuple(sample)
            outcome = execute_ompe(
                self._function,
                sample,
                config=self.config,
                seed=self._root.fork("query", self._queries).seed,
                amplify=True,
                offset=False,
                sender_pool=self._sender_pool,
                receiver_hidden=self._receiver_pool.hide(sample, self.config),
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
        return ClassificationOutcome.from_ompe(outcome)

    def classify_batch(
        self, samples: np.ndarray, limit: Optional[int] = None
    ) -> List[ClassificationOutcome]:
        """Classify a batch of samples through the session."""
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2:
            raise ValidationError("samples must be a 2-D array")
        count = samples.shape[0] if limit is None else min(limit, samples.shape[0])
        return [self.classify(samples[index]) for index in range(count)]
