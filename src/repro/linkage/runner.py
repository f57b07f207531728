"""Linkage execution backends and the chunked job driver.

Two interchangeable :class:`LinkageRunner` backends score a chunk's
pairs with the private T² protocol:

* :class:`SerialLinkageRunner` — pair-at-a-time in this process;
* :class:`ServiceLinkageRunner` — a
  :class:`~repro.net.service.TrainerClientPool` fanning sessions out to
  a remote :class:`~repro.net.service.TrainerServer` hosting the left
  collection (protocol v2 pipelines the window).

Both produce **bit-identical** scores for a given spec: the per-pair
protocol seed is a pure function of record keys
(:meth:`~repro.linkage.spec.LinkageJobSpec.pair_seed`), never of
scheduling or transport.  Both hide each right model's OMPE #1/#2
input once per job and reuse it for all of that model's pairs
(:class:`_JobCache`).

:func:`run_linkage` drives a spec through a runner against a
:class:`~repro.linkage.store.LinkageResultStore`: completed chunks are
skipped on resume, damaged files are quarantined and recomputed,
threshold filtering is applied *before* a chunk is persisted (only
survivors materialize), and top-k is applied per left record at
finalize over the stored survivors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.ompe.precompute import HiddenInput
from repro.core.similarity import (
    SimilarityProfile,
    evaluate_similarity_private,
    similarity_profile,
)
from repro.core.similarity.linear import hide_dots_input
from repro.exceptions import (
    BatchItemError,
    LinkageError,
    ResultStoreCorruption,
)
from repro.linkage.spec import LinkageChunk, LinkageJobSpec
from repro.linkage.store import LinkageResultStore, PairScore


class LinkageRunner:
    """One strategy for scoring a chunk's pairs.

    Lifecycle: :meth:`prepare` once per job, :meth:`run_chunk` per
    chunk, :meth:`close` once at the end (also on error paths —
    :func:`run_linkage` guarantees it).  ``run_chunk`` returns scores
    in the chunk's ``right_keys`` order, unfiltered; the driver owns
    filtering and persistence.
    """

    def prepare(self, spec: LinkageJobSpec) -> None:
        pass

    def run_chunk(
        self, spec: LinkageJobSpec, chunk: LinkageChunk
    ) -> List[PairScore]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "LinkageRunner":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


class _JobCache:
    """Each model's profile and each right model's hidden input, per job.

    A :class:`~repro.core.similarity.profile.SimilarityProfile` is
    derived on a model's first pair in a job, and a right model's
    OMPE #1/#2 input is hidden on its first pair, from
    :meth:`~repro.linkage.spec.LinkageJobSpec.hide_seed`, inside a
    ``linkage.hide`` span; the rest of the job's pairs reuse both.  A
    new spec, or :meth:`_clear`, drops them.
    """

    def __init__(self) -> None:
        self._spec: Optional[LinkageJobSpec] = None
        self._profiles: Dict[Tuple[str, str], SimilarityProfile] = {}
        self._hidden_inputs: Dict[str, HiddenInput] = {}

    def _profile(
        self, spec: LinkageJobSpec, party: str, key: str
    ) -> SimilarityProfile:
        if spec is not self._spec:
            self._clear()
            self._spec = spec
        profile = self._profiles.get((party, key))
        if profile is None:
            models = spec.left if party == "alice" else spec.right
            profile = similarity_profile(models[key], spec.params, party=party)
            self._profiles[party, key] = profile
        return profile

    def _hidden(self, spec: LinkageJobSpec, right_key: str) -> HiddenInput:
        profile = self._profile(spec, "bob", right_key)
        hidden = self._hidden_inputs.get(right_key)
        if hidden is None:
            with obs.get_tracer().span(
                "linkage.hide", party="bob", phase="linkage", right=right_key
            ) as span:
                hidden = hide_dots_input(
                    profile, spec.config, spec.hide_seed(right_key)
                )
                span.set(
                    hiders=len(hidden.input_vector)
                    * (len(hidden.points) - len(hidden.cover_positions) + 1)
                )
            self._hidden_inputs[right_key] = hidden
        return hidden

    def _clear(self) -> None:
        self._spec = None
        self._profiles.clear()
        self._hidden_inputs.clear()


class SerialLinkageRunner(_JobCache, LinkageRunner):
    """Pair-at-a-time scoring in the calling process (the baseline).

    Each model's profile, and each right model's hidden OMPE #1/#2
    input, is built on its first pair in a job and reused for the rest
    of the job's pairs (:class:`_JobCache`); :meth:`close` drops them.
    """

    def run_chunk(
        self, spec: LinkageJobSpec, chunk: LinkageChunk
    ) -> List[PairScore]:
        left = self._profile(spec, "alice", chunk.left_key)
        scores = []
        for right_key in chunk.right_keys:
            right = self._profile(spec, "bob", right_key)
            hidden = self._hidden(spec, right_key)
            outcome = evaluate_similarity_private(
                left,
                right,
                spec.params,
                config=spec.config,
                seed=spec.pair_seed(chunk.left_key, right_key),
                dots_hidden=hidden,
            )
            scores.append(
                PairScore.from_outcome(
                    chunk.left_key, right_key, outcome.t, outcome.t_squared
                )
            )
        return scores

    def close(self) -> None:
        self._clear()


class ServiceLinkageRunner(_JobCache, LinkageRunner):
    """Chunked scoring through a :class:`TrainerClientPool`.

    The remote :class:`~repro.net.service.TrainerServer` must host the
    spec's left collection under the same keys (``models=``); each
    chunk fans one batch out with ``server_models`` pinning the left
    key and per-pair seeds pinning the protocol randomness.  Each right
    model goes out as its profile with its hidden OMPE #1/#2 input,
    both built once per job as in :class:`SerialLinkageRunner`, so the
    pool's ``params`` and ``config`` must be the spec's.  The pool is
    caller-owned: :meth:`close` leaves it open unless ``owns_pool=True``.
    """

    def __init__(self, pool, owns_pool: bool = False) -> None:
        super().__init__()
        self._pool = pool
        self._owns_pool = owns_pool

    def run_chunk(
        self, spec: LinkageJobSpec, chunk: LinkageChunk
    ) -> List[PairScore]:
        keys = chunk.right_keys
        seeds = [spec.pair_seed(chunk.left_key, key) for key in keys]
        outcomes = self._pool.evaluate_similarity_many(
            [self._profile(spec, "bob", key) for key in keys],
            seeds=seeds,
            server_models=[chunk.left_key] * len(keys),
            return_errors=True,
            dots_hidden=[self._hidden(spec, key) for key in keys],
        )
        scores = []
        for right_key, outcome in zip(chunk.right_keys, outcomes):
            if isinstance(outcome, BatchItemError):
                raise LinkageError(
                    f"chunk {chunk.chunk_id} pair "
                    f"({chunk.left_key!r}, {right_key!r}): {outcome}"
                ) from outcome
            scores.append(
                PairScore.from_outcome(
                    chunk.left_key, right_key, outcome.t, outcome.t_squared
                )
            )
        return scores

    def close(self) -> None:
        self._clear()
        if self._owns_pool:
            self._pool.close()


@dataclass(frozen=True)
class LinkageReport:
    """What one :func:`run_linkage` invocation did and found."""

    #: The final filtered pair set, sorted by ``(left, T², right)``.
    matches: Tuple[PairScore, ...]
    pairs_total: int
    pairs_scored: int
    chunks_total: int
    chunks_computed: int
    chunks_resumed: int
    chunks_quarantined: int
    corrupt: Tuple[ResultStoreCorruption, ...]
    elapsed_s: float

    @property
    def pairs_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.pairs_scored / self.elapsed_s

    def summary(self) -> dict:
        return {
            "matches": len(self.matches),
            "pairs_total": self.pairs_total,
            "pairs_scored": self.pairs_scored,
            "chunks_total": self.chunks_total,
            "chunks_computed": self.chunks_computed,
            "chunks_resumed": self.chunks_resumed,
            "chunks_quarantined": self.chunks_quarantined,
            "elapsed_s": self.elapsed_s,
            "pairs_per_second": self.pairs_per_second,
        }


def _threshold_filter(
    spec: LinkageJobSpec, scores: List[PairScore]
) -> List[PairScore]:
    if spec.threshold is None:
        return scores
    return [score for score in scores if score.t <= spec.threshold]


def _finalize(
    spec: LinkageJobSpec, store: LinkageResultStore
) -> Tuple[PairScore, ...]:
    """Merge stored survivors into the final filtered pair set.

    Top-k runs here, per left record over *all* its chunks (a chunk
    only sees one contiguous right block, so per-chunk top-k would be
    wrong).  Ordering uses the exact ``T²`` fraction, not the float
    ``T``, so ties break identically everywhere.
    """
    per_left: Dict[str, List[PairScore]] = {}
    for chunk in spec.chunks():
        for score in store.load_chunk(chunk.chunk_id):
            per_left.setdefault(score.left, []).append(score)
    matches: List[PairScore] = []
    for left_key in spec.left_keys:
        candidates = per_left.get(left_key, [])
        candidates.sort(key=lambda s: (s.t_squared, s.right))
        if spec.top_k is not None:
            candidates = candidates[: spec.top_k]
        matches.extend(candidates)
    return tuple(matches)


def run_linkage(
    spec: LinkageJobSpec,
    runner: LinkageRunner,
    store,
    resume: bool = True,
) -> LinkageReport:
    """Drive a linkage spec through a runner against a result store.

    ``store`` is a directory path or an open
    :class:`LinkageResultStore`; its manifest must carry this spec's
    fingerprint (a fresh directory is initialised, a mismatched one is
    refused).  With ``resume=True`` (the default) chunks whose files
    verify complete are **not recomputed** — their stored scores feed
    the final set directly — and damaged files are quarantined with a
    typed record in ``report.corrupt``, then recomputed.
    """
    if not isinstance(store, LinkageResultStore):
        store = LinkageResultStore(store, spec.fingerprint())
    elif store.fingerprint != spec.fingerprint():
        raise LinkageError(
            "store was opened with a different spec fingerprint"
        )
    chunks = spec.chunks()
    scan = (
        store.scan(chunk.chunk_id for chunk in chunks)
        if resume
        else None
    )
    completed = set(scan.completed) if scan else set()
    corrupt = scan.corrupt if scan else ()

    started = time.perf_counter()
    pairs_scored = 0
    chunks_computed = 0
    runner.prepare(spec)
    try:
        for chunk in chunks:
            if chunk.chunk_id in completed:
                continue
            scores = runner.run_chunk(spec, chunk)
            if len(scores) != chunk.pairs:  # pragma: no cover - defensive
                raise LinkageError(
                    f"chunk {chunk.chunk_id}: runner returned "
                    f"{len(scores)} scores for {chunk.pairs} pairs"
                )
            store.write_chunk(chunk.chunk_id, _threshold_filter(spec, scores))
            pairs_scored += chunk.pairs
            chunks_computed += 1
    finally:
        runner.close()
    elapsed = time.perf_counter() - started

    matches = _finalize(spec, store)
    metrics = obs.get_metrics()
    if metrics.enabled:
        pairs_counter = metrics.counter(
            "repro_linkage_pairs_total",
            "Similarity pairs scored by the linkage pipeline",
        )
        if pairs_scored:
            pairs_counter.inc(pairs_scored)
        chunk_counter = metrics.counter(
            "repro_linkage_chunks_total",
            "Linkage chunks by disposition",
        )
        if chunks_computed:
            chunk_counter.inc(chunks_computed, status="computed")
        if completed:
            chunk_counter.inc(len(completed), status="resumed")
        if corrupt:
            chunk_counter.inc(len(corrupt), status="quarantined")
        metrics.gauge(
            "repro_linkage_matches",
            "Surviving pairs in the final filtered set",
        ).set(len(matches))

    return LinkageReport(
        matches=matches,
        pairs_total=spec.total_pairs,
        pairs_scored=pairs_scored,
        chunks_total=len(chunks),
        chunks_computed=chunks_computed,
        chunks_resumed=len(completed),
        chunks_quarantined=len(corrupt),
        corrupt=corrupt,
        elapsed_s=elapsed,
    )
