"""The linkage driver: backend equivalence, filtering, resume.

The backbone invariant: the serial backend writes exactly what direct
protocol calls compute, and a resumed run reproduces the same final
pair set without recomputing completed chunks.  (The TCP backend's
store bytes are compared against the serial store in the
socket-marked ``test_linkage_tcp.py``.)
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro import obs
from repro.core.similarity import evaluate_similarity_private
from repro.exceptions import (
    BatchItemError,
    LinkageError,
    ResultStoreError,
)
from repro.linkage import (
    LinkageJobSpec,
    LinkageResultStore,
    SerialLinkageRunner,
    ServiceLinkageRunner,
    run_linkage,
)
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    previous = obs.get_metrics()
    registry = MetricsRegistry()
    obs.set_metrics(registry)
    try:
        yield registry
    finally:
        obs.set_metrics(previous)


def chunk_bytes(spec, store_root):
    store = LinkageResultStore(store_root, spec.fingerprint())
    return {
        chunk.chunk_id: store.read_chunk_bytes(chunk.chunk_id)
        for chunk in spec.chunks()
    }


class TestBackendEquivalence:
    def test_serial_matches_direct_protocol_calls(self, small_spec, tmp_path):
        report = run_linkage(
            small_spec, SerialLinkageRunner(), tmp_path / "store"
        )
        assert report.pairs_scored == small_spec.total_pairs
        by_pair = {(s.left, s.right): s for s in report.matches}
        for left_key in small_spec.left_keys:
            for right_key in small_spec.right_keys:
                outcome = evaluate_similarity_private(
                    small_spec.left[left_key],
                    small_spec.right[right_key],
                    small_spec.params,
                    config=small_spec.config,
                    seed=small_spec.pair_seed(left_key, right_key),
                )
                score = by_pair[(left_key, right_key)]
                assert score.t_squared == outcome.t_squared
                assert score.t == outcome.t


class TestPairProbe:
    def test_serial_runner_calls_the_module_binding_once_per_pair(
        self, left_models, right_models, light_config, tmp_path, monkeypatch
    ):
        """The untraced linkage benchmark reads its per-pair latency and
        bytes from a wrapper on ``repro.linkage.runner``'s
        ``evaluate_similarity_private`` binding: each pair must go
        through it once, and its outcome must carry all three phases'
        bytes."""
        from repro.linkage import runner as runner_module

        evaluate = runner_module.evaluate_similarity_private
        calls = []

        def probe(*args, **kwargs):
            outcome = evaluate(*args, **kwargs)
            calls.append(outcome)
            return outcome

        monkeypatch.setattr(runner_module, "evaluate_similarity_private", probe)
        left = {key: left_models[key] for key in ("L0", "L1")}
        right = {key: right_models[key] for key in ("R0", "R1")}
        spec = LinkageJobSpec(
            left, right, chunk_pairs=2, seed=7, config=light_config
        )
        report = run_linkage(spec, SerialLinkageRunner(), tmp_path / "store")
        assert report.pairs_scored == 4
        assert len(calls) == 4
        for outcome in calls:
            assert set(outcome.reports) == {"clear", "dots_ompe", "area_ompe"}
            assert all(phase.total_bytes > 0 for phase in outcome.reports.values())
            assert outcome.total_bytes == sum(
                phase.total_bytes for phase in outcome.reports.values()
            )


class TestFiltering:
    @pytest.fixture(scope="class")
    def raw_scores(self, left_models, right_models, light_config, tmp_path_factory):
        spec = LinkageJobSpec(
            left_models, right_models, chunk_pairs=2, seed=7,
            config=light_config,
        )
        report = run_linkage(
            spec, SerialLinkageRunner(),
            tmp_path_factory.mktemp("raw") / "store",
        )
        return report.matches

    def test_threshold_keeps_only_survivors_in_store(
        self, left_models, right_models, light_config, raw_scores, tmp_path
    ):
        cut = sorted(score.t for score in raw_scores)[len(raw_scores) // 2]
        spec = LinkageJobSpec(
            left_models, right_models, chunk_pairs=2, threshold=cut,
            seed=7, config=light_config,
        )
        report = run_linkage(
            spec, SerialLinkageRunner(), tmp_path / "store"
        )
        expected = {
            (s.left, s.right) for s in raw_scores if s.t <= cut
        }
        assert {(s.left, s.right) for s in report.matches} == expected
        # Non-survivors never materialize on disk.
        store = LinkageResultStore(tmp_path / "store", spec.fingerprint())
        on_disk = set()
        for chunk in spec.chunks():
            for score in store.load_chunk(chunk.chunk_id):
                on_disk.add((score.left, score.right))
        assert on_disk == expected

    def test_top_k_is_per_left_record_across_chunks(
        self, left_models, right_models, light_config, raw_scores, tmp_path
    ):
        # chunk_pairs=1 forces each left record's candidates across
        # several chunks; top-k must still be global per left record.
        spec = LinkageJobSpec(
            left_models, right_models, chunk_pairs=1, top_k=2, seed=7,
            config=light_config,
        )
        report = run_linkage(
            spec, SerialLinkageRunner(), tmp_path / "store"
        )
        expected = []
        for left_key in spec.left_keys:
            mine = sorted(
                (s for s in raw_scores if s.left == left_key),
                key=lambda s: (s.t_squared, s.right),
            )[:2]
            expected.extend(mine)
        assert list(report.matches) == expected

    def test_matches_ordered_by_left_then_similarity(self, raw_scores):
        ordered = list(raw_scores)
        assert ordered == sorted(
            ordered, key=lambda s: (s.left, s.t_squared, s.right)
        )


class TestResume:
    def test_resume_skips_completed_chunks(
        self, small_spec, tmp_path, registry
    ):
        first = run_linkage(
            small_spec, SerialLinkageRunner(), tmp_path / "store"
        )
        second = run_linkage(
            small_spec, SerialLinkageRunner(), tmp_path / "store"
        )
        assert second.pairs_scored == 0
        assert second.chunks_computed == 0
        assert second.chunks_resumed == first.chunks_total
        assert second.matches == first.matches
        assert registry.counter("repro_linkage_chunks_total").value(
            status="resumed"
        ) == first.chunks_total

    def test_partial_store_computes_only_the_rest(
        self, small_spec, tmp_path
    ):
        full = run_linkage(
            small_spec, SerialLinkageRunner(), tmp_path / "full"
        )
        # Seed a second store with just the first chunk's file.
        partial_root = tmp_path / "partial"
        partial = LinkageResultStore(partial_root, small_spec.fingerprint())
        first_chunk = small_spec.chunks()[0]
        full_store = LinkageResultStore(
            tmp_path / "full", small_spec.fingerprint()
        )
        partial.write_chunk(
            first_chunk.chunk_id,
            full_store.load_chunk(first_chunk.chunk_id),
        )
        report = run_linkage(
            small_spec, SerialLinkageRunner(), partial_root
        )
        assert report.chunks_resumed == 1
        assert report.chunks_computed == len(small_spec.chunks()) - 1
        assert report.matches == full.matches
        assert chunk_bytes(small_spec, partial_root) == chunk_bytes(
            small_spec, tmp_path / "full"
        )

    def test_damaged_chunk_quarantined_and_recomputed(
        self, small_spec, tmp_path, registry
    ):
        first = run_linkage(
            small_spec, SerialLinkageRunner(), tmp_path / "store"
        )
        store = LinkageResultStore(
            tmp_path / "store", small_spec.fingerprint()
        )
        victim = small_spec.chunks()[1]
        pristine = store.read_chunk_bytes(victim.chunk_id)
        store.chunk_path(victim.chunk_id).write_bytes(pristine[:-4])
        report = run_linkage(
            small_spec, SerialLinkageRunner(), tmp_path / "store"
        )
        assert report.chunks_quarantined == 1
        assert report.chunks_computed == 1
        (error,) = report.corrupt
        assert error.chunk_id == victim.chunk_id
        assert store.read_chunk_bytes(victim.chunk_id) == pristine
        assert report.matches == first.matches
        assert registry.counter("repro_linkage_chunks_total").value(
            status="quarantined"
        ) == 1

    def test_no_resume_recomputes_everything(self, small_spec, tmp_path):
        run_linkage(small_spec, SerialLinkageRunner(), tmp_path / "store")
        report = run_linkage(
            small_spec, SerialLinkageRunner(), tmp_path / "store",
            resume=False,
        )
        assert report.chunks_computed == report.chunks_total
        assert report.chunks_resumed == 0

    def test_mismatched_store_refused(
        self, small_spec, left_models, right_models, light_config, tmp_path
    ):
        run_linkage(small_spec, SerialLinkageRunner(), tmp_path / "store")
        other = LinkageJobSpec(
            left_models, right_models, chunk_pairs=2, seed=8,
            config=light_config,
        )
        with pytest.raises(ResultStoreError, match="different"):
            run_linkage(other, SerialLinkageRunner(), tmp_path / "store")


class _FailingPool:
    """A TrainerClientPool stand-in whose batch has one poisoned item."""

    def __init__(self, fail_index):
        self.fail_index = fail_index
        self.closed = False

    def evaluate_similarity_many(
        self, models, seeds=None, policy=None, server_models=None,
        return_errors=False, dots_hidden=None,
    ):
        assert return_errors
        results = []
        for index in range(len(models)):
            if index == self.fail_index:
                error = BatchItemError(index, "session poisoned")
                error.__cause__ = ConnectionError("peer vanished")
                results.append(error)
            else:
                results.append(
                    SimpleNamespace(t=0.5, t_squared=Fraction(1, 4))
                )
        return results

    def close(self):
        self.closed = True


class TestServiceRunnerErrors:
    def test_item_error_becomes_linkage_error_with_chunk_id(
        self, small_spec
    ):
        runner = ServiceLinkageRunner(_FailingPool(fail_index=1))
        chunk = small_spec.chunks()[0]
        with pytest.raises(LinkageError) as excinfo:
            runner.run_chunk(small_spec, chunk)
        message = str(excinfo.value)
        assert chunk.chunk_id in message
        assert chunk.right_keys[1] in message
        assert isinstance(excinfo.value.__cause__, BatchItemError)

    def test_owns_pool_controls_close(self):
        pool = _FailingPool(fail_index=0)
        ServiceLinkageRunner(pool).close()
        assert not pool.closed
        ServiceLinkageRunner(pool, owns_pool=True).close()
        assert pool.closed

    def test_failed_chunk_is_not_persisted_and_is_retryable(
        self, small_spec, tmp_path
    ):
        failing = ServiceLinkageRunner(_FailingPool(fail_index=0))
        with pytest.raises(LinkageError):
            run_linkage(small_spec, failing, tmp_path / "store")
        # Nothing was committed for the failed chunk, so a healthy
        # rerun resumes cleanly and computes everything.
        report = run_linkage(
            small_spec, SerialLinkageRunner(), tmp_path / "store"
        )
        assert report.chunks_computed == report.chunks_total
        assert report.chunks_quarantined == 0
