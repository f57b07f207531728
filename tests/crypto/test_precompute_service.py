"""The warm shared precompute service (generator tables).

Pins its contracts:

* ``warm_group`` builds once and records hits/misses in the metrics
  registry (miss path inside ``fixed_base_table``, hit path in the
  service);
* ``export_state`` / ``install_state`` round-trip generator tables
  bit-exactly into a cold process (simulated by clearing the module
  cache) and never replace a resident table.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.crypto.precompute import (
    PrecomputeService,
    get_precompute_service,
    reset_precompute_service,
)
from repro.math import groups
from repro.math.groups import fast_group
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


@pytest.fixture
def service():
    reset_precompute_service()
    try:
        yield PrecomputeService()
    finally:
        reset_precompute_service()


class TestWarmGroup:
    def test_first_warm_builds_then_hits(self, registry, service):
        group = fast_group()
        group.fixed_base_table()  # ensure cached (build or prior hit)
        before = groups.fixed_base_table_stats()["builds"]
        service.warm_group(group)
        service.warm_group(group)
        assert groups.fixed_base_table_stats()["builds"] == before
        hits = registry.counter("repro_precompute_hits_total").value(
            kind="fixed-base-table"
        )
        assert hits == 2.0

    def test_miss_records_build_histogram(self, registry, service):
        saved = dict(groups._FIXED_BASE_TABLES)
        groups._FIXED_BASE_TABLES.clear()
        try:
            service.warm_group(fast_group())
            snap = registry.snapshot()
            assert "repro_precompute_misses_total" in snap
            assert "repro_precompute_build_seconds" in snap
        finally:
            groups._FIXED_BASE_TABLES.update(saved)

    def test_warmed_group_keys_lists_triple(self, service):
        group = fast_group()
        service.warm_group(group)
        assert (group.p, group.q, group.g) in groups.cached_table_keys()

    def test_export_metrics_scoped_gauges(self, registry, service):
        service.warm_group(fast_group())
        service.export_metrics(scope="server")
        stats = groups.fixed_base_table_stats()
        gauge = registry.gauge("repro_precompute_table_hits")
        assert gauge.value(scope="server") == stats["hits"]
        assert (
            registry.gauge("repro_precompute_table_builds").value(scope="server")
            == stats["builds"]
        )

    def test_stats_shape_for_cli(self, service):
        service.warm_group(fast_group())
        assert service.stats()["tables"]["cached"] >= 1


class TestStateHandOff:
    def test_table_round_trip_is_bit_exact(self, service):
        group = fast_group()
        service.warm_group(group)
        expected = [group.exp_g(e) for e in (1, 2, 5, group.q - 1)]
        state = service.export_state(group_list=[group])
        assert len(state["tables"]) == 1

        saved = dict(groups._FIXED_BASE_TABLES)
        groups._FIXED_BASE_TABLES.clear()
        try:
            assert service.install_state(state) == 1
            assert (group.p, group.q, group.g) in groups.cached_table_keys()
            assert [group.exp_g(e) for e in (1, 2, 5, group.q - 1)] == expected
        finally:
            groups._FIXED_BASE_TABLES.clear()
            groups._FIXED_BASE_TABLES.update(saved)

    def test_install_never_clobbers_existing_table(self, service):
        group = fast_group()
        service.warm_group(group)
        resident = groups._FIXED_BASE_TABLES[(group.p, group.q, group.g)]
        state = service.export_state(group_list=[group])
        assert service.install_state(state) == 0
        assert groups._FIXED_BASE_TABLES[(group.p, group.q, group.g)] is resident


class TestGlobalService:
    def test_singleton_until_reset(self):
        reset_precompute_service()
        first = get_precompute_service()
        assert get_precompute_service() is first
        reset_precompute_service()
        assert get_precompute_service() is not first
