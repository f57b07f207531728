"""Warm shared precompute service for the OT group's generator tables.

The window-8 generator tables in :mod:`repro.math.groups` are public
precompute: the same for every session over one group.  Built
silently, they would be rebuilt in every process that touched them —
notably in *every* :class:`~repro.engine.engine.ProtocolEngine` worker,
because nothing warmed the parent before the fork.  This module makes
that warm-up explicit:

* :meth:`PrecomputeService.warm_group` builds (or confirms) the
  generator table for a ``(p, q, g)`` triple **once**, recording
  ``repro_precompute_hits_total`` / ``repro_precompute_misses_total``
  and build-time histograms in the active metrics registry;
* :meth:`PrecomputeService.export_state` /
  :meth:`PrecomputeService.install_state` serialize warm tables into
  a picklable blob — the engine ships it inside the worker spec, so
  workers under both ``fork`` (inherit) and ``spawn`` (install) start
  warm, and :class:`~repro.net.service.TrainerServer` warms at
  construction so every accepted session runs on hot tables.

The service is deliberately process-global (one warm store per
process), mirroring the cache it fronts; :func:`reset_precompute_service`
exists for test isolation.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from repro import obs
from repro.math import groups
from repro.math.groups import SchnorrGroup


class PrecomputeService:
    """Process-wide warm store of group generator tables."""

    def warm_group(self, group: SchnorrGroup) -> None:
        """Ensure the generator table for ``group`` is built and hot.

        A miss builds the table (counted inside
        :meth:`SchnorrGroup.fixed_base_table` with its build-time
        histogram); a hit is counted here as
        ``repro_precompute_hits_total{kind="fixed-base-table"}``.
        """
        before = groups.fixed_base_table_stats()["builds"]
        group.fixed_base_table()
        if groups.fixed_base_table_stats()["builds"] == before:
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "repro_precompute_hits_total",
                    "Precompute-store hits served from warm material",
                ).inc(kind="fixed-base-table")

    # -- cross-process hand-off --------------------------------------------

    def export_state(
        self, group_list: Optional[Sequence[SchnorrGroup]] = None
    ) -> dict:
        """Serialize warm tables (all, or ``group_list``'s) for another process."""
        keys = None
        if group_list is not None:
            keys = [(g.p, g.q, g.g) for g in group_list]
        return {"tables": groups.export_fixed_base_tables(keys)}

    def install_state(self, state: dict) -> int:
        """Install exported tables into this process; returns how many.

        Under ``fork`` the tables already exist (inherited) and install
        is a no-op; under ``spawn`` this is what makes the worker warm.
        """
        return groups.install_fixed_base_tables(state.get("tables", ()))

    # -- observability -----------------------------------------------------

    def export_metrics(self, scope: str = "process") -> None:
        """Mirror the (hot-path-cheap) table cache counters as gauges.

        Table *hits* are tracked in a plain dict because they happen
        once per ``exp_g``; this pushes them into the registry at a
        boundary (engine drain, ``repro observe``) under a ``scope``
        label so per-worker gauges survive the snapshot merge.
        """
        metrics = obs.get_metrics()
        if not metrics.enabled:
            return
        stats = groups.fixed_base_table_stats()
        metrics.gauge(
            "repro_precompute_table_hits",
            "Generator-table cache hits in this scope",
        ).set(stats["hits"], scope=scope)
        metrics.gauge(
            "repro_precompute_table_builds",
            "Generator-table builds in this scope",
        ).set(stats["builds"], scope=scope)

    def stats(self) -> dict:
        """Human-readable snapshot for the CLI."""
        return {
            "tables": {
                "cached": len(groups.cached_table_keys()),
                **groups.fixed_base_table_stats(),
            },
        }


_SERVICE: Optional[PrecomputeService] = None
_SERVICE_LOCK = threading.Lock()


def get_precompute_service() -> PrecomputeService:
    """The process-global precompute service (created on first use)."""
    global _SERVICE
    if _SERVICE is None:
        with _SERVICE_LOCK:
            if _SERVICE is None:
                _SERVICE = PrecomputeService()
    return _SERVICE


def reset_precompute_service() -> None:
    """Drop the global service (tests); group tables stay cached."""
    global _SERVICE
    with _SERVICE_LOCK:
        _SERVICE = None
