"""Zero-dependency metrics registry (counters, gauges, histograms).

The registry holds named instruments, each of which keeps one value per
label set — the Prometheus data model, minus the client-library weight:

* :class:`Counter` — monotonically increasing (bytes sent, OT
  transfers, protocol runs, injected faults, retries);
* :class:`Gauge` — last-write-wins (remaining precompute bundles);
* :class:`Histogram` — fixed cumulative buckets (message sizes).

Exports: :meth:`MetricsRegistry.to_prometheus` emits the Prometheus
text exposition format (scrapeable when pasted behind any HTTP
endpoint); :meth:`MetricsRegistry.snapshot` returns a JSON-safe dict
for benchmark artifacts.

Like tracing, metrics are **off by default**: the module-level registry
is a :class:`NoopRegistry` whose instruments are a shared inert object,
so disabled instrumentation costs one attribute load per hook.  Enable
with :func:`enable_metrics`.

The registry and every instrument are **thread-safe**: the concurrent
trainer service increments shared counters from one thread per
connection.  Writes (``inc``/``set``/``observe``) serialize on a
per-instrument lock; reads (``value``/``total``/``count``/``sum``) stay
lock-free — under CPython's GIL a single ``dict.get`` is atomic, so a
reader sees either the pre- or post-increment value, never a torn one.
Instrument creation double-checks under the registry lock, with a
lock-free fast path for the common already-registered case.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import ValidationError

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote, and line-feed are the three characters the
    format reserves inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """Escape HELP text (backslash and line-feed only, per the format)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    rendered = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + rendered + "}"


class Counter:
    """A monotonically increasing value per label set.

    ``inc`` is a read-modify-write, so it serializes on the instrument
    lock; reads are lock-free (a point-in-time ``dict.get``).
    """

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._values: Dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Increase by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValidationError(
                f"counter {self.name} cannot decrease (got {amount})"
            )
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current value for one label set (0.0 when unseen)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label sets."""
        return sum(list(self._values.values()))

    def items(self) -> Iterable[Tuple[LabelKey, float]]:
        return list(self._values.items())

    def _expose(self) -> List[str]:
        return [
            f"{self.name}{_render_labels(key)} {_format(value)}"
            for key, value in sorted(self._values.items())
        ]

    def _snapshot(self):
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]


class Gauge:
    """A last-write-wins value per label set."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._values: Dict[LabelKey, float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def items(self) -> Iterable[Tuple[LabelKey, float]]:
        return list(self._values.items())

    def _expose(self) -> List[str]:
        return [
            f"{self.name}{_render_labels(key)} {_format(value)}"
            for key, value in sorted(self._values.items())
        ]

    def _snapshot(self):
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._values.items())
        ]


#: Default histogram buckets, sized for wire-message byte counts
#: (64 B .. 1 MiB) — the registry's dominant histogram use.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    64.0,
    256.0,
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
    1048576.0,
)

#: Buckets for wall-clock latencies in seconds (1 ms .. 60 s) — used by
#: the per-session duration histogram in the trainer service.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.025,
    0.1,
    0.5,
    2.0,
    10.0,
    60.0,
)


class Histogram:
    """Fixed cumulative buckets per label set (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = name
        self.help_text = help_text
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValidationError(
                f"histogram {name} buckets must be a sorted non-empty sequence"
            )
        self.buckets = bounds
        # label set -> (per-bucket counts, sum, count)
        self._series: Dict[LabelKey, List[Any]] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * len(self.buckets), 0.0, 0]
                self._series[key] = series
            counts, _, _ = series
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
            series[1] += value
            series[2] += 1

    def count(self, **labels: Any) -> int:
        series = self._series.get(_label_key(labels))
        return series[2] if series else 0

    def sum(self, **labels: Any) -> float:
        series = self._series.get(_label_key(labels))
        return series[1] if series else 0.0

    def bucket_counts(self, **labels: Any) -> Dict[float, int]:
        """Cumulative count per bucket bound for one label set."""
        series = self._series.get(_label_key(labels))
        counts = series[0] if series else [0] * len(self.buckets)
        return dict(zip(self.buckets, counts))

    def _expose(self) -> List[str]:
        lines: List[str] = []
        for key, (counts, total, count) in sorted(self._series.items()):
            for bound, bucket_count in zip(self.buckets, counts):
                lines.append(
                    f"{self.name}_bucket"
                    f"{_render_labels(key, ('le', _format(bound)))} {bucket_count}"
                )
            lines.append(
                f"{self.name}_bucket{_render_labels(key, ('le', '+Inf'))} {count}"
            )
            lines.append(f"{self.name}_sum{_render_labels(key)} {_format(total)}")
            lines.append(f"{self.name}_count{_render_labels(key)} {count}")
        return lines

    def _snapshot(self):
        return [
            {
                "labels": dict(key),
                "buckets": dict(zip((str(b) for b in self.buckets), counts)),
                "sum": total,
                "count": count,
            }
            for key, (counts, total, count) in sorted(self._series.items())
        ]


def _format(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _NoopInstrument:
    """Inert counter/gauge/histogram; one shared instance."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def count(self, **labels: Any) -> int:
        return 0

    def sum(self, **labels: Any) -> float:
        return 0.0

    def items(self):
        return ()


NOOP_INSTRUMENT = _NoopInstrument()


class NoopRegistry:
    """Disabled registry: hands out the shared inert instrument."""

    __slots__ = ()

    enabled = False

    def counter(self, name: str, help_text: str = "") -> _NoopInstrument:
        return NOOP_INSTRUMENT

    def gauge(self, name: str, help_text: str = "") -> _NoopInstrument:
        return NOOP_INSTRUMENT

    def histogram(self, name: str, help_text: str = "", buckets=None) -> _NoopInstrument:
        return NOOP_INSTRUMENT

    def to_prometheus(self) -> str:
        return ""

    def snapshot(self) -> Dict[str, Any]:
        return {}


NOOP_REGISTRY = NoopRegistry()


class MetricsRegistry:
    """Named instruments, created on first use and memoized.

    Thread-safe: creation double-checks under the registry lock and the
    steady-state lookup is one lock-free ``dict.get`` — concurrent
    serve threads pay no lock to *find* an instrument, only to mutate
    one (see the per-instrument locks above).
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory()
                    self._metrics[name] = metric
        if metric.kind != kind:
            raise ValidationError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(name, lambda: Counter(name, help_text), "counter")

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(name, lambda: Gauge(name, help_text), "gauge")

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> Histogram:
        return self._get(
            name, lambda: Histogram(name, help_text, buckets), "histogram"
        )

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- export ------------------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (one block per metric)."""
        blocks: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            block = []
            if metric.help_text:
                block.append(f"# HELP {name} {_escape_help(metric.help_text)}")
            block.append(f"# TYPE {name} {metric.kind}")
            block.extend(metric._expose())
            blocks.append("\n".join(block))
        return "\n".join(blocks) + ("\n" if blocks else "")

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every instrument's current state."""
        return {
            name: {
                "kind": self._metrics[name].kind,
                "help": self._metrics[name].help_text,
                "series": self._metrics[name]._snapshot(),
            }
            for name in self.names()
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


# -- module-level registry (no-op unless enabled) -------------------------

_REGISTRY = NOOP_REGISTRY


def get_metrics():
    """The active registry (a shared no-op unless metrics are enabled)."""
    return _REGISTRY


def set_metrics(registry) -> None:
    """Install a registry (pass :data:`NOOP_REGISTRY` to disable)."""
    global _REGISTRY
    _REGISTRY = registry


def enable_metrics() -> MetricsRegistry:
    """Install and return a fresh recording registry."""
    registry = MetricsRegistry()
    set_metrics(registry)
    return registry


def disable_metrics() -> None:
    """Restore the shared no-op registry."""
    set_metrics(NOOP_REGISTRY)
