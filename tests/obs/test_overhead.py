"""Disabled-instrumentation overhead budget.

The tentpole requirement is that classification with instrumentation
*present but disabled* stays within 5% of an un-instrumented baseline.
A literal un-instrumented build no longer exists, so this test enforces
the budget arithmetically: it measures the real per-hook cost of the
disabled path (one ``get_tracer()``/``get_metrics()`` load, an
``enabled`` check, an inert span context, and a distributed
trace-context probe), multiplies by the number of hooks one
classification actually executes, and asserts the product is under 5%
of a measured classification — so the distributed plane's disabled cost
is inside the same budget.

The hook count is taken from the program itself: every hook starts at
``obs.get_tracer()`` or ``obs.get_metrics()``, so the test counts those
calls during one classification and bills each one a whole
representative hook.  New instrumentation raises the count with it.

The companion ``benchmarks/bench_obs_overhead.py`` reports the same
comparison as wall-clock numbers.
"""

import time
from collections import Counter
from fractions import Fraction

from repro import obs
from repro.core.ompe import OMPEFunction, execute_ompe
from repro.math.multivariate import MultivariatePolynomial
from repro.obs.distributed import current_trace_context


def _disabled_hook() -> None:
    """One representative disabled hook: exactly what the hot paths do."""
    metrics = obs.get_metrics()
    if metrics.enabled:  # pragma: no cover - disabled in this test
        metrics.counter("x").inc()
    tracer = obs.get_tracer()
    with tracer.span("x", party="alice", phase="points"):
        pass
    if current_trace_context() is not None:  # pragma: no cover - disabled
        raise AssertionError("tracing unexpectedly enabled")


def _classify(fast_config, seed: int) -> None:
    polynomial = MultivariatePolynomial.affine(
        [Fraction(3, 7), Fraction(-2, 5), Fraction(1, 6)], Fraction(1, 2)
    )
    function = OMPEFunction.from_polynomial(polynomial)
    sample = (Fraction(1, 3), Fraction(1, 4), Fraction(-1, 5))
    execute_ompe(function, sample, config=fast_config, seed=seed)


def _classification_seconds(fast_config) -> float:
    best = float("inf")
    for attempt in range(3):
        start = time.perf_counter()
        _classify(fast_config, seed=attempt)
        best = min(best, time.perf_counter() - start)
    return best


def _hooks_per_classification(fast_config, monkeypatch) -> int:
    """Calls to the two instrumentation entry points in one classification."""
    calls = Counter()

    def counting(name, entry_point):
        def counted():
            calls[name] += 1
            return entry_point()

        return counted

    with monkeypatch.context() as patch:
        patch.setattr(obs, "get_tracer", counting("tracer", obs.get_tracer))
        patch.setattr(obs, "get_metrics", counting("metrics", obs.get_metrics))
        _classify(fast_config, seed=0)
    assert calls["tracer"] and calls["metrics"], f"no hooks counted: {calls}"
    return calls["tracer"] + calls["metrics"]


def test_disabled_instrumentation_within_budget(fast_config, monkeypatch):
    assert obs.get_tracer().enabled is False
    assert obs.get_metrics().enabled is False

    iterations = 50_000
    start = time.perf_counter()
    for _ in range(iterations):
        _disabled_hook()
    per_hook_s = (time.perf_counter() - start) / iterations

    hooks = _hooks_per_classification(fast_config, monkeypatch)
    classification_s = _classification_seconds(fast_config)
    overhead_s = hooks * per_hook_s
    # The whole disabled-instrumentation bill must be under 5% of one
    # protocol run.
    assert overhead_s < 0.05 * classification_s, (
        f"{hooks} disabled hooks cost {overhead_s * 1e6:.1f}us per "
        f"classification ({per_hook_s * 1e9:.0f}ns/hook), budget is 5% of "
        f"{classification_s * 1e3:.1f}ms"
    )


def test_noop_span_allocates_nothing():
    tracer = obs.get_tracer()
    first = tracer.span("a", party="x", k=1)
    second = tracer.span("b")
    assert first is second  # the shared inert instance

    registry = obs.get_metrics()
    assert registry.counter("a") is registry.histogram("b")
