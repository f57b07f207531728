"""Zero-dependency span tracer for protocol observability.

A :class:`Span` is a named, timed region of protocol execution carrying
the party that executed it, the protocol phase it belongs to, and
arbitrary key/value attributes (``M``, ``m``, bytes on wire, ...).
Spans nest: entering a span while another is active attaches it as a
child, so one classification run produces a tree

    ompe
    ├── ompe.request        (receiver)
    ├── ompe.params         (sender)
    ├── ompe.points         (receiver)
    ├── ompe.ot_setup       (sender)     ── ot.setup
    ├── ompe.ot_choice      (receiver)   ── ot.choose
    ├── ompe.ot_transfer    (sender)     ── ot.transfer
    └── ompe.finish         (receiver)   ── ot.retrieve, ompe.interpolate

The tree is exportable as JSON-lines (:meth:`Tracer.to_jsonl`) and as a
human-readable flame summary (:meth:`Tracer.flame`).

Tracing is **off by default**: the module-level tracer is a
:class:`NoopTracer` whose ``span`` returns a shared, inert context
manager, so instrumented code costs one attribute load and one call
per hook when disabled (see ``tests/obs/test_overhead.py`` for the
enforced budget).  Enable with :func:`enable_tracing`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

# -- span identity ---------------------------------------------------------
#
# Every recorded span carries a process-unique ``span_id`` so span trees
# from *different* processes (client and server) can be stitched back
# together (:mod:`repro.obs.distributed`).  The id is a
# ``<pid-token>.<counter>`` string: the token re-derives itself in a
# forked child, and the counter increment is atomic under the GIL, so
# ids are unique across threads and processes without a lock.

_ID_COUNTER = itertools.count(1)
_TOKEN: Optional[str] = None
_TOKEN_PID: Optional[int] = None


def new_span_id() -> str:
    """A process-unique span id (fork-safe, lock-free)."""
    global _TOKEN, _TOKEN_PID
    pid = os.getpid()
    if pid != _TOKEN_PID:
        _TOKEN = f"{pid:x}-{os.urandom(3).hex()}"
        _TOKEN_PID = pid
    return f"{_TOKEN}.{next(_ID_COUNTER)}"


class Span:
    """One named, timed region with attributes and children."""

    __slots__ = (
        "name",
        "party",
        "phase",
        "attributes",
        "start_s",
        "end_s",
        "children",
        "span_id",
        "trace_id",
        "remote_parent",
        "_tracer",
    )

    enabled = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        party: Optional[str] = None,
        phase: Optional[str] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.party = party
        self.phase = phase
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.start_s: float = 0.0
        self.end_s: float = 0.0
        self.children: List["Span"] = []
        self.span_id: str = new_span_id()
        self.trace_id: Optional[str] = None
        self.remote_parent: Optional[str] = None

    # -- attributes --------------------------------------------------------

    def set(self, **attributes: Any) -> "Span":
        """Attach key/value attributes; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def add(self, key: str, amount: Any) -> None:
        """Accumulate a numeric attribute (e.g. bytes on wire)."""
        self.attributes[key] = self.attributes.get(key, 0) + amount

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Span":
        self.start_s = time.perf_counter()
        self._tracer._push(self)
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.end_s = time.perf_counter()
        self._tracer._pop(self)
        return False

    @property
    def duration_s(self) -> float:
        """Wall-clock duration (0.0 while still open)."""
        if self.end_s == 0.0:
            return 0.0
        return self.end_s - self.start_s

    def walk(self, depth: int = 0) -> Iterator[tuple]:
        """Depth-first ``(span, depth)`` iteration over this subtree."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, party={self.party!r}, phase={self.phase!r}, "
            f"duration={self.duration_s * 1e3:.3f}ms, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """Inert span: every operation is a no-op.

    A single shared instance backs the disabled tracer, so the hot path
    allocates nothing.
    """

    __slots__ = ()

    enabled = False
    name = ""
    party = None
    phase = None
    attributes: Dict[str, Any] = {}
    duration_s = 0.0
    children: List[Span] = []
    span_id = None
    trace_id = None
    remote_parent = None

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self

    def add(self, key: str, amount: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Disabled tracer: hands out the shared inert span."""

    __slots__ = ()

    enabled = False

    def span(
        self,
        name: str,
        party: Optional[str] = None,
        phase: Optional[str] = None,
        **attributes: Any,
    ) -> _NoopSpan:
        return NOOP_SPAN

    def current(self) -> _NoopSpan:
        return NOOP_SPAN


NOOP_TRACER = NoopTracer()


class Tracer:
    """Collects spans into trees.

    Thread-safe: the open-span stack is **per thread**, so spans nest
    within the thread that opened them and concurrent workloads (one
    session worker per trainer-service session) each grow their own
    root trees inside the shared tracer — appended under a lock, so no
    span is ever lost.  A span must be exited on the thread that
    entered it.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._local = threading.local()
        self._roots_lock = threading.Lock()
        self._open_stacks: Dict[int, List[Span]] = {}

    @property
    def _stack(self) -> List[Span]:
        """This thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._roots_lock:
                self._open_stacks[threading.get_ident()] = stack
        return stack

    # -- recording ---------------------------------------------------------

    def span(
        self,
        name: str,
        party: Optional[str] = None,
        phase: Optional[str] = None,
        **attributes: Any,
    ) -> Span:
        """Create a span; it starts when entered as a context manager."""
        return Span(self, name, party=party, phase=phase, attributes=attributes)

    def current(self):
        """The innermost open span on this thread (no-op span when none)."""
        stack = self._stack
        return stack[-1] if stack else NOOP_SPAN

    def _push(self, span: Span) -> None:
        stack = self._stack
        if stack:
            stack[-1].children.append(span)
        else:
            with self._roots_lock:
                self.roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()

    def open_spans(self) -> Dict[int, Span]:
        """Innermost *currently open* span per thread id.

        Live introspection for ``admin/health``: while a session worker is
        inside a protocol phase, this reports which span it is in right
        now.  Best-effort — stacks mutate concurrently — but never
        raises and never blocks the recording threads.
        """
        with self._roots_lock:
            stacks = list(self._open_stacks.items())
        out: Dict[int, Span] = {}
        for ident, stack in stacks:
            if stack:
                out[ident] = stack[-1]
        return out

    # -- queries -----------------------------------------------------------

    def spans(self) -> Iterator[tuple]:
        """Depth-first ``(span, depth)`` over every recorded tree."""
        for root in self.roots:
            yield from root.walk()

    def phases(self) -> List[str]:
        """Distinct phase labels seen, in first-seen order."""
        seen: List[str] = []
        for span, _ in self.spans():
            if span.phase is not None and span.phase not in seen:
                seen.append(span.phase)
        return seen

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per span, depth-first, parents before children."""
        with self._roots_lock:
            roots = list(self.roots)
        return spans_to_jsonl(roots)

    def flame(self) -> str:
        """Human-readable indented tree with durations and attributes."""
        lines: List[str] = []
        for span, depth in self.spans():
            indent = "  " * depth
            label = f"{indent}{span.name}"
            party = f" [{span.party}]" if span.party else ""
            attrs = ""
            if span.attributes:
                rendered = " ".join(
                    f"{key}={value}" for key, value in sorted(span.attributes.items())
                )
                attrs = f"  {{{rendered}}}"
            lines.append(
                f"{label:<34s}{party:<8s} {span.duration_s * 1e3:9.3f} ms{attrs}"
            )
        return "\n".join(lines)


def spans_to_jsonl(roots: List[Span]) -> str:
    """Serialise span trees as JSON-lines, parents before children.

    Each record carries both a *local* integer ``id``/``parent`` pair
    (compact, tree-internal) and the globally unique ``span_id`` /
    ``trace_id`` / ``remote_parent`` identity fields that
    :mod:`repro.obs.distributed` uses to stitch fragments from
    different processes into one tree.
    """
    lines = []
    ids: Dict[int, int] = {}
    parent_of: Dict[int, Optional[int]] = {}
    ordered: List[Span] = []
    for root in roots:
        stack: List[tuple] = [(root, None)]
        while stack:
            span, parent_id = stack.pop()
            local_id = len(ids) + 1
            ids[id(span)] = local_id
            parent_of[local_id] = parent_id
            ordered.append(span)
            stack.extend((child, local_id) for child in reversed(span.children))
    for span in ordered:
        local_id = ids[id(span)]
        lines.append(
            json.dumps(
                {
                    "id": local_id,
                    "parent": parent_of[local_id],
                    "span_id": span.span_id,
                    "trace_id": span.trace_id,
                    "remote_parent": span.remote_parent,
                    "name": span.name,
                    "party": span.party,
                    "phase": span.phase,
                    "start_s": span.start_s,
                    "duration_s": span.duration_s,
                    "attributes": _jsonable(span.attributes),
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines)


def _jsonable(attributes: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-safe scalars."""
    safe: Dict[str, Any] = {}
    for key, value in attributes.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[key] = value
        else:
            safe[key] = str(value)
    return safe


# -- module-level tracer (no-op unless enabled) ---------------------------

_TRACER = NOOP_TRACER


def get_tracer():
    """The active tracer (a shared no-op unless tracing is enabled)."""
    return _TRACER


def set_tracer(tracer) -> None:
    """Install a tracer (pass :data:`NOOP_TRACER` to disable)."""
    global _TRACER
    _TRACER = tracer


def enable_tracing() -> Tracer:
    """Install and return a fresh recording tracer."""
    tracer = Tracer()
    set_tracer(tracer)
    return tracer


def disable_tracing() -> None:
    """Restore the shared no-op tracer."""
    set_tracer(NOOP_TRACER)
