"""Cross-process trace propagation and stitching.

One protocol run may touch several processes: the client that opened
the session and the trainer-server thread that served it.  Each
process records spans into its own tracer, so a run yields
*fragments* — span trees that are complete locally but disconnected
globally.

This module joins them:

* :class:`TraceContext` — the propagation envelope (trace id + parent
  span id + string baggage).  It is a registered wire payload, carried
  inside ``session/open`` control frames.
* :func:`current_trace_context` — capture the innermost open span as a
  context to hand to a remote party (``None`` when tracing is off, so
  the disabled path stays one attribute load + one check).
* :func:`adopt_context` — mark a local span as the remote continuation
  of the context's parent span.
* :func:`stitch` — given jsonl fragments (see
  :func:`repro.obs.tracing.spans_to_jsonl`), reattach every fragment
  root under the remote parent span it names, across fragments.  Roots
  whose remote parent is missing are kept and flagged ``orphan`` —
  never dropped.

Span identity survives serialization: every span carries a
process-unique ``span_id`` and fragments reference each other only
through those ids, so stitching works regardless of which transport
(TCP or in-memory) carried the context — the conformance test in
``tests/integration/test_distributed_trace.py`` pins that the stitched
tree *structure* is transport-independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import ValidationError
from repro.obs.tracing import get_tracer
from repro.utils.serialization import register_payload_type

#: Bounds on hostile/accidental bloat in propagated contexts.
MAX_BAGGAGE_ITEMS = 16
MAX_BAGGAGE_CHARS = 256
MAX_ID_CHARS = 128


def _require_id(name: str, value: Any) -> None:
    if not isinstance(value, str) or not value or len(value) > MAX_ID_CHARS:
        raise ValidationError(
            f"trace context {name} must be a non-empty string "
            f"of at most {MAX_ID_CHARS} characters"
        )


@register_payload_type("obs/trace-context")
@dataclass(frozen=True)
class TraceContext:
    """Propagation envelope linking a remote span under a local one."""

    trace_id: str
    parent_span_id: str
    baggage: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_id("trace_id", self.trace_id)
        _require_id("parent_span_id", self.parent_span_id)
        if not isinstance(self.baggage, dict) or len(self.baggage) > MAX_BAGGAGE_ITEMS:
            raise ValidationError(
                f"trace context baggage must be a dict of at most "
                f"{MAX_BAGGAGE_ITEMS} items"
            )
        for key, value in self.baggage.items():
            if (
                not isinstance(key, str)
                or not isinstance(value, str)
                or len(key) > MAX_BAGGAGE_CHARS
                or len(value) > MAX_BAGGAGE_CHARS
            ):
                raise ValidationError(
                    "trace context baggage entries must be short strings"
                )


def current_trace_context(**baggage: str) -> Optional[TraceContext]:
    """The innermost open span as a :class:`TraceContext`, else ``None``.

    ``None`` when tracing is disabled or no span is open — callers ship
    the context only when there is something to attach to, so the wire
    format is unchanged for untraced runs.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return None
    span = tracer.current()
    if not span.enabled:
        return None
    if span.trace_id is None:
        span.trace_id = span.span_id
    return TraceContext(
        trace_id=span.trace_id,
        parent_span_id=span.span_id,
        baggage=dict(baggage),
    )


def adopt_context(span: Any, context: Optional[TraceContext]) -> None:
    """Mark ``span`` as the remote continuation of ``context``.

    No-op for ``None`` contexts and no-op spans, so call sites need no
    conditionals.  Baggage lands in the span's attributes.
    """
    if context is None or not getattr(span, "enabled", False):
        return
    span.trace_id = context.trace_id
    span.remote_parent = context.parent_span_id
    if context.baggage:
        span.set(**context.baggage)


# -- admin channel payloads ------------------------------------------------


@register_payload_type("obs/admin-health")
@dataclass(frozen=True)
class AdminHealth:
    """``admin/health`` response: live server occupancy and sessions."""

    active_connections: int
    max_connections: int
    sessions_served: int
    stopping: bool
    draining: bool
    sessions: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        for name in ("active_connections", "max_connections", "sessions_served"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValidationError(f"admin health {name} must be a non-negative int")
        if not isinstance(self.stopping, bool) or not isinstance(self.draining, bool):
            raise ValidationError("admin health flags must be booleans")
        if not isinstance(self.sessions, tuple) or any(
            not isinstance(entry, dict) for entry in self.sessions
        ):
            raise ValidationError("admin health sessions must be a tuple of dicts")


@register_payload_type("obs/admin-metrics")
@dataclass(frozen=True)
class AdminMetricsDump:
    """``admin/metrics`` response: the live registry, two renderings.

    ``prometheus`` is the text exposition format; ``snapshot_json`` is
    the JSON snapshot (:meth:`repro.obs.MetricsRegistry.snapshot`).
    """

    enabled: bool
    prometheus: str
    snapshot_json: str

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise ValidationError("admin metrics enabled must be a boolean")
        if not isinstance(self.prometheus, str) or not isinstance(
            self.snapshot_json, str
        ):
            raise ValidationError("admin metrics dumps must be strings")

    def snapshot(self) -> Dict[str, Any]:
        return json.loads(self.snapshot_json) if self.snapshot_json else {}


@register_payload_type("obs/admin-trace")
@dataclass(frozen=True)
class AdminTraceDump:
    """``admin/trace`` response: completed sessions' span fragments.

    Each entry is ``{"session", "kind", "error", "jsonl"}`` where
    ``jsonl`` is a :func:`repro.obs.tracing.spans_to_jsonl` fragment of
    that session's server-side span tree.
    """

    sessions: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.sessions, tuple) or any(
            not isinstance(entry, dict) or not isinstance(entry.get("jsonl", ""), str)
            for entry in self.sessions
        ):
            raise ValidationError("admin trace sessions must be a tuple of jsonl dicts")


# -- fragment stitching ----------------------------------------------------


class StitchedSpan:
    """One span rebuilt from a jsonl record, linked across fragments."""

    __slots__ = (
        "span_id",
        "remote_parent",
        "name",
        "party",
        "phase",
        "start_s",
        "duration_s",
        "attributes",
        "children",
        "origin",
        "orphan",
    )

    def __init__(self, record: Dict[str, Any], origin: str, local_id: Any) -> None:
        span_id = record.get("span_id")
        if not isinstance(span_id, str) or not span_id:
            # Fragments from pre-identity exports still stitch locally.
            span_id = f"{origin}:{local_id}"
        self.span_id: str = span_id
        self.remote_parent: Optional[str] = record.get("remote_parent")
        self.name: str = record.get("name", "")
        self.party = record.get("party")
        self.phase = record.get("phase")
        self.start_s: float = float(record.get("start_s", 0.0))
        self.duration_s: float = float(record.get("duration_s", 0.0))
        self.attributes: Dict[str, Any] = dict(record.get("attributes") or {})
        self.children: List["StitchedSpan"] = []
        self.origin = origin
        self.orphan = False

    def walk(self, depth: int = 0):
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StitchedSpan({self.name!r}, origin={self.origin!r}, "
            f"children={len(self.children)}, orphan={self.orphan})"
        )


def _parse_fragment(origin: str, jsonl: str) -> List[StitchedSpan]:
    """Rebuild one fragment's local trees; returns the fragment roots."""
    nodes: Dict[Any, StitchedSpan] = {}
    parents: Dict[Any, Any] = {}
    order: List[Any] = []
    for line in jsonl.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValidationError(f"malformed trace fragment line: {error}")
        if not isinstance(record, dict) or "id" not in record:
            raise ValidationError("trace fragment records must be span objects")
        local_id = record["id"]
        nodes[local_id] = StitchedSpan(record, origin, local_id)
        parents[local_id] = record.get("parent")
        order.append(local_id)
    roots: List[StitchedSpan] = []
    for local_id in order:
        parent_id = parents[local_id]
        node = nodes[local_id]
        if parent_id is not None and parent_id in nodes:
            nodes[parent_id].children.append(node)
        else:
            roots.append(node)
    return roots


def stitch(fragments: Iterable[Tuple[str, str]]) -> List[StitchedSpan]:
    """Join jsonl fragments from several processes into unified trees.

    ``fragments`` is ``(origin, jsonl)`` pairs (origin is a display
    label: ``"client"``, ``"server"``, ``"worker-3"``...).  Every
    fragment root that names a ``remote_parent`` present in *any*
    fragment is attached under that span; the rest stay top-level,
    flagged ``orphan=True`` when they wanted a parent that is missing.
    Children and top-level roots are ordered by ``(start_s, span_id)``
    so the result is deterministic and transport-independent.
    """
    all_roots: List[StitchedSpan] = []
    by_span_id: Dict[str, StitchedSpan] = {}
    for origin, jsonl in fragments:
        roots = _parse_fragment(origin, jsonl)
        all_roots.extend(roots)
        for root in roots:
            for span, _ in root.walk():
                by_span_id[span.span_id] = span

    top: List[StitchedSpan] = []
    for root in all_roots:
        parent_id = root.remote_parent
        if parent_id is None:
            top.append(root)
            continue
        parent = by_span_id.get(parent_id)
        in_own_subtree = parent is not None and any(
            span is parent for span, _ in root.walk()
        )
        if parent is None or in_own_subtree:
            # Missing parent, or a hostile fragment that would create a
            # cycle: keep the tree visible rather than dropping it.
            root.orphan = True
            top.append(root)
        else:
            parent.children.append(root)

    def sort_key(span: StitchedSpan):
        return (span.start_s, span.span_id)

    for span_node in by_span_id.values():
        span_node.children.sort(key=sort_key)
    top.sort(key=sort_key)
    return top


def render(roots: List[StitchedSpan]) -> str:
    """Human-readable indented view of stitched trees."""
    lines: List[str] = []
    for root in roots:
        for span, depth in root.walk():
            indent = "  " * depth
            label = f"{indent}{span.name}"
            origin = f" <{span.origin}>"
            flags = " [ORPHAN]" if span.orphan else ""
            error = span.attributes.get("error")
            suffix = f"  !! {error}" if error else ""
            lines.append(
                f"{label:<40s}{origin:<12s} "
                f"{span.duration_s * 1e3:9.3f} ms{flags}{suffix}"
            )
    return "\n".join(lines)
