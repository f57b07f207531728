"""Outside-in layer tracing for the end-to-end benchmark.

Each layer of the program is measured from the outside: the benchmark
wraps public functions and methods with span recorders, runs the
workload, and restores every original binding afterwards.  Nothing in
``src/`` changes, so a traced run exercises exactly the code an
untraced run does.

A target is a ``"module:qualname"`` string naming the binding a caller
actually uses.  Methods are patched on their class, so every instance
sees the wrapper; functions imported by name are patched at the
importing module (``repro.crypto.ot.one_of_n:wrap_message`` is the name
the OT code calls, not ``repro.crypto.hashing.wrap_message``).  A
target that no longer exists is skipped with a note: the metrics it fed
read 0 and the run goes on.

A span is the tuple ``(name, start, end, id, parent, thread, seed,
size, error)``.  ``start``/``end`` come from :func:`time.monotonic`,
which is one clock for every process on the host, so client and server
spans of one session line up by their shared ``seed``.  ``size`` is a
per-target quantity (OT slots, wire bytes, transcript bytes).  Spans
stay in memory and are written as JSONL when the run ends.  A layer's
self time is the duration of its spans minus the time their child spans
cover; children always nest on the caller's thread.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

FIELDS = ("name", "start", "end", "id", "parent", "thread", "seed", "size", "error")


def _slots(args, result):
    return len(args[1])  # OneOfNSender.transfer(self, messages, choice, ...)


def _returned(args, result):
    return result  # frame bytes put on the wire


def _transcript_bytes(args, result):
    return result.total_bytes


#: ``(target, span name, size extractor)``.  The span name's prefix up
#: to the first dot is the layer.
TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("repro.linkage.runner:run_linkage", "linkage.run", None),
    ("repro.linkage.runner:SerialLinkageRunner.run_chunk", "linkage.chunk", None),
    ("repro.linkage.store:LinkageResultStore.write_chunk", "linkage.store_write", None),
    ("repro.linkage.store:LinkageResultStore.scan", "linkage.store_read", None),
    ("repro.linkage.store:LinkageResultStore.load_chunk", "linkage.store_read", None),
    ("repro.linkage.runner:evaluate_similarity_private", "similarity.pair", _transcript_bytes),
    (
        "repro.linkage.runner:evaluate_similarity_private_nonlinear",
        "similarity.pair",
        _transcript_bytes,
    ),
    ("repro.core.similarity.linear:execute_ompe", "ompe.run", None),
    ("repro.core.similarity.nonlinear:execute_ompe", "ompe.run", None),
    ("repro.core.classification.linear:execute_ompe", "ompe.run", None),
    ("repro.core.classification.nonlinear:execute_ompe", "ompe.run", None),
    ("repro.net.service:run_ompe_sender", "ompe.run", None),
    ("repro.net.service:run_ompe_receiver", "ompe.run", None),
    ("repro.core.ompe.sender:OMPESender.handle_request", "ompe.mask", None),
    ("repro.core.ompe.sender:OMPESender.handle_points", "ompe.evaluate", None),
    ("repro.core.ompe.sender:OMPESender.handle_choices", "ompe.answer", None),
    ("repro.core.ompe.receiver:OMPEReceiver.handle_params", "ompe.cover", None),
    ("repro.core.ompe.receiver:OMPEReceiver.handle_ot_setups", "ompe.choose", None),
    ("repro.core.ompe.receiver:OMPEReceiver.finish", "ompe.finish", None),
    ("repro.core.ompe.function:OMPEFunction.__call__", "poly.eval", None),
    ("repro.crypto.ot.k_of_n:KOfNSender.setup", "ot.setup", None),
    ("repro.crypto.ot.k_of_n:KOfNReceiver.choose", "ot.choose", None),
    ("repro.crypto.ot.k_of_n:KOfNSender.transfer", "ot.transfer", None),
    ("repro.crypto.ot.k_of_n:KOfNReceiver.retrieve", "ot.retrieve", None),
    ("repro.crypto.ot.one_of_n:OneOfNSender.transfer", "ot.session", _slots),
    ("repro.math.groups:SchnorrGroup.exp", "groups.exp", None),
    ("repro.math.groups:SchnorrGroup.exp_g", "groups.exp_g", None),
    ("repro.math.groups:DualBaseExponentiator.key_point", "groups.key_point", None),
    ("repro.math.groups:DualBaseExponentiator.__init__", "groups.dual_build", None),
    ("repro.math.groups:FixedBaseTable.__init__", "groups.table_build", None),
    ("repro.crypto.hashing:kdf", "hashing.kdf", None),
    ("repro.crypto.ot.one_of_n:wrap_message", "hashing.wrap", None),
    ("repro.crypto.ot.one_of_n:unwrap_message", "hashing.unwrap", None),
    ("repro.core.ompe.receiver:lagrange_at_zero", "interpolation.lagrange", None),
    ("repro.core.ompe.batch:lagrange_at_zero", "interpolation.lagrange", None),
    ("repro.core.ompe.sender:encode_value", "codec.encode", None),
    ("repro.core.ompe.batch:encode_value", "codec.encode", None),
    ("repro.core.ompe.receiver:decode_value", "codec.decode", None),
    ("repro.core.ompe.batch:decode_value", "codec.decode", None),
    # The in-memory channel sizes each message with a dry-run encode.
    ("repro.net.message:encoded_payload_size", "codec.encode", None),
    ("repro.net.wire:encode_message", "codec.encode", None),
    ("repro.net.wire:decode_message", "codec.decode", None),
    ("repro.net.mux:encode_message", "codec.encode", None),
    ("repro.net.mux:decode_message", "codec.decode", None),
    ("repro.net.service:encode_message", "codec.encode", None),
    ("repro.net.service:decode_message", "codec.decode", None),
    ("repro.net.wire:WireConnection.send_frame", "wire.send", _returned),
    ("repro.net.muxserver:MuxConnection.send_frame", "wire.send", _returned),
    ("repro.net.wire:WireChannel.receive", "wire.recv", None),
    ("repro.net.mux:MuxChannel.receive", "wire.recv", None),
    ("repro.net.service:TrainerClient.classify", "service.session", None),
    ("repro.net.service:TrainerServer._serve_session", "service.session", None),
    ("repro.crypto.precompute:PrecomputeService.warm_group", "precompute.warm", None),
)

#: Root span the benchmark opens around each operation; its self time
#: is the ``other`` row of the layer table.
ROOT = "other.op"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def resolve(target: str):
    """Return ``(owner, attribute, current binding)`` for a target."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # Only attributes the class defines itself: patching an
        # inherited one would shadow it for this class alone.
        return owner, attribute, vars(owner)[attribute]
    return owner, attribute, getattr(owner, attribute)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self, targets: Sequence[Tuple[str, str, Optional[Callable]]] = TARGETS):
        self.targets = tuple(targets)
        self.spans: List[tuple] = []
        self.notes: List[str] = []
        #: Span names at least one installed target records.
        self.live = set()
        self._patches: List[Tuple[object, str, object]] = []
        self._patched = set()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def install(self, only: Optional[Iterable[str]] = None) -> "Tracer":
        """Patch every live target (or those whose span name or layer is
        in ``only``); targets already patched are left alone."""
        wanted = None if only is None else set(only)
        for target, name, sizer in self.targets:
            if wanted is not None and not wanted & {name, layer_of(name)}:
                continue
            if target in self._patched:
                continue
            try:
                owner, attribute, original = resolve(target)
            except (ImportError, AttributeError, KeyError) as error:
                self.notes.append(
                    f"missing target {target} ({type(error).__name__}: {error}); "
                    f"its {name} spans are not recorded"
                )
                self._patched.add(target)
                continue
            setattr(owner, attribute, self._wrap(original, name, sizer))
            self._patches.append((owner, attribute, original))
            self._patched.add(target)
            self.live.add(name)
        return self

    def uninstall(self) -> None:
        """Restore every original binding, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        self._patched.clear()

    def call(self, name: str, function: Callable, *args, **kwargs):
        """Run ``function`` under a benchmark-owned span."""
        return self._wrap(function, name, None)(*args, **kwargs)

    def _wrap(self, function: Callable, name: str, sizer: Optional[Callable]) -> Callable:
        spans = self.spans
        local = self._local
        ids = self._ids
        clock = time.monotonic

        @wraps(function)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.thread = threading.get_ident()
            parent_id, seed = stack[-1] if stack else (0, None)
            if isinstance(kwargs.get("seed"), int):
                seed = kwargs["seed"]
            span_id = next(ids)
            stack.append((span_id, seed))
            size = None
            error = False
            start = clock()
            try:
                result = function(*args, **kwargs)
                if sizer is not None:
                    size = sizer(args, result)
                return result
            except BaseException:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (name, start, end, span_id, parent_id, local.thread, seed, size, error)
                )

        return traced

    def write_jsonl(self, path: Path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            header = dict(meta, notes=self.notes, fields=FIELDS)
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_jsonl(path: Path) -> Tuple[dict, List[tuple]]:
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        return header, [tuple(json.loads(line)) for line in handle]


class Summary:
    """Call counts, inclusive and self seconds, sizes and errors per span name."""

    def __init__(self, spans: Iterable[tuple]) -> None:
        spans = list(spans)
        covered: Dict[int, float] = defaultdict(float)
        names: Dict[int, str] = {}
        for name, start, end, span_id, parent, *_ in spans:
            covered[parent] += end - start
            names[span_id] = name
        self._calls: Dict[str, int] = defaultdict(int)
        self._seconds: Dict[str, float] = defaultdict(float)
        self._self: Dict[str, float] = defaultdict(float)
        self._size: Dict[str, int] = defaultdict(int)
        self._errors: Dict[str, int] = defaultdict(int)
        dual_sessions = set()
        self.table_builds = 0
        for name, start, end, span_id, parent, _thread, _seed, size, error in spans:
            self._calls[name] += 1
            self._seconds[name] += end - start
            self._self[name] += end - start - covered.get(span_id, 0.0)
            self._size[name] += size or 0
            self._errors[name] += bool(error)
            if name == "groups.dual_build":
                dual_sessions.add(parent)
            elif name == "groups.table_build" and names.get(parent) != "groups.dual_build":
                self.table_builds += 1
        #: Slots of OT sessions that built dual key-derivation tables.
        self.dual_slots = sum(
            size or 0
            for name, _s, _e, span_id, _p, _t, _seed, size, _err in spans
            if name == "ot.session" and span_id in dual_sessions
        )

    def calls(self, *names: str) -> int:
        return sum(self._calls.get(name, 0) for name in names)

    def seconds(self, name: str) -> float:
        return self._seconds.get(name, 0.0)

    def self_seconds(self, name: str) -> float:
        return self._self.get(name, 0.0)

    def size(self, name: str) -> int:
        return self._size.get(name, 0)

    def errors(self, name: str) -> int:
        return self._errors.get(name, 0)

    def layer_self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for name, value in self._self.items():
            totals[layer_of(name)] += value
        return dict(totals)


#: Per-layer metrics besides ``<layer>.self_s``, which every layer has.
LAYER_METRICS: Dict[str, tuple] = {
    "linkage": (
        ("store_write_s", "s", lambda s: s.seconds("linkage.store_write")),
        ("store_read_s", "s", lambda s: s.seconds("linkage.store_read")),
        ("chunks", "count", lambda s: s.calls("linkage.chunk")),
    ),
    "similarity": (("pairs", "count", lambda s: s.calls("similarity.pair")),),
    "ompe": (
        ("runs", "count", lambda s: s.calls("ompe.run")),
        ("mask_s", "s", lambda s: s.seconds("ompe.mask")),
        ("evaluate_s", "s", lambda s: s.seconds("ompe.evaluate")),
        ("cover_s", "s", lambda s: s.seconds("ompe.cover")),
        ("finish_s", "s", lambda s: s.seconds("ompe.finish")),
    ),
    "poly": (
        ("eval_calls", "count", lambda s: s.calls("poly.eval")),
        ("eval_s", "s", lambda s: s.seconds("poly.eval")),
    ),
    "ot": (
        ("sessions", "count", lambda s: s.calls("ot.session")),
        ("slots", "count", lambda s: s.size("ot.session")),
        ("dual_slots", "count", lambda s: s.dual_slots),
        ("setup_s", "s", lambda s: s.seconds("ot.setup")),
        ("choose_s", "s", lambda s: s.seconds("ot.choose")),
        ("transfer_s", "s", lambda s: s.seconds("ot.transfer")),
        ("retrieve_s", "s", lambda s: s.seconds("ot.retrieve")),
    ),
    "groups": (
        ("exp_calls", "count", lambda s: s.calls("groups.exp")),
        ("exp_g_calls", "count", lambda s: s.calls("groups.exp_g")),
        ("key_point_calls", "count", lambda s: s.calls("groups.key_point")),
        (
            "pk_ops",
            "count",
            lambda s: s.calls("groups.exp", "groups.exp_g", "groups.key_point"),
        ),
        ("table_builds", "count", lambda s: s.table_builds),
        ("dual_builds", "count", lambda s: s.calls("groups.dual_build")),
    ),
    "hashing": (
        ("kdf_calls", "count", lambda s: s.calls("hashing.kdf")),
        ("wrap_calls", "count", lambda s: s.calls("hashing.wrap")),
        ("unwrap_calls", "count", lambda s: s.calls("hashing.unwrap")),
    ),
    "interpolation": (("calls", "count", lambda s: s.calls("interpolation.lagrange")),),
    "codec": (
        ("encode_calls", "count", lambda s: s.calls("codec.encode")),
        ("decode_calls", "count", lambda s: s.calls("codec.decode")),
        ("encode_s", "s", lambda s: s.seconds("codec.encode")),
        ("decode_s", "s", lambda s: s.seconds("codec.decode")),
    ),
    "wire": (
        ("frames_sent", "count", lambda s: s.calls("wire.send")),
        ("bytes_sent", "bytes", lambda s: s.size("wire.send")),
        ("send_s", "s", lambda s: s.seconds("wire.send")),
        ("recv_wait_s", "s", lambda s: s.self_seconds("wire.recv")),
    ),
    "service": (
        ("sessions", "count", lambda s: s.calls("service.session")),
        ("errors", "count", lambda s: s.errors("service.session")),
        ("session_s", "s", lambda s: s.seconds("service.session")),
    ),
    "precompute": (
        ("warm_calls", "count", lambda s: s.calls("precompute.warm")),
        ("warm_s", "s", lambda s: s.seconds("precompute.warm")),
    ),
    "other": (),
}

#: Layers measured in the load process, and in the server process (as
#: ``server.<layer>.*``).
CLIENT_LAYERS = (
    "linkage", "similarity", "ompe", "poly", "ot", "groups", "hashing",
    "interpolation", "codec", "wire", "service", "other",
)
SERVER_LAYERS = (
    "ompe", "poly", "ot", "groups", "hashing", "codec", "wire", "service", "precompute",
)

#: Per-layer metrics the workloads compute themselves rather than from
#: one process's spans.
WORKLOAD_METRICS = (
    ("service.admit_wait_ms_p50", "ms"),
    ("service.admit_wait_ms_p99", "ms"),
    ("trace.ops", "count"),
    ("trace.op_s", "s"),
    ("trace_overhead_pct", "%"),
)


def _layer_rows(layers: Sequence[str], prefix: str):
    for layer in layers:
        for suffix, unit, value in LAYER_METRICS[layer] + (
            ("self_s", "s", lambda s, layer=layer: s.layer_self_seconds().get(layer, 0.0)),
        ):
            yield f"{prefix}{layer}.{suffix}", f"{unit}/op", value


def metric_units() -> Dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {name: unit for name, unit, _ in _layer_rows(CLIENT_LAYERS, "")}
    units.update((name, unit) for name, unit, _ in _layer_rows(SERVER_LAYERS, "server."))
    units.update(WORKLOAD_METRICS)
    return units


def layer_metrics(summary: Summary, ops: int, server: bool = False) -> Dict[str, float]:
    """One process's span totals per traced operation (pair or session),
    so counts repeat exactly whatever the speed of the host."""
    rows = _layer_rows(SERVER_LAYERS, "server.") if server else _layer_rows(CLIENT_LAYERS, "")
    return {name: value(summary) / max(ops, 1) for name, _unit, value in rows}
