"""TCP trainer service: concurrent private classification and similarity.

:class:`TrainerServer` hosts a trainer's model behind a listening
socket and serves protocol sessions **concurrently** on one event loop
(:class:`~repro.net.muxserver.MuxServerLoop`): up to
``max_connections`` connection slots are acquired *before* accepting —
accept-side backpressure, so a full server leaves further clients in
the kernel backlog — and every accepted socket goes straight to the
loop.  A connection's first frame picks its wire protocol (``mux/hello``
for multiplexed v2, anything else for sequential v1); either way each
session runs on a pool of ``session_workers`` threads.
:class:`TrainerClient` dials a server and drives the client side of one
connection: each :meth:`~TrainerClient.classify` or
:meth:`~TrainerClient.evaluate_similarity` call runs one session as a
blocking call, and on a v2 connection several threads may call them at
once.  :class:`TrainerClientPool` keeps ``size`` pooled connections and
fans batches out across them on worker threads it reuses
(:meth:`~TrainerClientPool.classify_many`).

A v1 connection carries any number of sequential sessions, a v2
connection any number of concurrent ones; each is opened by a control
exchange and then executed by the role-split protocol drivers over a
fresh channel.  Sessions never share a channel: all per-session state —
channel, transcript, RNG — lives on the session worker's stack, so
concurrent sessions are bit-identical to single-client runs.  Shared
observability (the metrics registry and tracer in :mod:`repro.obs`) is
thread-safe; per-session span trees land as separate roots in the
shared tracer, losslessly.

Control messages (``session/open``, ``session/accept``,
``session/error``, ``session/close``) travel as ordinary framed
messages on the same connection but *outside* any protocol channel, so
protocol transcripts — and therefore per-phase byte accounting — stay
bit-identical to in-process runs.

**Observability plane** (all off-transcript, like ``session/*``):

* ``session/open`` may carry a
  :class:`~repro.obs.distributed.TraceContext`; the server adopts it so
  its session span stitches under the originating client span.  The
  ``session/accept`` reply carries the server-assigned session id.
* ``admin/metrics``, ``admin/health``, ``admin/trace`` frames — served
  on any connection (conventionally a dedicated one via
  :class:`AdminClient`) without consuming a session slot or budget —
  expose the live registry, pool occupancy/drain state with per-session
  phase and age, and completed sessions' span fragments.
* Per-session telemetry: session duration, per-phase wire bytes, and
  per-session byte totals land in the shared registry labelled by
  ``kind`` and ``transport`` (and ``session`` for the per-session
  total), reconciled with ``bytes_by_phase()`` — see
  :func:`repro.obs.drift.drift_from_service_metrics`.

Fault behaviour: every wait on a client is bounded by the session
timeout; a stalled or vanished client surfaces as a typed
:class:`~repro.exceptions.ProtocolError`, bumps
``repro_service_faults_total{kind=...}``, closes *that* connection, and
the server keeps serving every other one.  Transient accept-time
faults (e.g. ``EMFILE`` under descriptor pressure) are counted under
``kind="accept"`` and never stop the serve loop; only an idle timeout,
a closed listener, or :meth:`TrainerServer.stop` do.  Shutdown drains:
``stop()`` closes the listener, lets in-flight sessions finish under
the drain deadline, then force-closes whatever remains.  Clients retry
refused connections with backoff (:func:`repro.net.wire.connect`).
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.classification.linear import (
    ClassificationOutcome,
    decision_function_for_model,
)
from repro.core.ompe import OMPEConfig
from repro.core.ompe.precompute import HiddenInput
from repro.core.ompe.protocol import run_ompe_receiver, run_ompe_sender
from repro.core.similarity.linear import (
    PrivateSimilarityOutcome,
    check_pair,
    run_similarity_alice,
    run_similarity_bob,
)
from repro.core.similarity.metric import MetricParams
from repro.core.similarity.policy import OutputPolicy
from repro.core.similarity.profile import (
    ModelOrProfile,
    SimilarityProfile,
    similarity_profile,
)
from repro.exceptions import (
    BatchItemError,
    ProtocolError,
    ReproError,
    ValidationError,
)
from repro.ml.svm.model import SVMModel
from repro.net import wire
from repro.net.mux import (  # OPEN and CLOSE are re-exported
    ACCEPT,
    CLOSE,  # noqa: F401
    ERROR,
    OPEN,  # noqa: F401
    MuxChannel,
    MuxClientConnection,
    MuxRouter,
    V1ClientConnection,
)
from repro.net.muxserver import MuxConnection, MuxServerLoop
from repro.net.transcript import Transcript
from repro.net.wire import WireConnection
from repro.obs.distributed import (
    AdminHealth,
    AdminMetricsDump,
    AdminTraceDump,
    TraceContext,
    adopt_context,
    current_trace_context,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS
from repro.obs.tracing import spans_to_jsonl
from repro.utils.serialization import (
    CONTROL_SESSION_ID,
    encode_message,
)

#: Admin channel labels — request/response pairs on any connection,
#: outside any session and outside the session budget.
ADMIN_METRICS = "admin/metrics"
ADMIN_HEALTH = "admin/health"
ADMIN_TRACE = "admin/trace"

_SESSION_KINDS = ("classify", "similarity")

#: Per-session telemetry instruments.
SESSION_SECONDS = "repro_service_session_seconds"
SESSION_PHASE_BYTES = "repro_service_phase_bytes_total"
SESSION_BYTES = "repro_service_session_bytes_total"

#: Service-level fault counter; labelled by kind —
#: ``session-aborted`` (a session died mid-protocol), ``control`` (a
#: corrupted or stalled control exchange), ``accept`` (a transient
#: accept-time fault survived), ``force-closed`` (a connection cut at
#: the drain deadline).
SERVICE_FAULTS = "repro_service_faults_total"
_SERVICE_FAULTS_HELP = "Trainer service faults, by kind"

#: Sessions currently being served, labelled by the wire protocol of
#: their connection (``protocol="v1"`` sequential, ``protocol="v2"``
#: multiplexed).
SESSIONS_INFLIGHT = "repro_service_sessions_inflight"

#: Client-side wire protocol selection: ``"v1"`` (legacy sequential)
#: or ``"v2"`` (multiplexed; a peer that refuses ``mux/hello`` raises a
#: typed :class:`ProtocolError`).  Pools and the CLI always dial v2.
CLIENT_PROTOCOLS = ("v1", "v2")


def _service_fault(kind: str) -> None:
    obs.record_fault(kind, SERVICE_FAULTS, _SERVICE_FAULTS_HELP)


def _sessions_inflight(delta: float, protocol: str) -> None:
    metrics = obs.get_metrics()
    if metrics.enabled:
        metrics.gauge(
            SESSIONS_INFLIGHT,
            "Protocol sessions currently being served, by wire protocol",
        ).inc(delta, protocol=protocol)


def _annotate_session(span: Any, accept: Any) -> None:
    """Tag the client span with the server-assigned session id."""
    if not getattr(span, "enabled", False) or not isinstance(accept, dict):
        return
    session = accept.get("session")
    if isinstance(session, str):
        span.set(session=session)


def _pair_fields(request: Dict[str, Any]) -> Tuple[Any, int, MetricParams]:
    """Bob's public pair parameters in ``session/open``, read by type."""
    kernel, dimension, params = (
        request.get(field) for field in ("kernel", "dimension", "params")
    )
    if (
        "kernel" not in request
        or not (kernel is None or (type(kernel) is tuple and len(kernel) == 3))
        or type(dimension) is not int
        or not isinstance(params, MetricParams)
    ):
        raise ProtocolError(
            "session/open needs 'kernel' (None or an (a0, b0, degree) triple), "
            "an int 'dimension' and a similarity/metric-params 'params'; got "
            f"{kernel!r}, {dimension!r}, {params!r}"
        )
    return kernel, dimension, params


class _SessionEndpoint:
    """Server-side plumbing for one session on the event loop.

    The face :meth:`TrainerServer._serve_session` serves through:
    control sends and protocol channels ride the session, whose frames
    carry the v2 envelope or, on a v1 connection, none.  The *inner*
    messages are encoded identically, so both wire protocols serve
    bit-identical protocol runs through the one ``_serve_session`` path.
    """

    def __init__(
        self, server: "TrainerServer", session: Any, transport: str
    ) -> None:
        self._server = server
        self._session = session
        self.transport = transport

    def send_control(self, msg_type: str, payload: Any) -> None:
        self._session.send_control(msg_type, payload)

    def channel(self) -> MuxChannel:
        return MuxChannel("alice", "bob", self._session)

    def note_session(self, session_id: str, kind: str) -> None:
        with self._server._lock:
            self._server._live[self] = {
                "session": session_id,
                "kind": kind,
                "started_at": time.monotonic(),
                "thread": threading.get_ident(),
            }

    def clear_session(self) -> None:
        with self._server._lock:
            self._server._live.pop(self, None)


class TrainerServer:
    """Hosts one trained model; serves sessions concurrently.

    The server is the trainer — *Alice*, the OMPE sender — in every
    session.  Up to ``max_connections`` clients are connected at once;
    one event-loop thread reads them all, and sessions run on a pool of
    ``session_workers`` threads, whichever wire protocol the client
    speaks.  ``session_timeout`` bounds each wait on a client, so a
    vanished client cannot wedge a session worker forever.

    The model, config, and params are shared read-only across session
    workers; every mutable protocol object (channel, transcript, RNG)
    is created per session on its worker.  ``stop()`` performs a
    graceful drain: no new connections or sessions, in-flight sessions
    get ``drain_timeout`` seconds to finish, stragglers are
    force-closed.
    """

    #: Accept/drain poll interval.  The serve loop wakes this often to
    #: notice a stop request, an exhausted session budget, or an expired
    #: idle deadline while blocked waiting for clients.
    _POLL_S = 0.05

    def __init__(
        self,
        model: Optional[SVMModel] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[OMPEConfig] = None,
        params: Optional[MetricParams] = None,
        session_timeout: Optional[float] = 30.0,
        max_connections: int = 8,
        drain_timeout: float = 5.0,
        trace_log_size: int = 256,
        output_policy: Optional[OutputPolicy] = None,
        session_workers: int = 8,
        models: Optional[Dict[str, SVMModel]] = None,
    ) -> None:
        if max_connections < 1:
            raise ValidationError(
                f"max_connections must be at least 1, got {max_connections}"
            )
        if session_workers < 1:
            raise ValidationError(
                f"session_workers must be at least 1, got {session_workers}"
            )
        if drain_timeout < 0:
            raise ValidationError("drain_timeout must be non-negative")
        if output_policy is not None and not isinstance(
            output_policy, OutputPolicy
        ):
            raise ValidationError(
                f"output_policy must be an OutputPolicy, got {output_policy!r}"
            )
        #: Keyed model collection for similarity sessions: a client's
        #: ``session/open`` may carry ``"model": <key>`` to pick the
        #: server-side (Alice) model — the bulk-linkage TCP backend
        #: serves a whole left collection this way.  ``model`` stays the
        #: default for sessions that don't select (and for classify).
        if models is not None:
            for key, entry in models.items():
                if not isinstance(key, str) or not key:
                    raise ValidationError(
                        f"model keys must be non-empty strings, got {key!r}"
                    )
                if not isinstance(entry, SVMModel):
                    raise ValidationError(
                        f"models[{key!r}] must be an SVMModel, got {entry!r}"
                    )
        if model is None:
            if not models:
                raise ValidationError(
                    "TrainerServer needs a model (or a keyed models "
                    "collection)"
                )
            model = models[sorted(models)[0]]
        self.model = model
        self.models: Dict[str, SVMModel] = dict(models) if models else {}
        self.config = config or OMPEConfig()
        self.params = params or MetricParams()
        #: Similarity profiles of the hosted models, keyed like the
        #: session's ``model`` selector and derived on each model's first
        #: similarity session (never at start-up: classify-only servers
        #: would pay for a boundary scan they never use).
        self._profiles: Dict[Optional[str], SimilarityProfile] = {}
        #: Server-side similarity output policy.  ``None`` keeps the
        #: legacy raw output; a policy here is the server's *mandate* —
        #: every similarity session runs under it, and a client that
        #: explicitly requests a different policy is refused.
        self.output_policy = output_policy
        self.session_timeout = session_timeout
        self.max_connections = max_connections
        #: Sessions served at once, over every connection and both wire
        #: protocols: the size of the worker pool the protocol math runs
        #: on.  Independent of ``max_connections``: an idle connection
        #: costs the event loop nothing but a socket.
        self.session_workers = session_workers
        self.drain_timeout = drain_timeout
        self._function = decision_function_for_model(model)
        self._socket = wire.listen(host, port, backlog=max(4, max_connections))
        self._lock = threading.Lock()
        self._served = 0
        self._remaining: Optional[int] = None  # session budget (under lock)
        self._target: Optional[int] = None  # served count that ends the loop
        self._slots = threading.BoundedSemaphore(max_connections)
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self._budget_done = threading.Event()
        self._serve_done = threading.Event()
        self._serve_done.set()  # no serve loop running yet
        self._session_ids = itertools.count(1)
        #: The event loop every connection is served on; built on the
        #: first connection and retired by each drain.
        self._mux: Optional[MuxServerLoop] = None
        #: Live sessions by endpoint, for ``admin/health`` (under lock).
        self._live: Dict[_SessionEndpoint, Dict[str, Any]] = {}
        #: Completed sessions' span fragments, newest last, bounded.
        self._trace_log: "collections.deque" = collections.deque(
            maxlen=max(1, trace_log_size)
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolved even when ``port=0``."""
        return self._socket.getsockname()[:2]

    @property
    def sessions_served(self) -> int:
        """Sessions completed successfully, across all connections."""
        with self._lock:
            return self._served

    @property
    def active_connections(self) -> int:
        """Connections currently held by the event loop."""
        with self._lock:
            mux = self._mux
        return mux.connection_count if mux is not None else 0

    def close(self) -> None:
        """Close the listening socket (unblocks a running serve loop)."""
        self._socket.close()

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Gracefully stop serving and wait for the drain to finish.

        Ordering: (1) refuse new sessions and close the listener, so no
        further connection is accepted; (2) in-flight sessions run to
        completion under the drain deadline (``drain_timeout`` here
        overrides the server's default); (3) any connection still busy
        at the deadline is force-closed (counted under
        ``repro_service_faults_total{kind="force-closed"}``).  Returns
        once the serve loop — if one is running — has fully drained.
        """
        if drain_timeout is not None:
            self.drain_timeout = drain_timeout
        self._stopping.set()
        self.close()
        if self._serve_done.is_set():
            # No serve loop to run the drain for us (connections served
            # directly via :meth:`serve_connection`): drain here.
            self._drain()
        else:
            self._serve_done.wait(timeout=self.drain_timeout + 10.0)

    def __enter__(self) -> "TrainerServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving -------------------------------------------------------------

    def serve_forever(
        self,
        max_sessions: Optional[int] = None,
        accept_timeout: Optional[float] = None,
    ) -> int:
        """Accept and serve connections until ``max_sessions`` complete.

        Connections are served concurrently (up to ``max_connections``
        at once); ``max_sessions`` counts *completed* sessions across
        all of them.  ``accept_timeout`` is an idle deadline: the loop
        stops once that long passes without a new connection.  A faulty
        connection is closed and counted as a fault, not a served
        session; the loop continues serving everyone else.  Returns the
        total number of sessions served.
        """
        if max_sessions is not None and max_sessions < 1:
            raise ValidationError(
                f"max_sessions must be at least 1, got {max_sessions}"
            )
        with self._lock:
            self._remaining = max_sessions
            self._target = (
                None if max_sessions is None else self._served + max_sessions
            )
        self._budget_done.clear()
        self._draining.clear()
        self._serve_done.clear()
        idle_deadline = (
            None if accept_timeout is None
            else time.monotonic() + accept_timeout
        )
        try:
            while not (self._stopping.is_set() or self._budget_done.is_set()):
                # Backpressure: take a connection slot *before* accepting.
                if not self._slots.acquire(timeout=self._POLL_S):
                    continue
                accepted = False
                try:
                    try:
                        connection = wire.accept(
                            self._socket,
                            timeout=self._POLL_S,
                            connection_timeout=self.session_timeout,
                        )
                    except wire.AcceptTimeout:
                        if (
                            idle_deadline is not None
                            and time.monotonic() >= idle_deadline
                        ):
                            break  # nobody showed up — stop request
                        continue
                    except wire.ListenerClosed:
                        break  # closed from another thread — stop request
                    except ProtocolError:
                        # Transient accept fault (EMFILE, aborted
                        # handshake, ...): keep serving.
                        _service_fault("accept")
                        continue
                    accepted = True
                finally:
                    if not accepted:
                        self._slots.release()
                if accept_timeout is not None:
                    idle_deadline = time.monotonic() + accept_timeout
                # The loop holds the slot until the connection closes.
                self._mux_loop().adopt(
                    connection.detach(), on_closed=self._slots.release
                )
        finally:
            self._drain()
            self._serve_done.set()
        return self.sessions_served

    def serve_connection(self, connection: WireConnection) -> None:
        """Serve one pre-established connection on the calling thread.

        The transport-agnostic entry point: hand it one end of a
        :func:`repro.net.wire.memory_pair` (or an accepted socket) and
        its frames feed the same per-connection state machine —
        sessions, admin frames, slot accounting, either wire protocol —
        as connections accepted by :meth:`serve_forever`.  Returns when
        the peer closes or a fault drops the connection, once its
        sessions have finished.
        """
        if self._stopping.is_set():
            raise ProtocolError("server is stopping; connection refused")
        self._slots.acquire()
        self._mux_loop().serve(connection, on_closed=self._slots.release)

    def _mux_loop(self) -> MuxServerLoop:
        with self._lock:
            if self._mux is None:
                self._mux = MuxServerLoop(
                    session_handler=self._run_mux_session,
                    control_handler=self._serve_admin,
                    service_fault=_service_fault,
                    router_factory=MuxRouter,
                    session_workers=self.session_workers,
                    session_timeout=self.session_timeout,
                )
            return self._mux

    def _run_mux_session(
        self, conn: MuxConnection, session: Any, request: Any
    ) -> bool:
        """Serve one session on a session-worker thread; True on success.

        The shared ``_serve_session`` path does the protocol work; this
        wrapper owns the accounting and fault containment — a session
        that fails with any exception, typed or not, returns its slot,
        counts a fault and answers with a ``session/error`` frame on its
        own id naming the exception type (the event loop then closes a
        v1 connection; a v2 connection's other sessions keep running).
        """
        protocol = conn.mode
        if not self._begin_session(protocol):
            try:
                session.send_control(
                    ERROR, "server is stopping or out of session budget"
                )
            except ReproError:
                pass
            return False
        endpoint = _SessionEndpoint(self, session, conn.transport)
        try:
            self._serve_session(endpoint, request)
        except Exception as error:  # noqa: BLE001 — every failure ends this session alone
            if not isinstance(error, ReproError):
                traceback.print_exc()  # a bug, not a peer fault
            self._abort_session(protocol)
            _service_fault("session-aborted")
            try:
                session.send_control(ERROR, f"{type(error).__name__}: {error}")
            except ReproError:
                pass  # the connection (or session) is already gone
            return False
        finally:
            endpoint.clear_session()
        self._finish_session(protocol)
        return True

    # -- session accounting (shared across session workers) ------------------

    def _begin_session(self, protocol: str) -> bool:
        """Claim a session slot; False once stopping/draining/out of budget."""
        with self._lock:
            if self._stopping.is_set() or self._draining.is_set():
                return False
            if self._remaining is not None:
                if self._remaining <= 0:
                    return False
                self._remaining -= 1
        _sessions_inflight(1, protocol)
        return True

    def _abort_session(self, protocol: str) -> None:
        """Return a claimed slot: a failed session is a fault, not served."""
        with self._lock:
            if self._remaining is not None:
                self._remaining += 1
        _sessions_inflight(-1, protocol)

    def _finish_session(self, protocol: str) -> None:
        with self._lock:
            self._served += 1
            if self._target is not None and self._served >= self._target:
                self._budget_done.set()
        _sessions_inflight(-1, protocol)

    def _drain(self) -> None:
        """Drain in-flight sessions, then force-close the stragglers.

        Runs once the serve loop stops accepting.  From here on every
        new session is refused; the event loop keeps serving in-flight
        ones until the drain deadline, then force-closes whatever is
        still running and closes every connection.
        """
        self._draining.set()
        with self._lock:
            mux, self._mux = self._mux, None
        if mux is not None:
            mux.shutdown(drain_timeout=self.drain_timeout)

    # -- one session ---------------------------------------------------------

    def _serve_session(self, endpoint: Any, request: Any) -> None:
        """Serve one session through a protocol-agnostic endpoint.

        ``endpoint`` is a :class:`_SessionEndpoint` on a v1 or a v2
        connection — the single shared code path is what makes v2
        sessions bit-identical to v1 by construction.
        """
        if not isinstance(request, dict):
            raise ProtocolError("session/open payload must be a mapping")
        kind = request.get("kind")
        if kind not in _SESSION_KINDS:
            raise ProtocolError(
                f"unknown session kind {kind!r}; supported: {_SESSION_KINDS}"
            )
        seed = request.get("seed")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise ProtocolError("session seed must be an int or None")
        trace_context = request.get("trace")
        if trace_context is not None and not isinstance(trace_context, TraceContext):
            raise ProtocolError("session/open 'trace' must be a trace context")
        transport = endpoint.transport
        session_id = f"s{next(self._session_ids)}"
        endpoint.note_session(session_id, kind)
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_service_sessions_total",
                "Trainer service sessions served, by kind",
            ).inc(kind=kind)
        span = obs.get_tracer().span(
            "service.session",
            party="alice",
            phase="service",
            kind=kind,
            transport=transport,
            session=session_id,
        )
        adopt_context(span, trace_context)
        started = time.monotonic()
        transcripts: List[Transcript] = []
        error_text: Optional[str] = None
        try:
            with span:
                if kind == "classify":
                    self._serve_classify(endpoint, seed, session_id, transcripts)
                else:
                    self._serve_similarity(
                        endpoint, request, seed, session_id, transcripts
                    )
        except Exception as error:
            error_text = f"{type(error).__name__}: {error}"
            if span.enabled:
                span.set(error=error_text)
            raise
        finally:
            self._record_session(
                session_id, kind, transport, started, transcripts, span, error_text
            )

    def _record_session(
        self,
        session_id: str,
        kind: str,
        transport: str,
        started: float,
        transcripts: List[Transcript],
        span: Any,
        error_text: Optional[str],
    ) -> None:
        """Per-session telemetry + the trace log entry, success or not."""
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.histogram(
                SESSION_SECONDS,
                "Trainer service session duration in seconds",
                buckets=DEFAULT_LATENCY_BUCKETS,
            ).observe(time.monotonic() - started, kind=kind, transport=transport)
            phase_counter = metrics.counter(
                SESSION_PHASE_BYTES,
                "Per-phase protocol wire bytes served, by session kind",
            )
            session_bytes = 0
            for transcript in transcripts:
                for phase, count in transcript.bytes_by_phase().items():
                    phase_counter.inc(
                        count, phase=phase, kind=kind, transport=transport
                    )
                    session_bytes += count
            metrics.counter(
                SESSION_BYTES,
                "Protocol wire bytes served, by session",
            ).inc(session_bytes, session=session_id, kind=kind, transport=transport)
        # Keyed on the span, not the live tracer: the session was traced
        # iff its span is real, even if tracing was toggled off since.
        if getattr(span, "enabled", False):
            self._trace_log.append(
                {
                    "session": session_id,
                    "kind": kind,
                    "error": error_text,
                    "jsonl": spans_to_jsonl([span]),
                }
            )

    def _serve_classify(
        self,
        endpoint: Any,
        seed: Optional[int],
        session_id: str,
        transcripts: List[Transcript],
    ) -> None:
        endpoint.send_control(
            ACCEPT,
            {
                "dimension": self.model.dimension,
                "degree": self._function.total_degree,
                "session": session_id,
            },
        )
        channel = endpoint.channel()
        transcripts.append(channel.transcript)
        run_ompe_sender(
            self._function,
            channel,
            config=self.config,
            seed=seed,
            amplify=True,
            offset=False,
            name="alice",
        )

    def _serve_similarity(
        self,
        endpoint: Any,
        request: Any,
        seed: Optional[int],
        session_id: str,
        transcripts: List[Transcript],
    ) -> None:
        model_key = request.get("model")
        if model_key is None:
            serving = self.model
        else:
            if not isinstance(model_key, str):
                raise ProtocolError(
                    f"session/open 'model' must be a string key, got "
                    f"{model_key!r}"
                )
            serving = self.models.get(model_key)
            if serving is None:
                raise ProtocolError(
                    f"unknown server model {model_key!r}; this server hosts "
                    f"{sorted(self.models) if self.models else ['<default>']}"
                )
        requested = request.get("policy")
        if requested is not None and not isinstance(requested, OutputPolicy):
            raise ProtocolError(
                "session/open 'policy' must be a similarity/output-policy "
                f"payload, got {requested!r}"
            )
        effective = requested if requested is not None else self.output_policy
        if (
            requested is not None
            and self.output_policy is not None
            and requested != self.output_policy
        ):
            raise ProtocolError(
                f"server mandates output policy "
                f"{self.output_policy.label!r}; refusing requested "
                f"{requested.label!r}"
            )
        # Bob's pair is refused before his clear norms leave.
        pair = _pair_fields(request)
        profile = self._similarity_profile(model_key, serving)
        try:
            check_pair(profile, *pair)
        except ReproError as error:
            raise ProtocolError(str(error)) from error
        # The accept echo is the negotiation result: the client applies
        # exactly the echoed policy, so a server-mandated policy
        # propagates even when the client requested nothing.
        endpoint.send_control(
            ACCEPT,
            {
                "session": session_id,
                "policy": effective,
                "model": model_key,
            },
        )
        if effective is not None and obs.get_metrics().enabled:
            from repro.core.privacy.leakage import record_leakage

            record_leakage(effective, 1)

        def factory():
            channel = endpoint.channel()
            transcripts.append(channel.transcript)
            return channel

        run_similarity_alice(
            profile, factory, params=self.params, config=self.config, seed=seed
        )

    def _similarity_profile(
        self, model_key: Optional[str], model: SVMModel
    ) -> SimilarityProfile:
        profile = self._profiles.get(model_key)
        if profile is None:
            # Racing first sessions may both derive it; setdefault keeps
            # one instance for every later session.
            profile = self._profiles.setdefault(
                model_key, similarity_profile(model, self.params, party="alice")
            )
        return profile

    # -- admin channel --------------------------------------------------------

    def _serve_admin(
        self, conn: MuxConnection, msg_type: str, request: Any
    ) -> None:
        """Answer one ``admin/*`` request on control session 0."""

        def reply(payload: Any) -> None:
            # Runs on the event loop thread: bound the send.
            conn.send_message(
                CONTROL_SESSION_ID,
                encode_message(msg_type, payload),
                deadline_s=2.0,
            )

        if msg_type == ADMIN_METRICS:
            metrics = obs.get_metrics()
            if metrics.enabled:
                dump = AdminMetricsDump(
                    enabled=True,
                    prometheus=metrics.to_prometheus(),
                    snapshot_json=metrics.to_json(),
                )
            else:
                dump = AdminMetricsDump(enabled=False, prometheus="", snapshot_json="")
            reply(dump)
        elif msg_type == ADMIN_HEALTH:
            reply(self._health())
        else:
            session = None
            if isinstance(request, dict):
                session = request.get("session")
                if session is not None and not isinstance(session, str):
                    raise ProtocolError("admin/trace 'session' must be a string")
            entries = [
                dict(entry)
                for entry in list(self._trace_log)
                if session is None or entry["session"] == session
            ]
            reply(AdminTraceDump(tuple(entries)))

    def _health(self) -> AdminHealth:
        """A point-in-time occupancy/drain snapshot for ``admin/health``."""
        tracer = obs.get_tracer()
        open_by_thread = tracer.open_spans() if tracer.enabled else {}
        now = time.monotonic()
        with self._lock:
            live = [dict(entry) for entry in self._live.values()]
            served = self._served
            mux = self._mux
        sessions = []
        for entry in live:
            item: Dict[str, Any] = {
                "session": entry["session"],
                "kind": entry["kind"],
                "age_s": now - entry["started_at"],
            }
            span = open_by_thread.get(entry["thread"])
            if span is not None:
                item["span"] = span.name
                item["phase"] = span.phase
            sessions.append(item)
        return AdminHealth(
            active_connections=mux.connection_count if mux is not None else 0,
            max_connections=self.max_connections,
            sessions_served=served,
            stopping=self._stopping.is_set(),
            draining=self._draining.is_set(),
            sessions=tuple(sessions),
        )


def _dial(
    who: str,
    host: Optional[str],
    port: Optional[int],
    connection: Optional[WireConnection],
    protocol: str,
    timeout: Optional[float],
    attempts: int,
    retry_delay_s: float,
) -> Union[V1ClientConnection, MuxClientConnection]:
    """Connect (unless handed ``connection``) and negotiate the protocol.

    Returns a :class:`~repro.net.mux.V1ClientConnection` or a
    :class:`~repro.net.mux.MuxClientConnection`; both open sessions and
    carry control requests through one interface.  A peer that refuses
    the v2 upgrade raises :class:`ProtocolError`; nothing is redialed.
    """
    if protocol not in CLIENT_PROTOCOLS:
        raise ValidationError(
            f"protocol must be one of {CLIENT_PROTOCOLS}, got {protocol!r}"
        )
    if connection is None:
        if host is None or port is None:
            raise ValidationError(f"{who} needs host and port (or a connection)")
        connection = wire.connect(
            host, port, timeout=timeout,
            attempts=attempts, retry_delay_s=retry_delay_s,
        )
    if protocol == "v1":
        return V1ClientConnection(connection)
    try:
        return MuxClientConnection(connection, timeout=timeout)
    except ProtocolError:
        connection.close()
        raise


class TrainerClient:
    """Client (Bob) side of the trainer service — one connection.

    Pass ``connection`` (e.g. one end of
    :func:`repro.net.wire.memory_pair`) to drive a pre-established
    connection instead of dialing ``host:port``.

    ``protocol`` selects the wire protocol: ``"v1"`` (default, the
    legacy sequential connection: one session at a time) or ``"v2"``
    (session-multiplexed: any number of threads may call
    :meth:`classify` / :meth:`evaluate_similarity` at once, each
    running its own session over this one connection; a server that
    refuses the upgrade raises :class:`ProtocolError`).
    Protocol runs are bit-identical across v1 and v2 for the same
    seed.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        config: Optional[OMPEConfig] = None,
        params: Optional[MetricParams] = None,
        timeout: Optional[float] = 30.0,
        attempts: int = 5,
        retry_delay_s: float = 0.05,
        connection: Optional[WireConnection] = None,
        protocol: str = "v1",
    ) -> None:
        self.config = config or OMPEConfig()
        self.params = params or MetricParams()
        self._connection = _dial(
            "TrainerClient", host, port, connection, protocol,
            timeout, attempts, retry_delay_s,
        )
        #: The negotiated wire protocol ("v1" or "v2").
        self.protocol: str = self._connection.protocol

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "TrainerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sessions ------------------------------------------------------------

    def classify(
        self, sample: Sequence[float], seed: Optional[int] = None
    ) -> ClassificationOutcome:
        """Privately classify one sample against the server's model.

        Given the same seed, the result — label, masked value
        ``r_a·d(t̃)``, and per-phase byte counts — is bit-identical to
        an in-process :func:`~repro.core.classification.private_classify`
        against the same model, on either wire protocol.  Sessions run
        concurrently when several threads call this on one protocol-v2
        client.
        """
        sample = tuple(sample)
        with obs.get_tracer().span(
            "service.classify", party="bob", phase="service"
        ) as span:
            request: Dict[str, Any] = {"kind": "classify", "seed": seed}
            context = current_trace_context()
            if context is not None:
                request["trace"] = context
            session = None
            try:
                session = self._connection.open_session(request)
                _, accept = session.recv_control(ACCEPT)
                if not isinstance(accept, dict) or not isinstance(
                    accept.get("dimension"), int
                ):
                    raise ProtocolError(
                        "session/accept payload is missing an integer "
                        f"'dimension' field: {accept!r}"
                    )
                _annotate_session(span, accept)
                dimension = accept["dimension"]
                if len(sample) != dimension:
                    raise ValidationError(
                        f"sample has {len(sample)} coordinates, server model "
                        f"expects {dimension}"
                    )
                channel = MuxChannel("bob", "alice", session)
                outcome = run_ompe_receiver(
                    sample, channel, config=self.config, seed=seed, name="bob"
                )
                session.finish()
            except ReproError as error:
                if session is not None:
                    session.cancel(f"{type(error).__name__}: {error}")
                if span.enabled:
                    span.set(error=f"{type(error).__name__}: {error}")
                raise
        return ClassificationOutcome.from_ompe(outcome)

    def evaluate_similarity(
        self,
        model: ModelOrProfile,
        seed: Optional[int] = None,
        policy: Optional[OutputPolicy] = None,
        server_model: Optional[str] = None,
        dots_hidden: Optional[HiddenInput] = None,
    ) -> PrivateSimilarityOutcome:
        """Compare the client's model (or its profile) against the server's.

        The client learns the triangle metric ``T``; the server learns
        only the inseparable clear norms, exactly as in the in-process
        protocol.  ``policy`` requests an output policy for this
        session; the *echoed* policy from ``session/accept`` — which
        may be the server's mandated default when ``policy`` is
        ``None`` — is what gets applied, so a non-raw negotiation
        returns a mitigated outcome instead of the raw one.
        ``server_model`` selects one key of a multi-model server's
        collection as the server-side model (``None`` keeps the
        server's default).  ``dots_hidden`` is the model's OMPE #1/#2
        input hidden before the session
        (:func:`~repro.core.similarity.linear.hide_dots_input`).
        """
        if policy is not None and not isinstance(policy, OutputPolicy):
            raise ValidationError(
                f"policy must be an OutputPolicy, got {policy!r}"
            )
        with obs.get_tracer().span(
            "service.similarity", party="bob", phase="service"
        ) as span:
            profile = similarity_profile(model, self.params, party="bob")
            request: Dict[str, Any] = {
                "kind": "similarity",
                "seed": seed,
                "kernel": profile.kernel,
                "dimension": profile.dimension,
                "params": profile.params,
                "policy": policy,
            }
            if server_model is not None:
                if not isinstance(server_model, str):
                    raise ValidationError(
                        f"server_model must be a string key, got "
                        f"{server_model!r}"
                    )
                request["model"] = server_model
            context = current_trace_context()
            if context is not None:
                request["trace"] = context
            session = None
            try:
                session = self._connection.open_session(request)
                _, accept = session.recv_control(ACCEPT)
                if not isinstance(accept, dict):
                    raise ProtocolError(
                        f"session/accept payload must be a mapping: {accept!r}"
                    )
                # The pair is fixed by session/open; a server that still
                # echoes a 'linear' flag picks its driver by that flag.
                if "linear" in accept:
                    raise ProtocolError(
                        "session/accept carries no 'linear' flag (the pair "
                        "is fixed by session/open), got "
                        f"{accept['linear']!r}"
                    )
                echoed = accept.get("policy")
                if echoed is not None and not isinstance(echoed, OutputPolicy):
                    raise ProtocolError(
                        "session/accept 'policy' must be a "
                        f"similarity/output-policy payload, got {echoed!r}"
                    )
                if policy is not None and echoed != policy:
                    raise ProtocolError(
                        f"server accepted policy "
                        f"{echoed.label if echoed else None!r} instead of "
                        f"the requested {policy.label!r}"
                    )
                if (
                    server_model is not None
                    and accept.get("model") != server_model
                ):
                    raise ProtocolError(
                        f"server accepted model {accept.get('model')!r} "
                        f"instead of the requested {server_model!r}"
                    )
                _annotate_session(span, accept)
                outcome = run_similarity_bob(
                    profile, lambda: MuxChannel("bob", "alice", session),
                    params=self.params, config=self.config, seed=seed,
                    policy=echoed, dots_hidden=dots_hidden,
                )
                session.finish()
                return outcome
            except ReproError as error:
                if session is not None:
                    session.cancel(f"{type(error).__name__}: {error}")
                if span.enabled:
                    span.set(error=f"{type(error).__name__}: {error}")
                raise


class AdminClient:
    """Drives the ``admin/*`` channel on a dedicated connection.

    Admin requests are ordinary framed control messages — no auth; the
    server binds to ``127.0.0.1`` by default, and deployments that bind
    wider must firewall the port (see PROTOCOL.md).  Like
    :class:`TrainerClient`, pass ``connection`` to reuse a
    pre-established endpoint instead of dialing.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = 10.0,
        attempts: int = 5,
        retry_delay_s: float = 0.05,
        connection: Optional[WireConnection] = None,
        protocol: str = "v1",
    ) -> None:
        self._connection = _dial(
            "AdminClient", host, port, connection, protocol,
            timeout, attempts, retry_delay_s,
        )
        self.protocol: str = self._connection.protocol

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "AdminClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(self, msg_type: str, payload: Any) -> Any:
        # On v2, admin traffic rides the reserved control session (id 0),
        # so it never contends with protocol sessions for an id.
        reply_type, response = self._connection.control_request(
            msg_type, payload
        )
        if reply_type != msg_type:
            raise ProtocolError(
                f"expected control message {msg_type!r}, got {reply_type!r}"
            )
        return response

    def metrics(self) -> AdminMetricsDump:
        """The server's live metrics registry (Prometheus + JSON)."""
        response = self._request(ADMIN_METRICS, None)
        if not isinstance(response, AdminMetricsDump):
            raise ProtocolError(f"malformed admin/metrics response: {response!r}")
        return response

    def health(self) -> AdminHealth:
        """Occupancy, drain state, and live per-session phase/age."""
        response = self._request(ADMIN_HEALTH, None)
        if not isinstance(response, AdminHealth):
            raise ProtocolError(f"malformed admin/health response: {response!r}")
        return response

    def trace(self, session: Optional[str] = None) -> AdminTraceDump:
        """Completed sessions' span fragments (optionally one session)."""
        payload = None if session is None else {"session": session}
        response = self._request(ADMIN_TRACE, payload)
        if not isinstance(response, AdminTraceDump):
            raise ProtocolError(f"malformed admin/trace response: {response!r}")
        return response


class TrainerClientPool:
    """``size`` pooled protocol-v2 connections with batched fan-out.

    Each pooled connection is a multiplexed :class:`TrainerClient`, so
    sessions never need a connection to themselves.
    :meth:`classify_many` runs up to ``pipeline`` concurrent sessions
    *per connection* across the pool, on ``size × pipeline`` worker
    threads started once and reused by every batch, and returns
    outcomes in input order — with pinned seeds the results are
    bit-identical to running the batch sequentially on one client.  A
    small pool thus drives a large session fan-out.
    """

    def __init__(
        self,
        host: str,
        port: int,
        size: int = 4,
        config: Optional[OMPEConfig] = None,
        params: Optional[MetricParams] = None,
        timeout: Optional[float] = 30.0,
        attempts: int = 5,
        retry_delay_s: float = 0.05,
        pipeline: int = 16,
    ) -> None:
        if size < 1:
            raise ValidationError(f"pool size must be at least 1, got {size}")
        if pipeline < 1:
            raise ValidationError(
                f"pipeline depth must be at least 1, got {pipeline}"
            )
        self.size = size
        self.pipeline = pipeline
        self._clients: List[TrainerClient] = []
        self._next = itertools.count()
        self._workers = ThreadPoolExecutor(
            max_workers=size * pipeline, thread_name_prefix="pool-session"
        )
        try:
            for _ in range(size):
                self._clients.append(TrainerClient(
                    host, port, config=config, params=params,
                    timeout=timeout, attempts=attempts,
                    retry_delay_s=retry_delay_s, protocol="v2",
                ))
        except ReproError:
            self.close()
            raise

    def close(self) -> None:
        self._workers.shutdown()
        for client in self._clients:
            try:
                client.close()
            except ReproError:
                pass
        self._clients = []

    def __enter__(self) -> "TrainerClientPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _client(self) -> TrainerClient:
        """The next pooled connection, round-robin."""
        return self._clients[next(self._next) % len(self._clients)]

    # -- sessions ------------------------------------------------------------

    def classify(
        self, sample: Sequence[float], seed: Optional[int] = None
    ) -> ClassificationOutcome:
        """Classify one sample on a pooled connection."""
        return self._client().classify(sample, seed=seed)

    def evaluate_similarity(
        self,
        model: SVMModel,
        seed: Optional[int] = None,
        policy: Optional[OutputPolicy] = None,
    ) -> PrivateSimilarityOutcome:
        """Run one similarity session on a pooled connection."""
        return self._client().evaluate_similarity(
            model, seed=seed, policy=policy
        )

    @staticmethod
    def _seed_list(
        seeds: Optional[Sequence[Optional[int]]], count: int, what: str
    ) -> List[Optional[int]]:
        if seeds is None:
            return [None] * count
        seed_list = list(seeds)
        if len(seed_list) != count:
            raise ValidationError(
                f"got {count} {what} but {len(seed_list)} seeds"
            )
        return seed_list

    @staticmethod
    def _item_list(
        items: Optional[Sequence[Any]], count: int, what: str
    ) -> List[Any]:
        """One entry per model: ``items`` as a list, or ``None`` each."""
        if items is None:
            return [None] * count
        item_list = list(items)
        if len(item_list) != count:
            raise ValidationError(
                f"got {count} models but {len(item_list)} {what}"
            )
        return item_list

    def classify_many(
        self,
        samples: Sequence[Sequence[float]],
        seeds: Optional[Sequence[Optional[int]]] = None,
        return_errors: bool = False,
    ) -> List[Any]:
        """Classify a batch across the pool; outcomes keep input order.

        ``seeds`` pins one seed per sample (``None`` entries let the
        protocol draw fresh randomness).  By default the first failure
        is re-raised after the whole batch has been attempted, so one
        bad sample cannot silently drop its neighbours' results; with
        ``return_errors=True`` failed positions hold a typed
        :class:`~repro.exceptions.BatchItemError` instead (its
        ``__cause__`` is the underlying failure) and nothing raises.
        """
        samples = [tuple(sample) for sample in samples]
        seed_list = self._seed_list(seeds, len(samples), "samples")

        def run(client: TrainerClient, index: int) -> ClassificationOutcome:
            return client.classify(samples[index], seed=seed_list[index])

        return self._fan_out(len(samples), run, return_errors)

    def evaluate_similarity_many(
        self,
        models: Sequence[ModelOrProfile],
        seeds: Optional[Sequence[Optional[int]]] = None,
        policy: Optional[OutputPolicy] = None,
        server_models: Optional[Sequence[Optional[str]]] = None,
        return_errors: bool = False,
        dots_hidden: Optional[Sequence[Optional[HiddenInput]]] = None,
    ) -> List[Any]:
        """Run a batch of similarity sessions; outcomes keep input order.

        The similarity twin of :meth:`classify_many` — this is the
        fan-out the bulk-linkage TCP backend drives.  ``server_models``
        optionally names, per item, which key of a multi-model server's
        collection serves as the server-side model, and ``dots_hidden``
        each item's OMPE #1/#2 input hidden before the batch (see
        :meth:`TrainerClient.evaluate_similarity`).  Error semantics
        match :meth:`classify_many`, including ``return_errors``.
        """
        models = list(models)
        seed_list = self._seed_list(seeds, len(models), "models")
        key_list = self._item_list(server_models, len(models), "server_models")
        hidden_list = self._item_list(dots_hidden, len(models), "hidden inputs")

        def run(client: TrainerClient, index: int) -> PrivateSimilarityOutcome:
            return client.evaluate_similarity(
                models[index],
                seed=seed_list[index],
                policy=policy,
                server_model=key_list[index],
                dots_hidden=hidden_list[index],
            )

        return self._fan_out(len(models), run, return_errors)

    # -- batched fan-out -------------------------------------------------------

    def _fan_out(
        self, count: int, run: Any, return_errors: bool
    ) -> List[Any]:
        """Run ``count`` sessions over the pooled connections.

        Item ``i`` runs on connection ``i mod size`` on one of the
        pool's worker threads, so at most ``size × pipeline`` sessions
        are in flight.  Failures never scramble or drop neighbours:
        every item's outcome (or typed error) lands at its own index.
        Each session bounds its own waits by the connection timeout
        and cancels itself on failure, freeing its server slot.
        """
        clients = self._clients
        errors: List[Tuple[int, BaseException]] = []

        def attempt(index: int) -> Any:
            try:
                return run(clients[index % len(clients)], index)
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append((index, error))
                return self._batch_error(index, error)

        results = list(self._workers.map(attempt, range(count)))
        return self._finish_batch(results, errors, return_errors)

    @staticmethod
    def _batch_error(index: int, error: BaseException) -> BatchItemError:
        wrapped = BatchItemError(index, f"{type(error).__name__}: {error}")
        wrapped.__cause__ = error
        return wrapped

    @staticmethod
    def _finish_batch(
        results: List[Any],
        errors: List[Tuple[int, BaseException]],
        return_errors: bool,
    ) -> List[Any]:
        if errors and not return_errors:
            _, error = min(errors, key=lambda pair: pair[0])
            raise error
        return results
