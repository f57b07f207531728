"""The trainer server's event loop: every connection, both wire protocols.

One :class:`MuxServerLoop` thread owns every accepted connection's
socket through a ``selectors`` poll: it reads non-blocking, reassembles
length-prefixed frames, and routes each one through the connection's
:class:`~repro.net.mux.MuxRouter`.  Opened sessions are handed to a
bounded :class:`~concurrent.futures.ThreadPoolExecutor`
(``session_workers``) where the unchanged *blocking* protocol drivers
run — the anonlink-style split between async I/O workers and CPU
workers.  Session threads write back through a per-connection send
lock (with writability polling, since the loop owns the socket in
non-blocking mode), so the loop thread never blocks on a slow peer.

A connection's first frame picks its wire protocol: ``mux/hello``
negotiates v2 framing; anything else makes it a v1 connection, served
by a frame adapter in front of the same router in which each
``session/open`` starts one *implicit* session and replies leave
without the session envelope, so v1 wire bytes are unchanged.

Fault containment mirrors the router's error vocabulary: on a v2
connection a session-scoped fault (unknown/duplicate/closed session id)
answers with a ``session/error`` frame on the offending id and bumps
``repro_wire_faults_total{kind=...}`` — every other session keeps
running; a frame-level fault (truncated header, bad version byte,
undecodable message) kills the connection and poisons its sessions,
because past it the stream has no trustworthy frame boundaries.  A
mid-session disconnect poisons exactly that connection's sessions; the
loop and the other connections are untouched.  On a v1 connection any
fault closes the connection after a plain ``session/error``.

This module is transport-plumbing only: what a session *does* (accept
negotiation, protocol serving, budget accounting) is injected by
:class:`~repro.net.service.TrainerServer` as the ``session_handler``
and ``control_handler`` callbacks.
"""

from __future__ import annotations

import itertools
import selectors
import socket
import struct
import threading
import time
import traceback
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import ProtocolError, ReproError, ValidationError
from repro.net.mux import (
    _CONTROL_TYPES,
    CLOSE,
    ERROR,
    HELLO,
    OPEN,
    WELCOME,
    ClosedSessionError,
    DuplicateSessionError,
    MuxError,
    MuxFrameError,
    MuxSession,
    UnknownSessionError,
)
from repro.net.wire import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    _count_wire_bytes,
    _wire_fault,
)
from repro.utils.serialization import (
    CONTROL_SESSION_ID,
    decode_message,
    encode_message,
    encode_mux_frame,
    peek_message_type,
    split_mux_frame,
)

_HEADER = struct.Struct(">I")

#: Deadline for best-effort error frames sent from the *loop* thread.
#: The loop serves every connection; it must never block long on one
#: hostile peer's full send buffer.
_LOOP_SEND_DEADLINE_S = 0.5

#: ``repro_wire_faults_total`` kind for each refused routing decision.
_ROUTE_FAULTS = {
    MuxFrameError: "mux-frame",
    DuplicateSessionError: "duplicate-session",
    ClosedSessionError: "closed-session",
    UnknownSessionError: "unknown-session",
}


class MuxConnection:
    """One server connection owned by the event loop.

    The loop thread is the only reader; session threads send through
    :meth:`send_frame` under the send lock.  Session bookkeeping is
    lock-guarded because session threads discard their entry while the
    loop thread routes frames.  ``mode`` is ``"v1"`` until a
    ``mux/hello`` switches the connection to ``"v2"``.
    """

    #: Transport label for session telemetry.
    transport = "tcp"

    def __init__(
        self,
        sock: Optional[socket.socket],
        session_timeout: Optional[float],
        on_closed: Optional[Callable[[], None]] = None,
    ) -> None:
        self.sock = sock
        self.session_timeout = session_timeout
        self.buffer = bytearray()
        self.router: Any = None  # set by the loop (import-cycle-free)
        self.mode = "v1"
        #: The v1 implicit session in flight (under the sessions lock).
        self.v1_session: Optional[int] = None
        self._v1_ids = itertools.count(1)
        self.last_active = time.monotonic()  # last bytes in, or v1 session end
        self.workers: List[Future] = []  # dispatching thread only
        self._on_closed = on_closed
        self._send_lock = threading.Lock()
        self._sessions: Dict[int, MuxSession] = {}
        self._sessions_lock = threading.Lock()
        # Closed-state flips under its own lock, NOT the send lock: the
        # loop thread closes connections and must never wait behind a
        # session thread stalled in a writability poll.
        self._state_lock = threading.Lock()
        self._closed = False

    # -- sessions ----------------------------------------------------------------

    def add_session(self, session: MuxSession) -> None:
        with self._sessions_lock:
            self._sessions[session.id] = session

    def get_session(self, session_id: int) -> Optional[MuxSession]:
        with self._sessions_lock:
            return self._sessions.get(session_id)

    def pop_session(self, session_id: int) -> Optional[MuxSession]:
        with self._sessions_lock:
            return self._sessions.pop(session_id, None)

    def end_session(self, session_id: int) -> None:
        with self._sessions_lock:
            self._sessions.pop(session_id, None)
            if self.v1_session == session_id:
                self.v1_session = None
            self.last_active = time.monotonic()
        self.router.finish(session_id)

    def open_v1_session(self) -> int:
        with self._sessions_lock:
            self.v1_session = next(self._v1_ids)
            return self.v1_session

    def drain_sessions(self) -> List[MuxSession]:
        with self._sessions_lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        return sessions

    @property
    def session_count(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    # -- sending -----------------------------------------------------------------

    def send_frame(
        self, data: bytes, deadline_s: Optional[float] = None
    ) -> int:
        """Send one length-prefixed frame; thread-safe, blocking.

        The socket is non-blocking (the event loop owns its read side),
        so a full kernel buffer is waited out with writability polls —
        bounded by ``deadline_s`` when given, else by the connection's
        session timeout.
        """
        frame = _HEADER.pack(len(data)) + data
        if deadline_s is None:
            deadline_s = self.session_timeout
        deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        with self._send_lock:
            if self._closed:
                _wire_fault("disconnect")
                raise ProtocolError(
                    "peer connection lost during send: connection closed"
                )
            view = memoryview(frame)
            while view:
                try:
                    sent = self.sock.send(view)
                except (BlockingIOError, InterruptedError):
                    remaining = 0.2
                    if deadline is not None:
                        remaining = min(remaining, deadline - time.monotonic())
                        if remaining <= 0:
                            _wire_fault("timeout")
                            raise ProtocolError(
                                "send timed out"
                            ) from None
                    try:
                        selectors_wait_writable(self.sock, remaining)
                    except (OSError, ValueError) as exc:
                        _wire_fault("disconnect")
                        raise ProtocolError(
                            f"peer connection lost during send: {exc}"
                        ) from exc
                    continue
                except OSError as exc:
                    _wire_fault("disconnect")
                    raise ProtocolError(
                        f"peer connection lost during send: {exc}"
                    ) from exc
                view = view[sent:]
        _count_wire_bytes("sent", len(frame))
        return len(frame)

    def send_message(
        self, session_id: int, message: bytes, deadline_s: Optional[float] = None
    ) -> int:
        """Send one encoded message on ``session_id`` (v1: no envelope)."""
        if self.mode == "v2":
            message = encode_mux_frame(session_id, message)
        return self.send_frame(message, deadline_s)

    def send_session_frame(self, frame: bytes) -> int:
        """A session's send path: a v1 connection drops the envelope."""
        return self.send_frame(
            frame if self.mode == "v2" else split_mux_frame(frame)[1]
        )

    # -- lifecycle ---------------------------------------------------------------

    def mark_closed(self) -> bool:
        """First caller wins; later calls are no-ops."""
        with self._state_lock:
            if self._closed:
                return False
            self._closed = True
        return True

    @property
    def closed(self) -> bool:
        return self._closed

    def close_transport(self) -> None:
        self.sock.close()

    def notify_closed(self) -> None:
        if self._on_closed is not None:
            callback, self._on_closed = self._on_closed, None
            callback()


class _EndpointConnection(MuxConnection):
    """A blocking connection (e.g. a memory pair end) read by a caller."""

    def __init__(self, endpoint: Any, session_timeout, on_closed) -> None:
        super().__init__(None, session_timeout, on_closed)
        self.endpoint = endpoint
        self.transport = getattr(endpoint, "transport", "tcp")

    def send_frame(self, data: bytes, deadline_s=None) -> int:
        with self._send_lock:
            return self.endpoint.send_frame(data)

    def close_transport(self) -> None:
        self.endpoint.close()


def selectors_wait_writable(sock: socket.socket, timeout: float) -> None:
    """Block until ``sock`` is writable (or ``timeout`` passes)."""
    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_WRITE)
        selector.select(max(0.0, timeout))


class MuxServerLoop:
    """The trainer server's event loop: one thread, many connections.

    ``session_handler(conn, session, request)`` runs on an executor
    thread for every accepted ``session/open``; it owns negotiation,
    protocol serving, and accounting, and returns True when the session
    succeeded.  ``control_handler(conn, msg_type, payload)`` answers
    control-session (admin) frames.  ``service_fault(kind)`` reports
    server-level faults so this module stays free of a
    :mod:`repro.net.service` import.
    """

    def __init__(
        self,
        session_handler: Callable[[MuxConnection, MuxSession, Any], bool],
        control_handler: Callable[[MuxConnection, str, Any], None],
        service_fault: Callable[[str], None],
        router_factory: Callable[[], Any],
        session_workers: int = 8,
        session_timeout: Optional[float] = None,
    ) -> None:
        self._session_handler = session_handler
        self._control_handler = control_handler
        self._service_fault = service_fault
        self._router_factory = router_factory
        self._session_workers = max(1, session_workers)
        self._session_timeout = session_timeout
        #: Made with the loop thread, which only sockets need.
        self._selector: Any = None
        self._wake_r = self._wake_w = None
        self._pending: List[MuxConnection] = []
        self._connections: List[MuxConnection] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- lifecycle ---------------------------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass  # loop already shut down

    def _register(self, conn: MuxConnection, pending: bool) -> None:
        conn.router = self._router_factory()
        with self._lock:
            refused = self._stop.is_set()
            if not refused:
                # Looked up under the lock: the loop swaps _pending out.
                (self._pending if pending else self._connections).append(conn)
                if pending and self._thread is None:
                    self._selector = selectors.DefaultSelector()
                    self._wake_r, self._wake_w = socket.socketpair()
                    self._wake_r.setblocking(False)
                    self._selector.register(self._wake_r, selectors.EVENT_READ)
                    self._thread = threading.Thread(
                        target=self._run, name="mux-loop", daemon=True
                    )
                    self._thread.start()
        if refused:
            conn.close_transport()
            conn.notify_closed()
            raise ProtocolError("server is stopping; connection refused")

    def adopt(
        self,
        sock: socket.socket,
        on_closed: Optional[Callable[[], None]] = None,
    ) -> MuxConnection:
        """Take ownership of an accepted connection's socket."""
        sock.setblocking(False)
        conn = MuxConnection(sock, self._session_timeout, on_closed=on_closed)
        self._register(conn, pending=True)
        self._wake()
        return conn

    def serve(self, endpoint: Any, on_closed: Optional[Callable] = None) -> None:
        """Serve one blocking connection, reading it on the calling thread.

        Returns once it is closed and its sessions have finished.
        """
        conn = _EndpointConnection(endpoint, self._session_timeout, on_closed)
        self._register(conn, pending=False)
        while not conn.closed:
            try:
                frame = endpoint.recv_frame()
            except ProtocolError as error:
                stalled = not isinstance(error, ConnectionClosed)
                if stalled and not (conn.closed or conn.session_count):
                    self._service_fault("control")
                self._close_connection(conn, error)
                break
            self._dispatch(conn, frame)
        wait(conn.workers)

    @property
    def connection_count(self) -> int:
        with self._lock:
            return len(self._connections) + len(self._pending)

    @property
    def session_count(self) -> int:
        with self._lock:
            conns = list(self._connections)
        return sum(conn.session_count for conn in conns)

    def shutdown(self, drain_timeout: float = 5.0) -> None:
        """Drain, force-close the stragglers, and stop the loop thread.

        Idempotent; safe to call when the loop never started.  Each
        connection still mid-session at the deadline counts one
        ``force-closed`` service fault.
        """
        deadline = time.monotonic() + drain_timeout
        while self.session_count and time.monotonic() < deadline:
            time.sleep(0.05)
        with self._lock:
            self._stop.set()
            thread = self._thread
        if thread is not None:
            self._wake()
            thread.join(timeout=drain_timeout + 5.0)
            for closable in (self._selector, self._wake_r, self._wake_w):
                try:
                    closable.close()
                except OSError:
                    pass
        with self._lock:
            leftovers = self._connections + self._pending
            self._connections = []
            self._pending = []
            executor = self._executor
        for conn in leftovers:
            if conn.session_count:
                self._service_fault("force-closed")
            self._close_connection(conn, ProtocolError("server is stopping"))
        if executor is not None:
            executor.shutdown(wait=True)

    # -- the loop ----------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                events = self._selector.select(timeout=0.2)
            except OSError:
                break  # selector closed under us during shutdown
            self._admit_pending()
            for key, _ in events:
                if key.fileobj is self._wake_r:
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except (BlockingIOError, InterruptedError):
                        pass
                    except OSError:
                        return
                    continue
                self._on_readable(key.data)
            self._expire_idle()

    def _admit_pending(self) -> None:
        with self._lock:
            pending, self._pending = self._pending, []
            self._connections.extend(pending)
        for conn in pending:
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)

    def _expire_idle(self) -> None:
        """Drop v1 sockets silent between sessions for a session timeout."""
        if self._session_timeout is None:
            return
        cutoff = time.monotonic() - self._session_timeout
        with self._lock:
            conns = [c for c in self._connections if c.sock and c.mode == "v1"]
        for conn in conns:
            if conn.last_active < cutoff and not conn.session_count:
                _wire_fault("timeout")
                self._service_fault("control")
                self._close_connection(conn, ProtocolError("client stalled"))

    def _on_readable(self, conn: MuxConnection) -> None:
        if conn.closed:
            return
        try:
            data = conn.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            if conn.closed:
                return  # a session thread closed it a moment ago
            _wire_fault("disconnect")
            self._close_connection(
                conn, ProtocolError(f"peer connection lost: {exc}")
            )
            return
        if not data:
            # EOF.  With sessions still open this is a mid-session
            # disconnect (a fault); between sessions it is an orderly
            # hang-up.
            if conn.session_count:
                _wire_fault("disconnect")
            self._close_connection(
                conn,
                ProtocolError("peer closed the connection mid-session"),
            )
            return
        conn.last_active = time.monotonic()
        conn.buffer += data
        self._pump_frames(conn)

    def _pump_frames(self, conn: MuxConnection) -> None:
        while not conn.closed:
            if len(conn.buffer) < _HEADER.size:
                return
            (length,) = _HEADER.unpack_from(conn.buffer)
            if length > MAX_FRAME_BYTES:
                _wire_fault("oversized-recv")
                self._close_connection(
                    conn,
                    ProtocolError(
                        f"peer announced a {length}-byte frame, above the "
                        f"{MAX_FRAME_BYTES}-byte frame cap"
                    ),
                )
                return
            if len(conn.buffer) < _HEADER.size + length:
                return
            frame = bytes(conn.buffer[_HEADER.size:_HEADER.size + length])
            del conn.buffer[:_HEADER.size + length]
            _count_wire_bytes("received", _HEADER.size + length)
            if not self._dispatch(conn, frame):
                return

    def _v1_envelope(self, conn: MuxConnection, frame: bytes) -> Optional[bytes]:
        """Give a v1 frame the envelope of the session it belongs to.

        ``session/open`` starts a new implicit session; ``admin/*``, and
        ``session/close`` between sessions, go to control session 0;
        anything else belongs to the session in flight.  ``mux/hello``
        between sessions switches the connection to v2 and returns None.
        Raises :class:`ProtocolError` for a frame no session can take.
        """
        try:
            msg_type = peek_message_type(frame)
            hello = msg_type == HELLO and conn.v1_session is None
            request = decode_message(frame)[1] if hello else None
        except ValidationError as error:
            raise ProtocolError(f"malformed control frame: {error}") from error
        if hello:
            versions = request.get("versions") if isinstance(request, dict) else None
            if not isinstance(versions, (list, tuple)) or 2 not in versions:
                raise ProtocolError(
                    f"no mutually supported wire protocol in {versions!r} "
                    f"(server speaks v2)"
                )
            conn.send_frame(
                encode_message(WELCOME, {"version": 2}),
                deadline_s=_LOOP_SEND_DEADLINE_S,
            )
            conn.mode = "v2"
            return None
        if msg_type == OPEN:
            session_id = conn.open_v1_session()
        elif msg_type in _CONTROL_TYPES and (
            msg_type != CLOSE or conn.v1_session is None
        ):
            session_id = CONTROL_SESSION_ID
        elif conn.v1_session is not None:
            session_id = conn.v1_session
        else:
            raise ProtocolError(
                f"expected {OPEN!r} or {CLOSE!r}, got {msg_type!r}"
            )
        return encode_mux_frame(session_id, frame)

    def _refuse(
        self,
        conn: MuxConnection,
        session_id: int,
        error: Exception,
        fatal: bool = False,
    ) -> bool:
        """Answer a refused frame; False once the connection is closed.

        A v1 connection cannot scope the refusal to one session: it
        counts a ``control`` fault and closes.
        """
        try:
            conn.send_message(
                session_id,
                encode_message(ERROR, str(error)),
                deadline_s=_LOOP_SEND_DEADLINE_S,
            )
        except ProtocolError:
            pass  # the connection is already unusable
        if conn.mode == "v1":
            self._service_fault("control")
        elif not fatal:
            return True
        self._close_connection(conn, error)
        return False

    def _dispatch(self, conn: MuxConnection, frame: bytes) -> bool:
        """Route one frame; False once the connection is gone."""
        if conn.mode == "v1":
            try:
                frame = self._v1_envelope(conn, frame)
            except ProtocolError as error:
                return self._refuse(conn, CONTROL_SESSION_ID, error)
            if frame is None:
                return True
        try:
            routed = conn.router.route(frame)
        except MuxError as error:
            _wire_fault(_ROUTE_FAULTS[type(error)])
            session_id = error.session_id
            return self._refuse(
                conn,
                CONTROL_SESSION_ID if session_id is None else session_id,
                error,
                fatal=isinstance(error, MuxFrameError),
            )
        if routed.action == "control":
            if routed.msg_type == CLOSE:
                self._close_connection(
                    conn, ProtocolError("peer closed the connection")
                )
                return False
            try:
                self._control_handler(conn, routed.msg_type, routed.payload)
            except ReproError as error:
                return self._refuse(conn, CONTROL_SESSION_ID, error)
            return True
        if routed.action == "open":
            session = MuxSession(
                routed.session_id,
                conn.send_session_frame,
                timeout=conn.session_timeout,
            )
            conn.add_session(session)
            self._submit(conn, session, routed.payload)
            return True
        if routed.action == "deliver":
            session = conn.get_session(routed.session_id)
            if session is not None:
                session.deliver(routed.message)
            else:
                # The session finished server-side a moment ago; count
                # the straggler and drop it.
                _wire_fault("closed-session")
            return True
        # action == "close": the peer cancelled or orderly-closed the
        # session; unblock its session worker with a typed error.
        session = conn.pop_session(routed.session_id)
        if session is not None:
            if routed.msg_type == ERROR:
                try:
                    _, reason, _ = decode_message(routed.message)
                except ReproError:
                    reason = "unreadable reason"
                session.poison(
                    ProtocolError(f"peer reported a session error: {reason!r}")
                )
            else:
                session.poison(
                    ProtocolError(
                        f"peer closed session {routed.session_id} mid-protocol"
                    )
                )
        return True

    def _submit(self, conn: MuxConnection, session: MuxSession, request: Any) -> None:
        with self._lock:
            if self._stop.is_set():
                return  # shutdown force-closes the connection
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._session_workers,
                    thread_name_prefix="mux-session",
                )
            future = self._executor.submit(
                self._run_session, conn, session, request
            )
        conn.workers = [f for f in conn.workers if not f.done()] + [future]

    def _run_session(
        self, conn: MuxConnection, session: MuxSession, request: Any
    ) -> None:
        succeeded = False
        try:
            succeeded = self._session_handler(conn, session, request)
        except Exception:
            # A bug, not a peer fault: report it; the pool keeps serving.
            traceback.print_exc()
        finally:
            session.finish()
            conn.end_session(session.id)
            if not succeeded and conn.mode == "v1":
                # A v1 session owns its connection; it goes down with it.
                self._close_connection(
                    conn, ProtocolError(f"session {session.id} failed")
                )

    def _close_connection(self, conn: MuxConnection, error: Exception) -> None:
        if not conn.mark_closed():
            return
        with self._lock:
            if conn in self._connections:
                self._connections.remove(conn)
        if conn.sock is not None:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
        conn.close_transport()
        for session in conn.drain_sessions():
            session.poison(error)
        conn.notify_closed()
