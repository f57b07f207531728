"""Protocol v2: session-multiplexed framing over one connection.

Protocol v1 (:mod:`repro.net.service`) is strictly sequential within a
connection — one session, one frame in flight.  Protocol v2 adds a
session envelope to every frame so one connection interleaves any
number of concurrent sessions:

```
frame     := u32_be length ‖ mux_frame          (transport framing, unchanged)
mux_frame := 0x02 ‖ u32_be session_id ‖ message (0x01 ‖ varbytes(type) ‖ payload)
```

The inner ``message`` is byte-identical to a v1 frame's content, so
per-phase byte accounting — and therefore every protocol transcript —
is bit-identical across v1 and v2.  Session id 0 is the reserved
connection-control session (negotiation echoes, admin traffic); ids
``>= 1`` are chosen by the client, fresh per session, never reused on a
connection.

This module holds the pieces shared by both endpoints:

* the typed error vocabulary (:class:`MuxFrameError`,
  :class:`UnknownSessionError`, :class:`DuplicateSessionError`,
  :class:`ClosedSessionError` — all :class:`ProtocolError` subclasses);
* :class:`MuxRouter` — the pure demultiplexer state machine (fed raw
  frames, returns typed routing decisions; the fuzz suite drives it
  directly, with no I/O underneath);
* :class:`MuxSession` — one session endpoint: a thread-safe inbound
  frame queue plus a serialized send path, used by the protocol
  drivers through :class:`MuxChannel`;
* :class:`MuxChannel` — the :class:`~repro.net.channel.Channel`
  contract over one session endpoint, the one channel of every wire
  endpoint: client or server, v1 or v2;
* :class:`MuxClientConnection` — the client-side multiplexer: one
  reader thread demultiplexing server frames into per-session queues,
  sends serialized by a lock, sessions opened concurrently from any
  number of threads;
* :class:`V1ClientConnection` and :class:`V1Session` — the same client
  surface over a protocol-v1 connection: one session at a time, no
  envelope, read and written on the caller's thread.

The server-side event loop lives in :mod:`repro.net.muxserver`.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.exceptions import ProtocolError, ValidationError
from repro.net.channel import LinkModel, observe_message
from repro.net.message import Message
from repro.net.transcript import Transcript
from repro.net.wire import WireConnection, _wire_fault
from repro.utils.serialization import (
    CONTROL_SESSION_ID,
    decode_message,
    encode_message,
    encode_mux_frame,
    peek_message_type,
    split_mux_frame,
)

#: Session control labels.  ``session/*`` frames travel on the session
#: they govern (or session 0 for connection-wide close) and stay off
#: every protocol transcript, exactly as in protocol v1.
OPEN = "session/open"
ACCEPT = "session/accept"
ERROR = "session/error"
CLOSE = "session/close"

#: Negotiation labels.  ``mux/hello`` is the *first* message a v2
#: client sends on a fresh connection, as a plain v1 frame; a v2 server
#: answers ``mux/welcome`` (also v1-framed) and both sides switch to v2
#: frames.  A v1 client never sends ``mux/hello``, so a v2 server serves
#: its connection as a v1 one — negotiation is per connection.
HELLO = "mux/hello"
WELCOME = "mux/welcome"

#: Wire protocol generations a client may offer / a server may pick.
SUPPORTED_PROTOCOLS = (1, 2)

#: Message types the control session (id 0) accepts.
_CONTROL_TYPES = frozenset(
    {CLOSE, "admin/metrics", "admin/health", "admin/trace"}
)


class MuxError(ProtocolError):
    """Base class for multiplexing-layer failures.

    ``session_id`` is the offending session when the failure is scoped
    to one session (``None`` for connection-fatal frame errors), so a
    serve loop can answer with an error frame on exactly that session
    and keep every other one running.
    """

    def __init__(self, message: str, session_id: Optional[int] = None) -> None:
        super().__init__(message)
        self.session_id = session_id


class MuxFrameError(MuxError):
    """A malformed v2 frame — connection-fatal.

    Truncated session headers, wrong version bytes, undecodable inner
    messages: past this point the stream cannot be trusted to contain
    frame boundaries at all, so the connection must drop (its sessions
    are poisoned, never silently wedged).
    """


class UnknownSessionError(MuxError):
    """A non-open frame arrived for a session that was never opened."""


class DuplicateSessionError(MuxError):
    """``session/open`` arrived for an id already open or already used.

    Session ids are single-use per connection; accepting a reuse would
    let a hostile client graft frames onto another session's state.
    """


class ClosedSessionError(MuxError):
    """A frame arrived for a session that already finished."""


@dataclass(frozen=True)
class RoutedFrame:
    """One routing decision from :meth:`MuxRouter.route`.

    ``action`` is one of ``"open"`` (a new session; ``payload`` is the
    decoded ``session/open`` payload), ``"deliver"`` (an in-session
    protocol frame; ``message`` is the raw inner bytes, decoded later on
    the session's own thread), ``"close"`` (the peer ended the session;
    ``msg_type`` tells error from orderly close), or ``"control"`` (a
    session-0 frame; ``payload`` decoded).
    """

    action: str
    session_id: int
    msg_type: str
    message: bytes
    payload: Any = None


class MuxRouter:
    """The demultiplexer state machine — pure, I/O-free, thread-safe.

    Feed it raw frames; it validates the envelope, tracks the session
    id space, and returns typed :class:`RoutedFrame` decisions.  All
    hostile inputs raise a typed :class:`MuxError` subclass and leave
    the router's state unchanged, so one bad frame can never corrupt or
    cross-contaminate the surviving sessions.  The server marks its own
    side of a session finished with :meth:`finish`.
    """

    def __init__(self) -> None:
        self._active: set = set()
        self._finished: set = set()
        self._lock = threading.Lock()

    def route(self, frame: bytes) -> RoutedFrame:
        try:
            session_id, message = split_mux_frame(frame)
        except ValidationError as error:
            raise MuxFrameError(f"malformed mux frame: {error}") from error
        if session_id == CONTROL_SESSION_ID:
            try:
                msg_type, payload, _ = decode_message(message)
            except ValidationError as error:
                raise MuxFrameError(
                    f"malformed control-session message: {error}"
                ) from error
            if msg_type == OPEN:
                raise MuxFrameError(
                    "session/open on the reserved control session (id 0)"
                )
            if msg_type not in _CONTROL_TYPES:
                raise MuxFrameError(
                    f"unexpected control-session message {msg_type!r}"
                )
            return RoutedFrame("control", session_id, msg_type, message, payload)
        try:
            msg_type = peek_message_type(message)
        except ValidationError as error:
            raise MuxFrameError(
                f"undecodable inner message on session {session_id}: {error}"
            ) from error
        with self._lock:
            if msg_type == OPEN:
                if session_id in self._active:
                    raise DuplicateSessionError(
                        f"session/open for already-open session {session_id}",
                        session_id,
                    )
                if session_id in self._finished:
                    raise DuplicateSessionError(
                        f"session/open reuses finished session id {session_id}",
                        session_id,
                    )
                try:
                    _, payload, _ = decode_message(message)
                except ValidationError as error:
                    raise MuxFrameError(
                        f"malformed session/open on session {session_id}: "
                        f"{error}"
                    ) from error
                self._active.add(session_id)
                return RoutedFrame("open", session_id, msg_type, message, payload)
            if session_id in self._active:
                if msg_type in (ERROR, CLOSE):
                    self._active.discard(session_id)
                    self._finished.add(session_id)
                    return RoutedFrame("close", session_id, msg_type, message)
                return RoutedFrame("deliver", session_id, msg_type, message)
            if session_id in self._finished:
                raise ClosedSessionError(
                    f"frame ({msg_type!r}) for closed session {session_id}",
                    session_id,
                )
            raise UnknownSessionError(
                f"frame ({msg_type!r}) for unknown session {session_id}",
                session_id,
            )

    def finish(self, session_id: int) -> None:
        """Mark a session finished from this endpoint's side."""
        with self._lock:
            self._active.discard(session_id)
            self._finished.add(session_id)

    def active_sessions(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._active))


#: Inner-message header bytes that are *not* payload: the v1 version
#: byte plus the length-prefixed type label (see ``encode_message``).
def _payload_bytes(encoded: bytes, msg_type: str) -> int:
    return len(encoded) - (1 + 4 + len(msg_type.encode("utf-8")))


def _session_error(payload: Any) -> ProtocolError:
    return ProtocolError(f"peer reported a session error ({ERROR}): {payload!r}")


class _SessionMessages:
    """The message half of a session endpoint, shared by both protocols.

    A subclass supplies ``_send(encoded) -> frame_bytes`` and
    ``recv_message()``, which passes each inbound message through
    :meth:`_check` so a peer's ``session/error`` or ``session/close``
    surfaces as :class:`ProtocolError` on either protocol.
    """

    id: Optional[int] = None
    _peer_closed = False

    def send_message(self, msg_type: str, payload: Any) -> Tuple[int, int]:
        """Send one message on this session.

        Returns ``(payload_bytes, frame_bytes)`` — the transcript size
        and the raw on-the-wire cost including any session envelope.
        """
        encoded = encode_message(msg_type, payload)
        return _payload_bytes(encoded, msg_type), self._send(encoded)

    def send_control(self, msg_type: str, payload: Any) -> None:
        """Send one session-control message (off any transcript)."""
        self._send(encode_message(msg_type, payload))

    def _check(self, message: bytes) -> Tuple[str, Any, int]:
        msg_type, payload, payload_bytes = decode_message(message)
        if msg_type == ERROR:
            self._peer_closed = True
            raise _session_error(payload)
        if msg_type == CLOSE:
            self._peer_closed = True
            raise ProtocolError(f"peer closed session {self.id} mid-protocol")
        return msg_type, payload, payload_bytes

    def recv_control(
        self, expected: Optional[str] = None
    ) -> Tuple[str, Any]:
        """Receive one control message; surfaces ``session/error``."""
        msg_type, payload, _ = self.recv_message()
        if expected is not None and msg_type != expected:
            raise ProtocolError(
                f"expected control message {expected!r}, got {msg_type!r}"
            )
        return msg_type, payload


class MuxSession(_SessionMessages):
    """One session endpoint on a multiplexed connection.

    The demultiplexer (client reader thread or server event loop)
    delivers raw inner-message bytes into :meth:`deliver`; the session's
    own thread blocks in :meth:`recv_message`.  Sends go through the
    connection's serialized ``send_frame`` callable.  A vanished peer or
    a cancellation poisons the queue, so a blocked receive always
    surfaces a typed :class:`ProtocolError`, never a hang.
    """

    def __init__(
        self,
        session_id: int,
        send_frame: Callable[[bytes], int],
        timeout: Optional[float] = None,
        on_finished: Optional[Callable[["MuxSession"], None]] = None,
    ) -> None:
        self.id = session_id
        self._send_frame = send_frame
        self.timeout = timeout
        self._on_finished = on_finished
        self._inbound: "queue.Queue" = queue.Queue()
        self._poison: Optional[Exception] = None
        self._finished = False
        self._lock = threading.Lock()

    # -- demultiplexer side ----------------------------------------------------

    def deliver(self, message: bytes) -> None:
        """Queue one raw inner message for this session's thread."""
        self._inbound.put(bytes(message))

    def poison(self, error: Exception) -> None:
        """Fail every pending and future receive with ``error``."""
        with self._lock:
            self._poison = error
        self._inbound.put(error)

    # -- session-thread side -----------------------------------------------------

    def _send(self, encoded: bytes) -> int:
        return self._send_frame(encode_mux_frame(self.id, encoded))

    def recv_message(
        self, timeout: Optional[float] = -1.0
    ) -> Tuple[str, Any, int]:
        """Block for this session's next message.

        Returns ``(msg_type, payload, payload_bytes)``.  A peer-reported
        ``session/error`` or ``session/close``, a poisoned queue
        (disconnect, cancellation), and an expired timeout all raise
        :class:`ProtocolError`.
        """
        if timeout is not None and timeout < 0:
            timeout = self.timeout
        with self._lock:
            poison = self._poison
        if poison is not None and self._inbound.empty():
            raise poison
        try:
            item = self._inbound.get(timeout=timeout)
        except queue.Empty:
            _wire_fault("timeout")
            raise ProtocolError(
                f"session {self.id}: timed out waiting for the peer's "
                f"next frame"
            ) from None
        if isinstance(item, Exception):
            # Leave the poison visible for any later receive too.
            self._inbound.put(item)
            raise item
        return self._check(item)

    def pending(self) -> bool:
        """True when a data frame is queued for this session.

        A poison marker is not data: a peer that hangs up right after
        its last frame must leave a finished session reading drained.
        """
        with self._inbound.mutex:
            return any(
                not isinstance(item, Exception) for item in self._inbound.queue
            )

    def cancel(self, reason: str = "session cancelled") -> None:
        """Cancel this session from the local side.

        Best-effort notifies the peer with a ``session/error`` frame
        (so its side aborts instead of waiting out a timeout), then
        poisons the local queue — a protocol driver blocked in
        :meth:`recv_message` unblocks immediately with the reason.  If
        the *peer* already ended the session (its error/close was the
        reason we are cancelling), no frame is sent — the peer's router
        would only count it as a closed-session fault.
        """
        if not self._peer_closed:
            try:
                self.send_control(ERROR, reason)
            except ProtocolError:
                pass  # the connection is already gone
        self.poison(ProtocolError(f"session {self.id}: {reason}"))
        self.finish()

    def finish(self) -> None:
        """Mark the session complete and release its routing slot."""
        with self._lock:
            if self._finished:
                return
            self._finished = True
        if self._on_finished is not None:
            self._on_finished(self)


class MuxChannel:
    """The :class:`Channel` contract over one session endpoint.

    ``session`` is a :class:`MuxSession` (either protocol, server side;
    v2, client side) or a :class:`V1Session` (v1, client side), so every
    protocol in :mod:`repro.core` runs unchanged over any real
    connection.  Unlike the in-memory channel — one shared object
    holding both inboxes — each endpoint holds its own channel; ``local``
    is its party name, sends must originate from it and receives are
    addressed to it.

    ``Message.size_bytes`` is the encoded *payload* size of the inner v1
    message — identical across the in-memory, v1 and v2 transports, so
    ``bytes_by_phase()`` is bit-identical too.  The transcript records
    both the messages this endpoint sends and the ones it receives, and
    the simulated clock advances on both, mirroring the shared in-memory
    clock.  Send-side metrics go through the same
    :func:`~repro.net.channel.observe_message` helper as the in-memory
    channel; receives only update the round-trip direction state, so two
    endpoints sharing one registry count each message exactly once.  The
    session envelope (version byte + session id) and the frame header
    are accounted separately under ``repro_wire_bytes_total`` by the
    transport layer.
    """

    def __init__(
        self,
        local: str,
        peer: str,
        session: _SessionMessages,
        link: Optional[LinkModel] = None,
        transcript: Optional[Transcript] = None,
    ) -> None:
        if local == peer:
            raise ValidationError("a channel needs two distinct parties")
        if not local or not peer:
            raise ValidationError("party names must be non-empty")
        self.local = local
        self.peer = peer
        self.parties: Tuple[str, str] = (local, peer)
        self.session = session
        self.link = link or LinkModel()
        self.transcript = transcript if transcript is not None else Transcript()
        self.simulated_time: float = 0.0
        self._last_direction: Optional[Tuple[str, str]] = None

    def _require_local(self, party: str, action: str) -> None:
        if party != self.local:
            raise ProtocolError(
                f"{party!r} cannot {action} on {self.local!r}'s session endpoint"
            )

    def send(self, sender: str, msg_type: str, payload: Any) -> Message:
        """Encode and transmit one message on this session."""
        self._require_local(sender, "send")
        payload_bytes, _ = self.session.send_message(msg_type, payload)
        message = Message(
            sender=sender,
            recipient=self.peer,
            msg_type=msg_type,
            payload=payload,
            size_bytes=payload_bytes,
            session_id=self.session.id,
        )
        self.transcript.record(message)
        self.simulated_time += self.link.transfer_time(message.size_bytes)
        self._last_direction = observe_message(message, self._last_direction)
        return message

    def receive(self, recipient: str, expected_type: Optional[str] = None) -> Any:
        """Block for this session's next message; returns the payload."""
        self._require_local(recipient, "receive")
        msg_type, payload, payload_bytes = self.session.recv_message()
        message = Message(
            sender=self.peer,
            recipient=recipient,
            msg_type=msg_type,
            payload=payload,
            size_bytes=payload_bytes,
            session_id=self.session.id,
        )
        self.transcript.record(message)
        self.simulated_time += self.link.transfer_time(message.size_bytes)
        self._last_direction = (self.peer, recipient)
        if expected_type is not None and msg_type != expected_type:
            raise ProtocolError(
                f"{recipient} expected {expected_type!r} but got {msg_type!r}"
            )
        return payload

    def pending(self, recipient: str) -> int:
        """1 when a frame is waiting for this session, else 0.

        A v1 session cannot count messages without consuming the stream,
        so this is a readability poll, not a queue length; the values
        still satisfy the contract's only uses (zero/non-zero).
        """
        self._require_local(recipient, "poll")
        return 1 if self.session.pending() else 0

    def assert_drained(self) -> None:
        """Raise unless no session data remains queued (clean completion)."""
        if self.session.pending():
            raise ProtocolError(
                f"{self.local} still has undelivered session frames"
            )


class MuxClientConnection:
    """Client side of one protocol-v2 connection.

    Negotiates v2 on construction (``mux/hello`` → ``mux/welcome``, both
    as plain v1 frames), then runs a single reader thread that
    demultiplexes every server frame into per-session queues.  Sessions
    are opened from any thread; sends are serialized by a lock; the
    blocking protocol drivers run unchanged on the callers' threads.

    Fault surface: a malformed server frame or a lost connection poisons
    every open session (each blocked receive raises
    :class:`ProtocolError`); frames for unknown or finished sessions
    are counted under ``repro_wire_faults_total{kind=...}`` and dropped
    without touching the healthy sessions.
    """

    protocol = "v2"

    def __init__(
        self,
        connection: WireConnection,
        timeout: Optional[float] = None,
    ) -> None:
        self._connection = connection
        self._timeout = timeout
        self._send_lock = threading.Lock()
        self._sessions: Dict[int, MuxSession] = {}
        self._sessions_lock = threading.Lock()
        #: The id the next session gets; every id below it that is not
        #: in ``_sessions`` belongs to a finished session.
        self._next_id = 1
        self._control_inbox: "queue.Queue" = queue.Queue()
        self._control_lock = threading.Lock()
        self._closed = False
        self._reader: Optional[threading.Thread] = None
        self._negotiate()
        self._reader = threading.Thread(
            target=self._reader_loop, name="mux-client-reader", daemon=True
        )
        self._reader.start()

    # -- negotiation -----------------------------------------------------------

    def _negotiate(self) -> None:
        self._connection.send_frame(
            encode_message(HELLO, {"versions": list(SUPPORTED_PROTOCOLS)})
        )
        reply = self._connection.recv_frame()
        msg_type, payload, _ = decode_message(reply)
        if msg_type == ERROR:
            raise ProtocolError(
                f"peer refused protocol v2: {payload!r}"
            )
        if msg_type != WELCOME:
            raise ProtocolError(
                f"expected {WELCOME!r} during negotiation, got {msg_type!r}"
            )
        version = payload.get("version") if isinstance(payload, dict) else None
        if version != 2:
            raise ProtocolError(
                f"peer negotiated unsupported protocol version {version!r}"
            )

    # -- sending ---------------------------------------------------------------

    def _send_frame(self, frame: bytes) -> int:
        with self._send_lock:
            return self._connection.send_frame(frame)

    # -- sessions ----------------------------------------------------------------

    def open_session(
        self, payload: Any, timeout: Optional[float] = -1.0
    ) -> MuxSession:
        """Open one session: allocates a fresh id, sends ``session/open``.

        The returned session is registered with the demultiplexer before
        the open frame leaves, so the server's ``session/accept`` can
        never race past it.
        """
        if timeout is not None and timeout < 0:
            timeout = self._timeout
        with self._sessions_lock:
            if self._closed:
                raise ProtocolError("connection is closed")
            session_id = self._next_id
            self._next_id += 1
            session = MuxSession(
                session_id,
                self._send_frame,
                timeout=timeout,
                on_finished=self._session_finished,
            )
            self._sessions[session_id] = session
        try:
            session.send_control(OPEN, payload)
        except ProtocolError:
            with self._sessions_lock:
                self._sessions.pop(session_id, None)
            raise
        return session

    def _session_finished(self, session: MuxSession) -> None:
        with self._sessions_lock:
            self._sessions.pop(session.id, None)

    # -- control (session 0) -----------------------------------------------------

    def control_request(
        self, msg_type: str, payload: Any, timeout: Optional[float] = -1.0
    ) -> Tuple[str, Any]:
        """One request/response exchange on the control session (admin)."""
        if timeout is not None and timeout < 0:
            timeout = self._timeout
        with self._control_lock:
            self._send_frame(
                encode_mux_frame(
                    CONTROL_SESSION_ID, encode_message(msg_type, payload)
                )
            )
            try:
                item = self._control_inbox.get(timeout=timeout)
            except queue.Empty:
                _wire_fault("timeout")
                raise ProtocolError(
                    "timed out waiting for a control-session response"
                ) from None
        if isinstance(item, Exception):
            self._control_inbox.put(item)
            raise item
        reply_type, reply, _ = decode_message(item)
        if reply_type == ERROR:
            raise _session_error(reply)
        return reply_type, reply

    # -- demultiplexing ------------------------------------------------------------

    def _reader_loop(self) -> None:
        try:
            while True:
                frame = self._connection.recv_frame()
                try:
                    session_id, message = split_mux_frame(frame)
                except ValidationError as error:
                    _wire_fault("mux-frame")
                    raise ProtocolError(
                        f"malformed mux frame from peer: {error}"
                    ) from error
                if session_id == CONTROL_SESSION_ID:
                    self._control_inbox.put(message)
                    continue
                with self._sessions_lock:
                    session = self._sessions.get(session_id)
                    finished = session_id < self._next_id
                if session is not None:
                    session.deliver(message)
                elif finished:
                    # A late frame for a session we already completed
                    # (e.g. the server's error racing our own close):
                    # count it, drop it, keep every live session intact.
                    _wire_fault("closed-session")
                else:
                    _wire_fault("unknown-session")
        except ProtocolError as error:
            if self._closed or self._connection.closed:
                error = ProtocolError("connection closed locally")
            self._poison_all(error)

    def _poison_all(self, error: Exception) -> None:
        with self._sessions_lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            session.poison(error)
        self._control_inbox.put(error)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close the connection; open sessions fail with a local error."""
        if self._closed:
            return
        self._closed = True
        try:
            self._send_frame(
                encode_mux_frame(CONTROL_SESSION_ID, encode_message(CLOSE, None))
            )
        except ProtocolError:
            pass  # peer already gone
        self._connection.close()
        if self._reader is not None and self._reader is not threading.current_thread():
            self._reader.join(timeout=5.0)
        self._poison_all(ProtocolError("connection closed locally"))

    def __enter__(self) -> "MuxClientConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class V1Session(_SessionMessages):
    """The one session of a protocol-v1 client connection.

    The surface of :class:`MuxSession`, read and written on the
    caller's thread: no reader thread, no envelope, and the connection
    is the session, so ``id`` is ``None`` and :meth:`cancel` and
    :meth:`finish` do nothing.
    """

    def __init__(self, connection: WireConnection) -> None:
        self._connection = connection

    def _send(self, encoded: bytes) -> int:
        return self._connection.send_frame(encoded)

    def recv_message(self) -> Tuple[str, Any, int]:
        """Block for the peer's next message (the connection's timeout)."""
        return self._check(self._connection.recv_frame())

    def pending(self) -> bool:
        """True when unread peer data is waiting on the connection."""
        return self._connection.readable()

    def cancel(self, reason: str = "session cancelled") -> None:
        """v1 has no session-scoped cancel."""

    def finish(self) -> None:
        """v1 keeps no per-session state."""


class V1ClientConnection:
    """Client side of one protocol-v1 connection.

    The surface of :class:`MuxClientConnection` for a peer that speaks
    only v1: sessions run one at a time, each opened by a
    ``session/open`` control frame; control requests are plain frames.
    """

    protocol = "v1"

    def __init__(self, connection: WireConnection) -> None:
        self._connection = connection

    def open_session(self, payload: Any) -> V1Session:
        """Open the next session: sends ``session/open``."""
        session = V1Session(self._connection)
        session.send_control(OPEN, payload)
        return session

    def control_request(self, msg_type: str, payload: Any) -> Tuple[str, Any]:
        """One request/response control exchange (admin)."""
        session = V1Session(self._connection)
        session.send_control(msg_type, payload)
        return session.recv_control()

    def close(self) -> None:
        """Say ``session/close`` (best effort) and close the connection."""
        try:
            self._connection.send_frame(encode_message(CLOSE, None))
        except ProtocolError:
            pass  # peer already gone
        self._connection.close()
