"""Real TCP transport for the two-party protocols.

The in-memory :class:`~repro.net.channel.Channel` runs both parties
lock-step inside one process; this module runs them over an actual
socket.  Two layers:

* :class:`WireConnection` — length-prefixed framing over a blocking
  socket: each frame is a 4-byte big-endian length followed by one
  encoded message (:func:`repro.utils.serialization.encode_message`).
  All transport failures — peer EOF, resets, timeouts, hostile length
  prefixes — surface as typed :class:`~repro.exceptions.ProtocolError`
  and bump ``repro_wire_faults_total{kind=...}``.  Frame overhead
  (length prefix) is accounted under ``repro_wire_bytes_total``;
  :class:`MemoryConnection` is the same endpoint over in-process queues.
* :func:`listen` / :func:`connect` — socket lifecycle helpers; the
  client side retries refused connections with a backoff
  (``repro_wire_retries_total``), the recovery path expected from
  clients of a restarting trainer service.

The :class:`~repro.net.channel.Channel` contract over a connection is
:class:`~repro.net.mux.MuxChannel`, for both wire protocols.
"""

from __future__ import annotations

import collections
import errno
import select
import socket
import struct
import threading
import time
from typing import Optional, Tuple

from repro import obs
from repro.exceptions import ProtocolError, ValidationError

#: Hard ceiling on one frame's length prefix.  A hostile peer can claim
#: any 32-bit length; bounding it keeps a malformed or malicious prefix
#: from provoking a multi-gigabyte allocation before the decoder ever
#: sees a byte.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Frame header: unsigned 32-bit big-endian payload length.
_HEADER = struct.Struct(">I")

_FAULT_COUNTER = "repro_wire_faults_total"
_FAULT_DESCRIPTION = "Observed TCP transport faults, by kind"


def _wire_fault(kind: str) -> None:
    obs.record_fault(kind, _FAULT_COUNTER, _FAULT_DESCRIPTION)


def _count_wire_bytes(direction: str, count: int) -> None:
    metrics = obs.get_metrics()
    if metrics.enabled:
        metrics.counter(
            "repro_wire_bytes_total", "Raw TCP bytes, by direction"
        ).inc(count, direction=direction)


class ConnectionClosed(ProtocolError):
    """The peer closed the connection at a frame boundary.

    Distinguishes an orderly hang-up (EOF before any byte of the next
    frame) from a mid-frame truncation: a serve loop can treat the
    former as a departed client and the latter as a corrupted stream.
    """


class AcceptTimeout(ProtocolError):
    """:func:`accept` waited out its timeout with no peer arriving."""


class ListenerClosed(ProtocolError):
    """:func:`accept` found the listening socket closed — the normal
    way another thread stops a serve loop."""


class WireConnection:
    """Length-prefixed message framing over a blocking TCP socket.

    ``timeout`` bounds every blocking socket operation; an expired
    timeout, a peer disconnect, or an oversized frame all raise
    :class:`ProtocolError` (never a bare ``socket`` or ``struct``
    error) so protocol drivers have exactly one failure type to handle.
    """

    #: Transport label for session telemetry (``transport="tcp"``).
    transport = "tcp"

    def __init__(
        self,
        sock: socket.socket,
        timeout: Optional[float] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        if max_frame_bytes < 1:
            raise ValidationError("max_frame_bytes must be positive")
        self._sock = sock
        self.max_frame_bytes = max_frame_bytes
        self.bytes_sent = 0
        self.bytes_received = 0
        self._closed = False
        sock.settimeout(timeout)
        # The protocols are strictly request/response; disabling Nagle
        # keeps each small frame from waiting on a delayed ACK.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (e.g. a socketpair in tests)

    # -- framing -------------------------------------------------------------

    def send_frame(self, data: bytes) -> int:
        """Send one frame; returns the bytes put on the wire."""
        if len(data) > self.max_frame_bytes:
            _wire_fault("oversized-send")
            raise ProtocolError(
                f"frame of {len(data)} bytes exceeds the "
                f"{self.max_frame_bytes}-byte frame cap"
            )
        frame = _HEADER.pack(len(data)) + data
        try:
            self._sock.sendall(frame)
        except socket.timeout as exc:
            _wire_fault("timeout")
            raise ProtocolError("send timed out") from exc
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            _wire_fault("disconnect")
            raise ProtocolError(f"peer connection lost during send: {exc}") from exc
        self.bytes_sent += len(frame)
        _count_wire_bytes("sent", len(frame))
        return len(frame)

    def recv_frame(self) -> bytes:
        """Receive one frame; returns the message bytes (header stripped).

        A peer that hangs up *between* frames raises
        :class:`ConnectionClosed` (a :class:`ProtocolError` subclass);
        one that vanishes mid-frame raises a plain
        :class:`ProtocolError`.
        """
        header = self._recv_exact(_HEADER.size, "frame header", at_boundary=True)
        (length,) = _HEADER.unpack(header)
        if length > self.max_frame_bytes:
            _wire_fault("oversized-recv")
            raise ProtocolError(
                f"peer announced a {length}-byte frame, above the "
                f"{self.max_frame_bytes}-byte frame cap"
            )
        data = self._recv_exact(length, "frame body")
        _count_wire_bytes("received", _HEADER.size + length)
        return data

    def _recv_exact(self, count: int, what: str, at_boundary: bool = False) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except socket.timeout as exc:
                _wire_fault("timeout")
                raise ProtocolError(f"timed out waiting for {what}") from exc
            except (ConnectionResetError, OSError) as exc:
                _wire_fault("disconnect")
                raise ProtocolError(
                    f"peer connection lost while reading {what}: {exc}"
                ) from exc
            if not chunk:
                _wire_fault("disconnect")
                if at_boundary and remaining == count:
                    raise ConnectionClosed(
                        f"peer closed the connection before {what}"
                    )
                raise ProtocolError(
                    f"peer closed the connection while reading {what} "
                    f"({count - remaining} of {count} bytes arrived)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
            self.bytes_received += len(chunk)
        return b"".join(chunks)

    def detach(self) -> socket.socket:
        """Hand off the underlying socket and retire this wrapper.

        Used by the trainer server's accept thread to hand an accepted
        socket to its event loop.  The wrapper reads as closed
        afterwards (so accounting sees it gone) but the socket itself is
        left untouched — the caller owns it from here.
        """
        if self._closed:
            raise ProtocolError("cannot detach a closed connection")
        self._closed = True
        sock, self._sock = self._sock, None
        return sock

    # -- polling -------------------------------------------------------------

    def readable(self) -> bool:
        """True when unread peer data is buffered on the socket."""
        if self._closed:
            return False
        ready, _, _ = select.select([self._sock], [], [], 0)
        if not ready:
            return False
        # EOF also reports readable; peek to tell data from close.
        try:
            return bool(self._sock.recv(1, socket.MSG_PEEK))
        except (BlockingIOError, socket.timeout):
            return False
        except OSError:
            return False

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run on this endpoint.

        A blocked peer thread whose receive fails can consult this to
        tell a local, deliberate close (server drain) from a genuine
        peer fault.
        """
        return self._closed

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()

    def __enter__(self) -> "WireConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _MemoryPipe:
    """One direction of an in-memory connection: a frame queue.

    Frames are atomic (no mid-frame truncation is representable), so
    the reader only ever observes frame boundaries — exactly the
    guarantee the TCP framing layer provides on top of the stream.
    """

    def __init__(self) -> None:
        self.frames: "collections.deque[bytes]" = collections.deque()
        self.condition = threading.Condition()
        self.writer_closed = False  # EOF for the reader
        self.reader_closed = False  # broken pipe for the writer


class MemoryConnection:
    """A :class:`WireConnection`-shaped endpoint over in-process queues.

    :func:`memory_pair` returns two of these wired back to back.  The
    failure surface mirrors TCP: sending after the peer closed raises
    :class:`ProtocolError` (broken pipe), receiving after the peer
    closed raises :class:`ConnectionClosed` (EOF at a frame boundary),
    and a *local* :meth:`close` wakes this endpoint's own blocked
    receive with a plain :class:`ProtocolError` — the force-close-
    during-drain semantics the trainer server relies on.  Byte and
    fault accounting match :class:`WireConnection` (including the
    4-byte frame header), so per-phase byte counts are identical
    across transports.
    """

    #: Transport label for session telemetry (``transport="memory"``).
    transport = "memory"

    def __init__(
        self,
        inbound: _MemoryPipe,
        outbound: _MemoryPipe,
        timeout: Optional[float] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        if max_frame_bytes < 1:
            raise ValidationError("max_frame_bytes must be positive")
        self._in = inbound
        self._out = outbound
        self._timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self.bytes_sent = 0
        self.bytes_received = 0
        self._closed = False

    # -- framing -------------------------------------------------------------

    def send_frame(self, data: bytes) -> int:
        if len(data) > self.max_frame_bytes:
            _wire_fault("oversized-send")
            raise ProtocolError(
                f"frame of {len(data)} bytes exceeds the "
                f"{self.max_frame_bytes}-byte frame cap"
            )
        with self._out.condition:
            if self._closed or self._out.reader_closed:
                _wire_fault("disconnect")
                raise ProtocolError(
                    "peer connection lost during send: pipe closed"
                )
            self._out.frames.append(bytes(data))
            self._out.condition.notify_all()
        frame_len = _HEADER.size + len(data)
        self.bytes_sent += frame_len
        _count_wire_bytes("sent", frame_len)
        return frame_len

    def recv_frame(self) -> bytes:
        deadline = (
            time.monotonic() + self._timeout if self._timeout is not None else None
        )
        with self._in.condition:
            while True:
                if self._in.frames:
                    data = self._in.frames.popleft()
                    break
                if self._closed:
                    _wire_fault("disconnect")
                    raise ProtocolError(
                        "peer connection lost while reading frame header: "
                        "connection closed locally"
                    )
                if self._in.writer_closed:
                    _wire_fault("disconnect")
                    raise ConnectionClosed(
                        "peer closed the connection before frame header"
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        _wire_fault("timeout")
                        raise ProtocolError("timed out waiting for frame header")
                self._in.condition.wait(remaining)
        self.bytes_received += _HEADER.size + len(data)
        _count_wire_bytes("received", _HEADER.size + len(data))
        return data

    # -- polling -------------------------------------------------------------

    def readable(self) -> bool:
        with self._in.condition:
            return bool(self._in.frames) and not self._closed

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._out.condition:
            self._out.writer_closed = True  # peer's reads see EOF
            self._out.condition.notify_all()
        with self._in.condition:
            self._in.reader_closed = True  # peer's sends see broken pipe
            self._in.condition.notify_all()  # wake our own blocked recv

    def __enter__(self) -> "MemoryConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def memory_pair(
    timeout: Optional[float] = None,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> Tuple[MemoryConnection, MemoryConnection]:
    """Two in-memory connection endpoints wired back to back.

    A drop-in replacement for a connected TCP pair in hermetic tests
    (no sockets, no ports, no ``socket`` marker) and the in-memory leg
    of the cross-transport trace conformance suite.
    """
    a_to_b = _MemoryPipe()
    b_to_a = _MemoryPipe()
    first = MemoryConnection(b_to_a, a_to_b, timeout, max_frame_bytes)
    second = MemoryConnection(a_to_b, b_to_a, timeout, max_frame_bytes)
    return first, second


def listen(
    host: str = "127.0.0.1", port: int = 0, backlog: int = 4
) -> socket.socket:
    """Open a listening TCP socket (``port=0`` picks a free port)."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        server.bind((host, port))
        server.listen(backlog)
    except OSError as exc:
        server.close()
        raise ProtocolError(f"cannot listen on {host}:{port}: {exc}") from exc
    return server


#: Errno values that mean the listening socket itself is gone (closed
#: from another thread), as opposed to a transient accept-time fault
#: such as ``EMFILE`` under descriptor pressure.
_LISTENER_CLOSED_ERRNOS = frozenset({errno.EBADF, errno.EINVAL, errno.ENOTSOCK})


def accept(
    server: socket.socket,
    timeout: Optional[float] = None,
    connection_timeout: Optional[float] = None,
) -> WireConnection:
    """Accept one peer connection as a :class:`WireConnection`.

    ``timeout`` bounds only the wait for a peer to arrive; the accepted
    connection's per-operation timeout is ``connection_timeout``
    (default ``None`` — no timeout), *never* the accept timeout.
    Earlier revisions handed the accepted connection the accept timeout,
    which gave direct callers a surprise per-op deadline (or a
    forever-blocking connection when accept had none).

    Stop conditions raise typed subclasses — :class:`AcceptTimeout`
    when no peer arrived, :class:`ListenerClosed` when the listening
    socket was closed under us — while transient accept faults (e.g.
    ``EMFILE`` under load) raise plain :class:`ProtocolError`, so a
    serve loop can keep serving through the latter.
    """
    try:
        server.settimeout(timeout)
        sock, _ = server.accept()
    except socket.timeout as exc:
        raise AcceptTimeout("timed out waiting for a peer to connect") from exc
    except OSError as exc:
        if exc.errno in _LISTENER_CLOSED_ERRNOS or server.fileno() == -1:
            raise ListenerClosed(
                f"listening socket is closed: {exc}"
            ) from exc
        raise ProtocolError(f"accept failed: {exc}") from exc
    return WireConnection(sock, timeout=connection_timeout)


#: Connect-time errno values worth retrying: the peer may simply not be
#: listening *yet* (refused, reset, aborted) or the path may be
#: momentarily down (unreachable, timed out).
_RETRYABLE_CONNECT_ERRNOS = frozenset({
    errno.ECONNREFUSED,
    errno.ECONNRESET,
    errno.ECONNABORTED,
    errno.EHOSTUNREACH,
    errno.ENETUNREACH,
    errno.ETIMEDOUT,
})


def _retryable_connect_error(exc: OSError) -> bool:
    """True when retrying the connection could plausibly succeed.

    Name-resolution failures (``socket.gaierror``), bad arguments, and
    permission errors are permanent: retrying a bad hostname would only
    burn the full ``attempts x retry_delay_s`` budget before failing
    with the same error.
    """
    if isinstance(exc, socket.gaierror):
        return False
    if isinstance(exc, (ConnectionRefusedError, socket.timeout)):
        return True
    return exc.errno in _RETRYABLE_CONNECT_ERRNOS


def connect(
    host: str,
    port: int,
    timeout: Optional[float] = None,
    attempts: int = 1,
    retry_delay_s: float = 0.05,
) -> WireConnection:
    """Connect to a listening peer, retrying refused connections.

    A trainer service may still be binding its port (or restarting)
    when the client first dials; ``attempts > 1`` retries with a linear
    backoff, bumping ``repro_wire_retries_total`` per retry, and raises
    :class:`ProtocolError` once the budget is exhausted.  Only
    transient failures are retried — refused/reset connections,
    timeouts, unreachable hosts; a permanent error such as a
    name-resolution failure fails fast on the first attempt.
    """
    if attempts < 1:
        raise ValidationError(f"attempts must be at least 1, got {attempts}")
    if retry_delay_s < 0:
        raise ValidationError("retry_delay_s must be non-negative")
    last_error: Optional[Exception] = None
    for attempt in range(attempts):
        if attempt:
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "repro_wire_retries_total",
                    "Client connection retries against a busy peer",
                ).inc()
            time.sleep(retry_delay_s * attempt)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect((host, port))
            return WireConnection(sock, timeout=timeout)
        except OSError as exc:
            sock.close()
            last_error = exc
            if not _retryable_connect_error(exc):
                _wire_fault("connect-failed")
                raise ProtocolError(
                    f"cannot connect to {host}:{port} "
                    f"(not retryable): {exc}"
                ) from exc
    _wire_fault("connect-failed")
    raise ProtocolError(
        f"cannot connect to {host}:{port} after {attempts} attempts: "
        f"{last_error}"
    ) from last_error
