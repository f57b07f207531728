"""Fuzz and conformance tests for the protocol-v2 mux layer.

Everything here is hermetic — the frame codec
(:func:`encode_mux_frame` / :func:`split_mux_frame`) and the
demultiplexer state machine (:class:`MuxRouter`) are pure and I/O-free,
so Hypothesis can drive them directly with hostile inputs: unknown /
duplicate / closed session ids, truncated and bit-flipped frames,
arbitrarily interleaved and out-of-order delivery.  The contract under
test: every hostile input raises a *typed* :class:`MuxError` subclass
(never a bare crash), errors leave the router state untouched, and no
frame is ever routed to a session other than the one in its envelope.
The last class drives a real client connection over an in-memory pair
and checks what it keeps once its sessions finish.
"""

import queue
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.exceptions import ProtocolError, ValidationError
from repro.ml.svm.model import make_linear_model
from repro.net import wire
from repro.net.mux import (
    ACCEPT,
    CLOSE,
    ERROR,
    OPEN,
    ClosedSessionError,
    DuplicateSessionError,
    MuxChannel,
    MuxError,
    WELCOME,
    MuxClientConnection,
    MuxFrameError,
    MuxRouter,
    MuxSession,
    UnknownSessionError,
)
from repro.net.service import TrainerClient, TrainerServer
from repro.obs import MetricsRegistry
from repro.utils.serialization import (
    CONTROL_SESSION_ID,
    MAX_SESSION_ID,
    encode_message,
    encode_mux_frame,
    peek_message_type,
    split_mux_frame,
)

FAULTS = "repro_wire_faults_total"


@pytest.fixture
def registry():
    """A live metrics registry installed for the test, then restored."""
    previous = obs.get_metrics()
    registry = MetricsRegistry()
    obs.set_metrics(registry)
    try:
        yield registry
    finally:
        obs.set_metrics(previous)


def frame(session_id, msg_type, payload=None):
    """One complete v2 mux frame (without the transport length prefix)."""
    return encode_mux_frame(session_id, encode_message(msg_type, payload))


session_ids = st.integers(min_value=0, max_value=MAX_SESSION_ID)
msg_types = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=24,
)
payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


class TestCodec:
    @given(session_id=session_ids, msg_type=msg_types, payload=payloads)
    def test_round_trip(self, session_id, msg_type, payload):
        inner = encode_message(msg_type, payload)
        routed_id, message = split_mux_frame(encode_mux_frame(session_id, inner))
        assert routed_id == session_id
        assert message == inner
        assert peek_message_type(message) == msg_type

    @given(session_id=session_ids, msg_type=msg_types, payload=payloads,
           cut=st.integers(min_value=0, max_value=5))
    def test_truncated_header_rejected(self, session_id, msg_type, payload, cut):
        """Any prefix shorter than the 6-byte envelope is a typed error."""
        data = frame(session_id, msg_type, payload)
        with pytest.raises(ValidationError):
            split_mux_frame(data[:cut])

    @given(session_id=session_ids, msg_type=msg_types, payload=payloads,
           version=st.integers(min_value=0, max_value=255).filter(lambda v: v != 2))
    def test_wrong_version_rejected(self, session_id, msg_type, payload, version):
        data = frame(session_id, msg_type, payload)
        with pytest.raises(ValidationError):
            split_mux_frame(bytes([version]) + data[1:])

    @given(session_id=st.one_of(
        st.integers(max_value=-1),
        st.integers(min_value=MAX_SESSION_ID + 1),
        st.booleans(),
        st.floats(allow_nan=False),
    ))
    def test_bad_session_id_rejected_on_encode(self, session_id):
        with pytest.raises(ValidationError):
            encode_mux_frame(session_id, encode_message("x", None))

    def test_empty_inner_message_rejected(self):
        with pytest.raises(ValidationError):
            encode_mux_frame(1, b"")


class TestRouterHostileFrames:
    @given(data=st.binary(max_size=256))
    @settings(max_examples=300)
    def test_arbitrary_bytes_never_crash(self, data):
        """Random bytes either route (if they happen to be a valid open
        frame) or raise a typed MuxError — nothing else escapes, and an
        error never mutates the session table."""
        router = MuxRouter()
        before = router.active_sessions()
        try:
            routed = router.route(data)
        except MuxError:
            assert router.active_sessions() == before
        else:
            assert routed.action in ("open", "deliver", "close", "control")

    @given(session_id=session_ids.filter(lambda s: s != CONTROL_SESSION_ID),
           msg_type=msg_types.filter(lambda t: t != OPEN))
    def test_unknown_session_is_typed(self, session_id, msg_type):
        router = MuxRouter()
        with pytest.raises(UnknownSessionError) as excinfo:
            router.route(frame(session_id, msg_type))
        assert excinfo.value.session_id == session_id
        assert router.active_sessions() == ()

    @given(session_id=session_ids.filter(lambda s: s != CONTROL_SESSION_ID))
    def test_duplicate_open_is_typed(self, session_id):
        router = MuxRouter()
        assert router.route(frame(session_id, OPEN, {"kind": "classify"})).action == "open"
        with pytest.raises(DuplicateSessionError) as excinfo:
            router.route(frame(session_id, OPEN, {"kind": "classify"}))
        assert excinfo.value.session_id == session_id
        # The original session survives the hostile reopen untouched.
        assert router.active_sessions() == (session_id,)
        assert router.route(frame(session_id, "ompe/points", b"x")).action == "deliver"

    @given(session_id=session_ids.filter(lambda s: s != CONTROL_SESSION_ID),
           closer=st.sampled_from([ERROR, CLOSE]),
           msg_type=msg_types)
    def test_closed_session_frames_are_typed(self, session_id, closer, msg_type):
        router = MuxRouter()
        router.route(frame(session_id, OPEN, None))
        assert router.route(frame(session_id, closer, "done")).action == "close"
        expected = (
            DuplicateSessionError if msg_type == OPEN else ClosedSessionError
        )
        with pytest.raises(expected) as excinfo:
            router.route(frame(session_id, msg_type))
        assert excinfo.value.session_id == session_id

    def test_open_on_control_session_is_frame_error(self):
        router = MuxRouter()
        with pytest.raises(MuxFrameError):
            router.route(frame(CONTROL_SESSION_ID, OPEN, None))

    @given(msg_type=msg_types.filter(
        lambda t: t not in (OPEN, CLOSE)
        and not t.startswith("admin/")
    ))
    def test_unexpected_control_type_is_frame_error(self, msg_type):
        router = MuxRouter()
        with pytest.raises(MuxFrameError):
            router.route(frame(CONTROL_SESSION_ID, msg_type))

    def test_control_close_and_admin_route_as_control(self):
        router = MuxRouter()
        routed = router.route(frame(CONTROL_SESSION_ID, "admin/health", None))
        assert routed.action == "control"
        assert routed.msg_type == "admin/health"
        routed = router.route(frame(CONTROL_SESSION_ID, CLOSE, None))
        assert routed.action == "control"

    @given(session_id=session_ids.filter(lambda s: s != CONTROL_SESSION_ID),
           garbage=st.binary(min_size=1, max_size=32))
    def test_undecodable_inner_message_is_frame_error(self, session_id, garbage):
        """A well-formed envelope around an undecodable message is
        connection-fatal (frame boundaries can no longer be trusted)."""
        header = frame(session_id, "x")[:6]
        try:
            peek_message_type(garbage)
        except ValidationError:
            with pytest.raises(MuxFrameError):
                MuxRouter().route(header + garbage)


class TestRouterInterleaving:
    @given(
        data=st.data(),
        sessions=st.lists(
            session_ids.filter(lambda s: s != CONTROL_SESSION_ID),
            min_size=1, max_size=8, unique=True,
        ),
    )
    @settings(max_examples=200)
    def test_no_cross_contamination(self, data, sessions):
        """Frames from many sessions, interleaved and out of order
        across sessions (in order within each — TCP guarantees that),
        each route to exactly the session in their envelope."""
        per_session = {
            sid: [frame(sid, OPEN, {"kind": "classify", "n": sid})]
            + [
                frame(sid, f"step/{index}", {"sid": sid, "index": index})
                for index in range(data.draw(
                    st.integers(min_value=0, max_value=4), label=f"len{sid}"
                ))
            ]
            + [frame(sid, CLOSE, None)]
            for sid in sessions
        }
        progress = {sid: 0 for sid in sessions}
        delivered = {sid: [] for sid in sessions}
        router = MuxRouter()
        remaining = set(sessions)
        while remaining:
            sid = data.draw(
                st.sampled_from(sorted(remaining)), label="next-session"
            )
            routed = router.route(per_session[sid][progress[sid]])
            assert routed.session_id == sid
            if routed.action == "deliver":
                delivered[sid].append(routed.message)
            progress[sid] += 1
            if progress[sid] == len(per_session[sid]):
                assert routed.action == "close"
                remaining.discard(sid)
        assert router.active_sessions() == ()
        for sid in sessions:
            expected = [
                split_mux_frame(raw)[1] for raw in per_session[sid][1:-1]
            ]
            assert delivered[sid] == expected

    def test_active_and_finished_sessions_stay_disjoint(self):
        router = MuxRouter()
        router.route(frame(7, OPEN, None))
        router.route(frame(9, OPEN, None))
        router.finish(7)
        assert router.active_sessions() == (9,)
        with pytest.raises(ClosedSessionError):
            router.route(frame(7, "late", None))
        with pytest.raises(DuplicateSessionError):
            router.route(frame(7, OPEN, None))


class TestMuxSession:
    def _collect(self):
        sent = []

        def send_frame(data):
            sent.append(data)
            return len(data) + 4

        return sent, send_frame

    def test_poison_unblocks_receive(self):
        _, send_frame = self._collect()
        session = MuxSession(3, send_frame, timeout=5.0)
        session.poison(ProtocolError("peer vanished"))
        with pytest.raises(ProtocolError, match="peer vanished"):
            session.recv_message()
        # Poison is sticky: every later receive fails the same way.
        with pytest.raises(ProtocolError, match="peer vanished"):
            session.recv_message()

    def test_receive_timeout_is_typed_and_counted(self, registry):
        _, send_frame = self._collect()
        session = MuxSession(3, send_frame, timeout=0.01)
        with pytest.raises(ProtocolError, match="timed out"):
            session.recv_message()
        assert registry.counter(FAULTS).value(kind="timeout") == 1

    def test_peer_error_frame_raises_and_mutes_cancel(self):
        sent, send_frame = self._collect()
        session = MuxSession(3, send_frame, timeout=5.0)
        session.deliver(encode_message(ERROR, "server aborted"))
        with pytest.raises(ProtocolError, match="session error"):
            session.recv_message()
        # The peer already ended the session: cancelling locally must
        # not echo a session/error frame back (the peer's router would
        # count it as a closed-session fault).
        session.cancel("aborting after peer error")
        assert sent == []

    def test_peer_close_frame_raises(self):
        _, send_frame = self._collect()
        session = MuxSession(4, send_frame, timeout=5.0)
        session.deliver(encode_message(CLOSE, None))
        with pytest.raises(ProtocolError, match="closed session 4"):
            session.recv_message()

    def test_cancel_notifies_peer_once(self):
        sent, send_frame = self._collect()
        session = MuxSession(5, send_frame, timeout=5.0)
        session.cancel("caller gave up")
        assert len(sent) == 1
        session_id, message = split_mux_frame(sent[0])
        assert session_id == 5
        assert peek_message_type(message) == ERROR
        with pytest.raises(ProtocolError, match="caller gave up"):
            session.recv_message()

    def test_messages_drain_before_poison(self):
        _, send_frame = self._collect()
        session = MuxSession(6, send_frame, timeout=5.0)
        session.deliver(encode_message("ompe/points", (1, 2, 3)))
        session.poison(ProtocolError("disconnected"))
        msg_type, payload, _ = session.recv_message()
        assert (msg_type, payload) == ("ompe/points", (1, 2, 3))
        with pytest.raises(ProtocolError, match="disconnected"):
            session.recv_message()

    def test_poison_marker_is_not_undelivered_data(self):
        """A peer that hangs up right after its last frame poisons the
        finished session; the drained check must still pass.  A queued
        data frame must still fail it, poisoned or not."""
        _, send_frame = self._collect()
        session = MuxSession(1, send_frame, timeout=5.0)
        session.poison(ProtocolError("eof"))
        channel = MuxChannel("bob", "alice", session)
        assert channel.pending("bob") == 0
        channel.assert_drained()

        stale = MuxSession(2, send_frame, timeout=5.0)
        stale.deliver(encode_message("ompe/points", (1, 2, 3)))
        stale.poison(ProtocolError("eof"))
        channel = MuxChannel("bob", "alice", stale)
        assert channel.pending("bob") == 1
        with pytest.raises(ProtocolError, match="undelivered"):
            channel.assert_drained()

    def test_accept_control_round_trip(self):
        sent, send_frame = self._collect()
        session = MuxSession(8, send_frame, timeout=5.0)
        session.deliver(encode_message(ACCEPT, {"session": "s8"}))
        msg_type, payload = session.recv_control(expected=ACCEPT)
        assert msg_type == ACCEPT
        assert payload == {"session": "s8"}
        with pytest.raises(queue.Empty):
            session._inbound.get_nowait()


class TestClientConnectionState:
    def test_finished_sessions_leave_no_state(self, fast_config):
        """300 sessions on one v2 connection: once they finish, the
        client connection holds no per-session entry."""
        end_a, end_b = wire.memory_pair(timeout=30.0)
        server = TrainerServer(
            make_linear_model([0.5, 0.25], -0.125), config=fast_config
        )
        serving = threading.Thread(
            target=server.serve_connection, args=(end_a,), daemon=True
        )
        serving.start()
        try:
            with TrainerClient(
                connection=end_b, config=fast_config, protocol="v2"
            ) as client:
                for seed in range(300):
                    client.classify((0.125, -0.25), seed=seed)
                containers = {
                    name: len(value)
                    for name, value in vars(client._connection).items()
                    if isinstance(value, (dict, set, list))
                }
        finally:
            serving.join(30.0)
            server.close()
        assert containers == {"_sessions": 0}

    def test_concurrent_opens_take_distinct_ids(self):
        """Threads opening sessions at once on one connection each get
        their own id, and finished sessions leave nothing behind."""
        end_a, end_b = wire.memory_pair(timeout=30.0)

        def peer():
            end_a.recv_frame()
            end_a.send_frame(encode_message(WELCOME, {"version": 2}))
            try:
                while True:
                    end_a.recv_frame()
            except ProtocolError:
                pass  # the client closed the connection

        serving = threading.Thread(target=peer, daemon=True)
        serving.start()
        connection = MuxClientConnection(end_b, timeout=30.0)
        ids = []

        def open_many():
            for _ in range(50):
                session = connection.open_session({"kind": "classify"})
                ids.append(session.id)
                session.finish()

        workers = [threading.Thread(target=open_many) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30.0)
        finally:
            sys.setswitchinterval(interval)
            connection.close()
            serving.join(30.0)
        assert not any(worker.is_alive() for worker in workers)
        assert not serving.is_alive()
        assert sorted(ids) == list(range(1, 401))
        assert connection._sessions == {} and connection._next_id == 401
