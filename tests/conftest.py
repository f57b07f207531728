"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

# One OpenBLAS thread for the whole suite, as the CLI sets it: unpinned,
# each small polynomial-kernel gram would otherwise pay a cross-thread
# hand-off many times its own cost.  Set before anything loads numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import signal  # noqa: E402
import socket  # noqa: E402
import threading  # noqa: E402

import pytest  # noqa: E402

from repro.core.ompe import OMPEConfig  # noqa: E402
from repro.math.groups import SchnorrGroup, fast_group  # noqa: E402
from repro.utils.rng import ReproRandom  # noqa: E402

#: Hard wall-clock ceiling for each ``socket``-marked test.  Socket
#: tests block on real I/O; a deadlocked pairing must fail loudly, not
#: hang the suite.  Implemented with SIGALRM (no pytest-timeout
#: dependency), so it applies on the main thread of POSIX platforms —
#: exactly where CI runs the socket job.
SOCKET_TEST_TIMEOUT_S = 60


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Hard per-test timeout for ``socket``-marked tests.

    A watchdog thread re-sends SIGALRM to the main thread every second
    past the deadline rather than arming a one-shot ``signal.alarm``.
    The one-shot form breaks under the v2 event-loop stack: if the
    single alarm lands while the main thread is parked in an
    EINTR-retrying wait (``queue.get``, ``Event.wait``, joining the mux
    loop thread), or the raised ``TimeoutError`` is swallowed by a
    broad ``except`` inside the code under test, the alarm is spent and
    the test hangs forever.  Repeating the signal until the test body
    actually returns makes the deadline inescapable.
    """
    if item.get_closest_marker("socket") and hasattr(signal, "pthread_kill"):
        finished = threading.Event()
        main_thread = threading.main_thread()

        def _expired(signum, frame):
            if finished.is_set():
                return  # late signal after the test body already returned
            raise TimeoutError(
                f"socket test exceeded the {SOCKET_TEST_TIMEOUT_S}s "
                f"hard timeout"
            )

        def _watchdog():
            if finished.wait(SOCKET_TEST_TIMEOUT_S):
                return
            while not finished.wait(1.0):
                try:
                    signal.pthread_kill(main_thread.ident, signal.SIGALRM)
                except (ProcessLookupError, ValueError):
                    return

        previous = signal.signal(signal.SIGALRM, _expired)
        watchdog = threading.Thread(
            target=_watchdog, name="socket-test-watchdog", daemon=True
        )
        watchdog.start()
        try:
            yield
        finally:
            finished.set()
            watchdog.join(timeout=5.0)
            signal.signal(signal.SIGALRM, previous)
    else:
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Refuse TCP connects from every test not marked ``socket``.

    The hermetic CI legs run ``-m "not socket"``; a test that opens a
    TCP connection without the marker would dial out there.  The guard
    spans the test's setup, call and teardown, so fixtures are held to
    it too.  Only ``connect``/``connect_ex`` are refused: binding a
    loopback listener (every ``TrainerServer`` does, even one driven
    over :func:`repro.net.wire.memory_pair`) stays allowed.
    """
    if item.get_closest_marker("socket"):
        yield
        return

    def refuse(original):
        def guarded(sock, address):
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                pytest.fail(
                    f"{item.nodeid} is not marked 'socket' but connects "
                    f"to {address!r}"
                )
            return original(sock, address)

        return guarded

    with pytest.MonkeyPatch.context() as patch:
        for name in ("connect", "connect_ex"):
            patch.setattr(
                socket.socket, name, refuse(getattr(socket.socket, name))
            )
        yield


@pytest.fixture
def rng() -> ReproRandom:
    """A deterministic random stream, fresh per test."""
    return ReproRandom(20160627)


@pytest.fixture(scope="session")
def group() -> SchnorrGroup:
    """The shared 256-bit OT group (fast; generated once per session)."""
    return fast_group()


@pytest.fixture(scope="session")
def fast_config(group) -> OMPEConfig:
    """A small-parameter OMPE config for fast protocol tests."""
    return OMPEConfig(security_degree=2, cover_expansion=2, group=group)
