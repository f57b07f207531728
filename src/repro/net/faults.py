"""Fault-injecting channel wrappers for robustness testing.

The in-memory :class:`~repro.net.channel.Channel` is reliable and
ordered; real deployments are not.  These wrappers let the test suite
(and operators evaluating the protocols) inject the classic failure
modes — message drops, delays, duplication, and payload corruption —
and verify that the protocols *abort loudly* (typed errors) rather
than hang or silently return wrong answers.  They wrap an existing
channel rather than subclassing it, so any protocol code written
against the channel interface runs unmodified.

Every injected fault is observable (:mod:`repro.obs`): wrappers bump
the ``repro_faults_injected_total`` counter (labelled by ``kind``) and
annotate the innermost open span with ``faults.<kind>`` attributes, so
a traced protocol run shows exactly which phase absorbed the faults.
:class:`RetryingChannel` adds the matching *recovery* path — resend on
drop — and reports ``repro_net_retries_total``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro import obs
from repro.exceptions import ProtocolError, ValidationError
from repro.net.channel import Channel
from repro.utils.rng import ReproRandom


def _record_fault(kind: str) -> None:
    """Bump fault metrics and annotate the current span."""
    obs.record_fault(kind)


class _ForwardingChannel:
    """Forwards the channel contract to the wrapped ``inner`` channel.

    Each fault wrapper overrides only :meth:`send`, where its fault
    happens; everything a protocol reads or receives passes through.
    """

    def __init__(self, inner) -> None:
        self.inner = inner

    @property
    def parties(self):
        return self.inner.parties

    @property
    def transcript(self):
        return self.inner.transcript

    @property
    def simulated_time(self):
        return self.inner.simulated_time

    def receive(self, recipient: str, expected_type: Optional[str] = None) -> Any:
        return self.inner.receive(recipient, expected_type)

    def pending(self, recipient: str) -> int:
        return self.inner.pending(recipient)

    def assert_drained(self) -> None:
        self.inner.assert_drained()


class DroppingChannel(_ForwardingChannel):
    """Drops each sent message independently with a fixed probability.

    A dropped message simply never arrives; the peer's next ``receive``
    raises :class:`ProtocolError` (empty inbox) — the library's
    fail-loud contract for lost messages in a synchronous protocol.
    """

    def __init__(
        self,
        inner: Channel,
        drop_probability: float,
        rng: Optional[ReproRandom] = None,
    ) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValidationError(
                f"drop_probability must be in [0, 1], got {drop_probability}"
            )
        super().__init__(inner)
        self.drop_probability = drop_probability
        self._rng = rng or ReproRandom()
        self.dropped = 0

    def send(self, sender: str, msg_type: str, payload: Any):
        if self._rng.uniform(0.0, 1.0) < self.drop_probability:
            self.dropped += 1
            _record_fault("drop")
            return None
        return self.inner.send(sender, msg_type, payload)


class DuplicatingChannel(_ForwardingChannel):
    """Delivers each message twice with a fixed probability.

    Duplicates desynchronize a lock-step protocol: the extra copy is
    consumed by a later ``receive`` expecting a different type, which
    raises — again, loud failure over silent confusion.
    """

    def __init__(
        self,
        inner: Channel,
        duplicate_probability: float,
        rng: Optional[ReproRandom] = None,
    ) -> None:
        if not 0.0 <= duplicate_probability <= 1.0:
            raise ValidationError(
                f"duplicate_probability must be in [0, 1], got {duplicate_probability}"
            )
        super().__init__(inner)
        self.duplicate_probability = duplicate_probability
        self._rng = rng or ReproRandom()
        self.duplicated = 0

    def send(self, sender: str, msg_type: str, payload: Any):
        message = self.inner.send(sender, msg_type, payload)
        if self._rng.uniform(0.0, 1.0) < self.duplicate_probability:
            self.duplicated += 1
            _record_fault("duplicate")
            self.inner.send(sender, msg_type, payload)
        return message


class CorruptingChannel(_ForwardingChannel):
    """Applies a payload-mutating function to each message with a
    fixed probability.

    The mutator receives the payload and returns a corrupted version;
    the default flips the first byte of any ``bytes`` payload it finds
    (recursing through tuples), modelling bit rot that checksummed
    transports would normally catch.
    """

    def __init__(
        self,
        inner: Channel,
        corrupt_probability: float,
        mutator: Optional[Callable[[Any], Any]] = None,
        rng: Optional[ReproRandom] = None,
    ) -> None:
        if not 0.0 <= corrupt_probability <= 1.0:
            raise ValidationError(
                f"corrupt_probability must be in [0, 1], got {corrupt_probability}"
            )
        super().__init__(inner)
        self.corrupt_probability = corrupt_probability
        self.mutator = mutator or _flip_first_byte
        self._rng = rng or ReproRandom()
        self.corrupted = 0

    def send(self, sender: str, msg_type: str, payload: Any):
        if self._rng.uniform(0.0, 1.0) < self.corrupt_probability:
            self.corrupted += 1
            _record_fault("corrupt")
            payload = self.mutator(payload)
        return self.inner.send(sender, msg_type, payload)


class DelayingChannel(_ForwardingChannel):
    """Adds extra simulated latency to each message with a fixed
    probability.

    Delays do not reorder messages (the channel stays FIFO); they only
    inflate the simulated clock, modelling congested links.  Each
    injected delay is observable as a ``faults.delay`` span attribute
    and a ``repro_faults_injected_total{kind="delay"}`` increment.
    """

    def __init__(
        self,
        inner: Channel,
        delay_s: float,
        delay_probability: float = 1.0,
        rng: Optional[ReproRandom] = None,
    ) -> None:
        if delay_s < 0:
            raise ValidationError(f"delay must be non-negative, got {delay_s}")
        if not 0.0 <= delay_probability <= 1.0:
            raise ValidationError(
                f"delay_probability must be in [0, 1], got {delay_probability}"
            )
        super().__init__(inner)
        self.delay_s = delay_s
        self.delay_probability = delay_probability
        self._rng = rng or ReproRandom()
        self.delayed = 0
        self.extra_delay_s = 0.0

    @property
    def simulated_time(self):
        return self.inner.simulated_time + self.extra_delay_s

    def send(self, sender: str, msg_type: str, payload: Any):
        message = self.inner.send(sender, msg_type, payload)
        if self._rng.uniform(0.0, 1.0) < self.delay_probability:
            self.delayed += 1
            self.extra_delay_s += self.delay_s
            _record_fault("delay")
        return message


class RetryingChannel(_ForwardingChannel):
    """Resends messages a lossy inner channel dropped — the recovery
    path matching :class:`DroppingChannel`.

    The inner channel signals a drop by returning ``None`` from
    ``send`` (the :class:`DroppingChannel` contract); this wrapper
    retries up to ``max_retries`` times and raises
    :class:`ProtocolError` when the message never gets through.
    Retries are observable as ``net.retries`` span attributes and the
    ``repro_net_retries_total`` counter.
    """

    def __init__(self, inner, max_retries: int = 3) -> None:
        if max_retries < 1:
            raise ValidationError(
                f"max_retries must be at least 1, got {max_retries}"
            )
        super().__init__(inner)
        self.max_retries = max_retries
        self.retries = 0

    def send(self, sender: str, msg_type: str, payload: Any):
        message = self.inner.send(sender, msg_type, payload)
        attempts = 0
        while message is None and attempts < self.max_retries:
            attempts += 1
            message = self.inner.send(sender, msg_type, payload)
        if attempts:
            self.retries += attempts
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "repro_net_retries_total",
                    "Message resends after injected drops",
                ).inc(attempts)
            tracer = obs.get_tracer()
            if tracer.enabled:
                tracer.current().add("net.retries", attempts)
        if message is None:
            raise ProtocolError(
                f"{msg_type!r} from {sender} lost after "
                f"{self.max_retries} retries"
            )
        return message


def _flip_first_byte(payload: Any) -> Any:
    """Flip one bit in the first ``bytes`` leaf of the payload."""
    if isinstance(payload, (bytes, bytearray)) and len(payload) > 0:
        mutated = bytearray(payload)
        mutated[0] ^= 0x01
        return bytes(mutated)
    if isinstance(payload, tuple):
        items = list(payload)
        for index, item in enumerate(items):
            mutated = _flip_first_byte(item)
            if mutated is not item:
                items[index] = mutated
                return tuple(items)
        return payload
    if hasattr(payload, "__dataclass_fields__"):
        import dataclasses

        for field in payload.__dataclass_fields__:
            value = getattr(payload, field)
            mutated = _flip_first_byte(value)
            if mutated is not value:
                return dataclasses.replace(payload, **{field: mutated})
    return payload
