"""End-to-end OMPE execution.

:func:`execute_ompe` runs both roles in-process through a measured
channel and returns the receiver's secret output plus a full
:class:`~repro.net.runner.ProtocolReport` (transcript and simulated
network time).  This is the single entry point the
classification and similarity protocols build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.ompe.config import OMPEConfig
from repro.core.ompe.function import OMPEFunction
from repro.core.ompe.precompute import HiddenInput
from repro.core.ompe.receiver import OMPEReceiver
from repro.core.ompe.sender import Flags, OMPESender
from repro.exceptions import OMPEError
from repro.math.polynomials import Number
from repro.net.channel import LinkModel
from repro.net.party import connect_parties
from repro.net.runner import ProtocolReport, channel_report, finish_report
from repro.utils.rng import ReproRandom


@dataclass(frozen=True)
class OMPEOutcome:
    """Result of one OMPE run of ``k ≥ 1`` functions.

    ``values[j]`` is the receiver's output ``r_j P_j(α_j) + o_j``.  The
    sender's secret randomizers are *not* part of the receiver's view;
    they are surfaced here (from the sender object) only for tests and
    for higher protocols where the same party plays the sender in a
    later phase (similarity evaluation needs ``r_am``, ``r_aw``,
    ``r_b``).  A role that does not hold a field has ``None`` there.
    ``value``, ``amplifier`` and ``offset`` read the one function of a
    ``k = 1`` run.
    """

    values: Optional[Tuple[Number, ...]]
    amplifiers: Optional[Tuple[Number, ...]]
    offsets: Optional[Tuple[Number, ...]]
    report: ProtocolReport

    @property
    def value(self) -> Optional[Number]:
        return _only(self.values)

    @property
    def amplifier(self) -> Optional[Number]:
        return _only(self.amplifiers)

    @property
    def offset(self) -> Optional[Number]:
        return _only(self.offsets)


def _only(items: Optional[Tuple[Number, ...]]) -> Optional[Number]:
    if items is None:
        return None
    if len(items) != 1:
        raise OMPEError(f"the run evaluated {len(items)} functions, not one")
    return items[0]


def execute_ompe(
    function: Union[OMPEFunction, Sequence[OMPEFunction]],
    input_vector: Sequence[Number],
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    amplify: Flags = True,
    offset: Flags = False,
    link: Optional[LinkModel] = None,
    sender_name: str = "alice",
    receiver_name: str = "bob",
    sender_pool=None,
    receiver_hidden: Optional[HiddenInput] = None,
) -> OMPEOutcome:
    """Run the full OMPE protocol between two in-process parties.

    ``function`` is one :class:`OMPEFunction` or a sequence of ``k`` of
    them; ``input_vector`` is then ``α₁‖…‖α_k``, function ``j`` reading
    its own slice, and ``amplify``/``offset`` are one flag for all or
    one per function.  ``sender_pool`` is an optional
    :mod:`repro.core.ompe.precompute` sender pool whose bundles the
    sender pops instead of drawing its randomness when the query
    arrives (the paper's Section VI-B.1 optimization).
    ``receiver_hidden`` is the receiver's input hidden before the call
    (:class:`~repro.core.ompe.precompute.HiddenInput`), for example by
    a receiver pool's ``hide``.
    """
    config = config or OMPEConfig()
    root = ReproRandom(seed)
    sender = OMPESender(
        sender_name,
        function,
        config,
        rng=root.fork("sender"),
        amplify=amplify,
        offset=offset,
        pool=sender_pool,
    )
    receiver = OMPEReceiver(
        receiver_name,
        input_vector,
        config,
        rng=root.fork("receiver"),
        hidden=receiver_hidden,
        function_count=len(sender.functions),
    )
    channel = connect_parties(sender, receiver, link=link) if link else connect_parties(
        sender, receiver
    )

    with obs.get_tracer().span(
        "ompe",
        phase="protocol",
        arity=sender.arity,
        degree=sender.degree,
        m=config.cover_count(sender.degree),
        M=config.pair_count(sender.degree),
    ) as root_span:
        receiver.send_request()
        sender.handle_request()
        receiver.handle_params()
        sender.handle_points()
        receiver.handle_ot_setups()
        sender.handle_choices()
        values = receiver.finish()
        root_span.set(total_bytes=channel.transcript.total_bytes())

    metrics = obs.get_metrics()
    if metrics.enabled:
        metrics.counter(
            "repro_ompe_runs_total", "Completed OMPE protocol executions"
        ).inc()

    report = finish_report(values, channel)
    return OMPEOutcome(
        values=values,
        amplifiers=sender.amplifiers,
        offsets=sender.offsets,
        report=report,
    )


def run_ompe_sender(
    function: Union[OMPEFunction, Sequence[OMPEFunction]],
    channel,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    amplify: Flags = True,
    offset: Flags = False,
    name: str = "alice",
) -> OMPEOutcome:
    """Run only the *sender* role over an already-connected channel.

    The distributed counterpart of :func:`execute_ompe`: each process
    calls its own role driver against its endpoint of a
    :class:`~repro.net.mux.MuxChannel` (any blocking channel with the
    same contract works).  The drivers reproduce ``execute_ompe``'s
    seed discipline exactly — ``ReproRandom(seed).fork("sender")`` /
    ``.fork("receiver")`` — so a split run with the same seed produces
    bit-identical messages, masked values, and outputs.

    The returned outcome carries this role's view only: ``values`` is
    ``None`` (the output belongs to the receiver) and the report's
    transcript is this endpoint's copy of the conversation.
    """
    config = config or OMPEConfig()
    sender = OMPESender(
        name,
        function,
        config,
        rng=ReproRandom(seed).fork("sender"),
        amplify=amplify,
        offset=offset,
    )
    sender.connect(channel)
    with obs.get_tracer().span(
        "ompe.sender", party=name, phase="protocol", degree=sender.degree
    ):
        sender.handle_request()
        sender.handle_points()
        sender.handle_choices()
    # No drain assertion here: the sender's final step is a send, so any
    # data readable at this instant is the peer's *next* protocol phase
    # racing ahead on a multiplexed connection, not an undrained message
    # of this run.  The receiver side keeps the strict check.
    return OMPEOutcome(
        values=None,
        amplifiers=sender.amplifiers,
        offsets=sender.offsets,
        report=channel_report(channel),
    )


def run_ompe_receiver(
    input_vector: Sequence[Number],
    channel,
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    name: str = "bob",
    function_count: int = 1,
    hidden: Optional[HiddenInput] = None,
) -> OMPEOutcome:
    """Run only the *receiver* role over an already-connected channel.

    See :func:`run_ompe_sender`.  ``values`` are the receiver's secret
    outputs ``r_j P_j(α_j) + o_j`` of the sender's ``function_count``
    functions; the sender's randomizers are not in this role's view, so
    ``amplifiers``/``offsets`` are ``None``.  ``hidden`` is the input's
    :class:`~repro.core.ompe.precompute.HiddenInput`, if it was hidden
    before the run.  The
    receiver side owns the ``repro_ompe_runs_total`` increment, keeping
    the shared-registry count identical to an in-process run.
    """
    config = config or OMPEConfig()
    receiver = OMPEReceiver(
        name,
        input_vector,
        config,
        rng=ReproRandom(seed).fork("receiver"),
        hidden=hidden,
        function_count=function_count,
    )
    receiver.connect(channel)
    with obs.get_tracer().span(
        "ompe.receiver", party=name, phase="protocol"
    ):
        receiver.send_request()
        receiver.handle_params()
        receiver.handle_ot_setups()
        values = receiver.finish()
    metrics = obs.get_metrics()
    if metrics.enabled:
        metrics.counter(
            "repro_ompe_runs_total", "Completed OMPE protocol executions"
        ).inc()
    report = finish_report(values, channel)
    return OMPEOutcome(values=values, amplifiers=None, offsets=None, report=report)
