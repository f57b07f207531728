"""Batched OMPE: many inputs, one protocol conversation.

The one-shot protocol costs 6 communication rounds per query; a client
holding ``k`` samples (the Fig. 9 workload) can evaluate all of them in
a *single* 6-round conversation by concatenating the per-query
messages: one points message carrying ``k`` independent pair lists, one
OT setup/choice/transfer exchange choosing ``k·m`` of ``k·M`` slots.
Per-query randomness stays independent (fresh masks, amplifiers, hiding
polynomials per query), so the privacy argument is unchanged — only the
round count is amortized, which matters when the link model has
non-trivial latency (see ``benchmarks/bench_ablation_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.core.ompe.config import OMPEConfig
from repro.core.ompe.function import OMPEFunction, as_exact_vector
from repro.core.ompe.hiding import (
    check_points,
    disguise_vector,
    draw_hiders,
    draw_nodes,
)
from repro.core.ompe.precompute import draw_sender_bundle
from repro.core.ompe.receiver import check_evaluations
from repro.crypto.ot.k_of_n import KOfNReceiver, KOfNSender
from repro.exceptions import OMPEError, ProtocolAbort, ValidationError
from repro.math.interpolation import lagrange_at_zero
from repro.math.polynomials import Number, Polynomial
from repro.net.channel import LinkModel
from repro.net.party import Party, connect_parties
from repro.net.runner import ProtocolReport, finish_report
from repro.utils.rng import ReproRandom
from repro.utils.serialization import decode_value, encode_value
from repro.utils.timer import TimingRecorder


@dataclass(frozen=True)
class BatchOutcome:
    """Result of a batched OMPE conversation."""

    values: Tuple[Number, ...]
    amplifiers: Tuple[Number, ...]
    report: ProtocolReport


class _BatchSender(Party):
    def __init__(self, name, function, config, rng, timings):
        super().__init__(name, rng)
        self.function = function
        self.config = config
        self.timings = timings
        self.amplifiers: List[Number] = []
        self._masks: List[Polynomial] = []
        self._ot_sender: Optional[KOfNSender] = None

    def handle_request(self) -> None:
        arity, batch_size = self.receive("ompe-batch/request")
        if arity != self.function.arity:
            raise ProtocolAbort(
                f"receiver announced arity {arity}, function has "
                f"{self.function.arity}"
            )
        if batch_size < 1:
            raise ProtocolAbort(f"empty batch ({batch_size})")
        self._batch_size = batch_size
        with obs.get_tracer().span(
            "ompe.params", party=self.name, phase="params", batch=batch_size
        ), self.timings.measure("sender/randomize"):
            for index in range(batch_size):
                bundle = draw_sender_bundle(
                    self.rng.fork("query", index),
                    self.config,
                    self.function.total_degree,
                )
                self._masks.append(bundle.mask)
                self.amplifiers.append(bundle.amplifier)
        cover_count = self.config.cover_count(self.function.total_degree)
        pair_count = self.config.pair_count(self.function.total_degree)
        self.send(
            "ompe-batch/params",
            (self.function.total_degree, cover_count, pair_count),
        )

    def handle_points(self) -> None:
        batches = self.receive("ompe-batch/points")
        if not isinstance(batches, (tuple, list)) or len(batches) != self._batch_size:
            raise ProtocolAbort(f"expected {self._batch_size} pair lists")
        for pairs in batches:
            check_points(pairs, self.function.arity)
        expected_pairs = self.config.pair_count(self.function.total_degree)
        with obs.get_tracer().span(
            "ompe.evaluate",
            party=self.name,
            phase="evaluate",
            batch=self._batch_size,
        ), self.timings.measure("sender/evaluate"):
            evaluations: List[bytes] = []
            for query_index, pairs in enumerate(batches):
                if len(pairs) != expected_pairs:
                    raise ProtocolAbort(
                        f"query {query_index}: expected {expected_pairs} pairs, "
                        f"got {len(pairs)}"
                    )
                mask = self._masks[query_index]
                amplifier = self.amplifiers[query_index]
                values = self.function.evaluate_all(
                    [vector for _, vector in pairs]
                )
                for (node, _), value in zip(pairs, values):
                    value = mask(node) + amplifier * value
                    evaluations.append(encode_value(value))
        with obs.get_tracer().span(
            "ompe.ot_setup", party=self.name, phase="ot-setups"
        ):
            with self.timings.measure("sender/ot"):
                cover_count = self.config.cover_count(self.function.total_degree)
                self._ot_sender = KOfNSender(
                    self.config.resolved_group(), self.rng.fork("ot")
                )
                setup = self._ot_sender.setup(cover_count * self._batch_size)
                self._evaluations = evaluations
            self.send("ompe-batch/ot-setups", setup)

    def handle_choices(self) -> None:
        with obs.get_tracer().span(
            "ompe.ot_transfer", party=self.name, phase="ot-transfers"
        ):
            choice = self.receive("ompe-batch/ot-choices")
            if self._ot_sender is None:
                raise OMPEError("handle_choices before handle_points")
            with self.timings.measure("sender/ot"):
                transfer = self._ot_sender.transfer(self._evaluations, choice)
            self.send("ompe-batch/ot-transfers", transfer)


class _BatchReceiver(Party):
    def __init__(self, name, inputs, config, rng, timings):
        super().__init__(name, rng)
        self.inputs = inputs
        self.config = config
        self.timings = timings
        self._ot_receiver: Optional[KOfNReceiver] = None

    def send_request(self) -> None:
        self.send(
            "ompe-batch/request", (len(self.inputs[0]), len(self.inputs))
        )

    def handle_params(self) -> None:
        degree, cover_count, pair_count = self.receive("ompe-batch/params")
        if cover_count != self.config.cover_count(degree):
            raise ProtocolAbort("cover count disagrees with config")
        if pair_count != self.config.pair_count(degree):
            raise ProtocolAbort("pair count disagrees with config")
        self._cover_count = cover_count
        self._pair_count = pair_count
        with obs.get_tracer().span(
            "ompe.points",
            party=self.name,
            phase="points",
            m=cover_count,
            M=pair_count,
            batch=len(self.inputs),
            hiders=len(self.inputs) * len(self.inputs[0]) * (pair_count - cover_count + 1),
        ), self.timings.measure("receiver/randomize"):
            batches = []
            self._nodes: List[List[Number]] = []
            self._positions: List[List[int]] = []
            for query_index, input_vector in enumerate(self.inputs):
                draw = self.rng.fork("query", query_index)
                hiders = draw_hiders(draw, ("g",), input_vector, self.config)
                nodes = draw_nodes(draw.fork("nodes"), pair_count, self.config)
                positions = draw.fork("positions").sample_indices(
                    pair_count, cover_count
                )
                position_set = set(positions)
                disguise_draw = draw.fork("disguises")
                pairs = []
                for index, node in enumerate(nodes):
                    if index in position_set:
                        vector = hiders.at(node)
                    else:
                        vector = disguise_vector(
                            disguise_draw,
                            disguise_draw,
                            ("poly", index),
                            len(input_vector),
                            node,
                            self.config,
                        )
                    pairs.append((node, vector))
                batches.append(tuple(pairs))
                self._nodes.append(nodes)
                self._positions.append(positions)
        self.send("ompe-batch/points", tuple(batches))

    def handle_ot_setups(self) -> None:
        setup = self.receive("ompe-batch/ot-setups")
        with obs.get_tracer().span(
            "ompe.ot_choice", party=self.name, phase="ot-choices"
        ), self.timings.measure("receiver/ot"):
            # Global indices: query q's cover j sits at q*pair_count + pos.
            global_indices = [
                query_index * self._pair_count + position
                for query_index, positions in enumerate(self._positions)
                for position in positions
            ]
            self._ot_receiver = KOfNReceiver(
                self.config.resolved_group(), self.rng.fork("ot")
            )
            choice = self._ot_receiver.choose(
                setup, global_indices, self._pair_count * len(self.inputs)
            )
        self.send("ompe-batch/ot-choices", choice)

    def finish(self) -> List[Number]:
        if self._ot_receiver is None:
            raise OMPEError("finish before handle_ot_setups")
        transfer = self.receive("ompe-batch/ot-transfers")
        with self.timings.measure("receiver/ot"):
            payloads = self._ot_receiver.retrieve(transfer)
        with obs.get_tracer().span(
            "ompe.interpolate",
            party=self.name,
            phase="interpolate",
            batch=len(self.inputs),
        ), self.timings.measure("receiver/interpolate"):
            values: List[Number] = []
            cursor = 0
            for query_index, positions in enumerate(self._positions):
                blobs = payloads[cursor : cursor + len(positions)]
                cursor += len(positions)
                nodes = [self._nodes[query_index][p] for p in positions]
                decoded = check_evaluations([decode_value(blob) for blob in blobs])
                values.append(lagrange_at_zero(nodes, decoded))
        return values


def execute_ompe_batch(
    function: OMPEFunction,
    inputs: Sequence[Sequence[Number]],
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    link: Optional[LinkModel] = None,
    sender_name: str = "alice",
    receiver_name: str = "bob",
) -> BatchOutcome:
    """Evaluate the sender function on every input in one conversation."""
    config = config or OMPEConfig()
    input_list = [as_exact_vector(vector) for vector in inputs]
    if not input_list:
        raise ValidationError("batch must contain at least one input")
    arity = len(input_list[0])
    if any(len(vector) != arity for vector in input_list):
        raise ValidationError("all batch inputs must share one arity")
    if arity != function.arity:
        raise ValidationError(
            f"inputs have arity {arity}, function expects {function.arity}"
        )

    root = ReproRandom(seed)
    timings = TimingRecorder()
    sender = _BatchSender(
        sender_name, function, config, root.fork("sender"), timings
    )
    receiver = _BatchReceiver(
        receiver_name, input_list, config, root.fork("receiver"), timings
    )
    channel = (
        connect_parties(sender, receiver, link=link)
        if link
        else connect_parties(sender, receiver)
    )
    with obs.get_tracer().span(
        "ompe.batch",
        phase="protocol",
        batch=len(input_list),
        arity=arity,
        degree=function.total_degree,
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
            "repro_ompe_batch_runs_total",
            "Completed batched OMPE conversations",
        ).inc()
        metrics.counter(
            "repro_ompe_batch_queries_total",
            "Queries evaluated through batched OMPE",
        ).inc(len(input_list))
    report = finish_report(tuple(values), channel, timings)
    return BatchOutcome(
        values=tuple(values),
        amplifiers=tuple(sender.amplifiers),
        report=report,
    )
