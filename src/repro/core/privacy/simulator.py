"""Simulation-based privacy argument for the OMPE sender's view.

The standard way to argue a party "learns nothing" is to exhibit a
*simulator*: an algorithm that, given only that party's legitimate
inputs and outputs, produces a view computationally indistinguishable
from the real protocol view.  For the OMPE sender (the trainer), the
view consists of the points message ``{(v_i, z_i)}`` plus OT group
elements; crucially it does *not* depend on the receiver's secret
input, because:

* the nodes ``v_i`` are drawn independently of the input;
* cover vectors are evaluations of random degree-q polynomials at
  nonzero nodes, whose distribution is input-independent (the secret
  only fixes the *constant term*, which is never evaluated);
* disguise vectors are, by construction in this implementation,
  identically distributed with covers;
* the OT choice messages are uniform group elements.

:func:`simulate_sender_view` runs exactly the receiver's randomization
code with a *dummy* input; :func:`sender_view_indistinguishable`
compares a real view to a simulated one with two-sample K-S tests over
the scalar marginals.  This turns the paper's Level-1 prose into an
executable statistical check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.core.ompe.config import OMPEConfig
from repro.core.ompe.hiding import PointsMessage
from repro.core.ompe.precompute import draw_receiver_bundle
from repro.exceptions import ValidationError
from repro.math.statistics import KSResult, ks_2samp
from repro.utils.rng import ReproRandom


def simulate_sender_view(
    config: OMPEConfig,
    arity: int,
    function_degree: int,
    rng: Optional[ReproRandom] = None,
) -> PointsMessage:
    """Produce a points message distributed like a real one.

    Runs the receiver's own draw
    (:func:`repro.core.ompe.precompute.draw_receiver_bundle`) and hides
    a dummy all-zero input, so the result is exactly what an
    :class:`OMPEReceiver` with input zero and stream ``rng`` would send;
    if the real distribution depended on the input, the statistical
    test below would expose it.
    """
    if arity < 1:
        raise ValidationError(f"arity must be at least 1, got {arity}")
    rng = rng or ReproRandom()
    bundle = draw_receiver_bundle(rng.fork("hide"), config, arity, function_degree)
    return bundle.points((Fraction(0),) * arity, config)


def _scalar_pool(messages: Sequence[PointsMessage]) -> Tuple[List[float], List[float]]:
    """Split point messages into node and coordinate scalar pools."""
    nodes: List[float] = []
    coordinates: List[float] = []
    for message in messages:
        for node, vector in message:
            nodes.append(float(node))
            coordinates.extend(float(v) for v in vector)
    return nodes, coordinates


def sender_view_indistinguishable(
    real_messages: Sequence[PointsMessage],
    simulated_messages: Sequence[PointsMessage],
    significance: float = 0.01,
) -> Tuple[bool, KSResult, KSResult]:
    """K-S test real vs simulated sender views.

    Returns ``(indistinguishable, node_test, coordinate_test)``; the
    views pass when *neither* marginal rejects at ``significance``.
    """
    if not real_messages or not simulated_messages:
        raise ValidationError("need at least one message on each side")
    if not 0.0 < significance < 1.0:
        raise ValidationError(f"significance must be in (0, 1), got {significance}")
    real_nodes, real_coordinates = _scalar_pool(real_messages)
    simulated_nodes, simulated_coordinates = _scalar_pool(simulated_messages)
    node_test = ks_2samp(real_nodes, simulated_nodes)
    coordinate_test = ks_2samp(real_coordinates, simulated_coordinates)
    passed = node_test.pvalue > significance and coordinate_test.pvalue > significance
    return passed, node_test, coordinate_test
