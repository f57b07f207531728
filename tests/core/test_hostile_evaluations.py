"""A hostile sender's sealed evaluations meet a typed error.

The OT hands the receiver whatever the sender sealed.  A sender that
seals a tuple, a float, a boolean, text, ``None``, a registered record,
a value nested past the decoder's depth bound, or a slot with another
number of values than the run has functions, must make the receiver of
a one- or two-function run raise a :class:`~repro.exceptions.ReproError`
subclass before interpolation, never a ``RecursionError`` or a
``TypeError`` from the arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.ompe import OMPEConfig, OMPEFunction, execute_ompe
from repro.core.ompe import sender as sender_module
from repro.exceptions import ProtocolAbort, ReproError, ValidationError
from repro.math.groups import fast_group
from repro.math.multivariate import MultivariatePolynomial
from repro.math.scaled import ScaledVector
from repro.utils.serialization import (
    MAX_DECODE_DEPTH,
    decode_payload,
    decode_payloads,
    encode_payload,
)

FUNCTION = OMPEFunction.from_polynomial(
    MultivariatePolynomial.affine([Fraction(1), Fraction(-2)], Fraction(3))
)
INPUT = (Fraction(1, 2), Fraction(-1, 3))
CONFIG = OMPEConfig(security_degree=1, cover_expansion=2, group=fast_group())

#: What a hostile sender seals in place of ``encode_payload(value)``,
#: and the typed error the receiver raises for it.
SEALS = {
    "nested tuple": (lambda value: encode_payload(((value,),)), ProtocolAbort),
    "pair": (lambda value: encode_payload((value, value)), ProtocolAbort),
    "float": (lambda value: encode_payload(float(value)), ProtocolAbort),
    # ``B\x01`` decodes to ``True``, which ``isinstance`` takes for an int.
    "bool": (lambda value: encode_payload(True), ProtocolAbort),
    "str": (lambda value: encode_payload(str(value)), ProtocolAbort),
    "None": (lambda value: encode_payload(None), ProtocolAbort),
    "ompe/vector": (
        lambda value: encode_payload(ScaledVector.of((value,))),
        ProtocolAbort,
    ),
    "past the depth bound": (
        lambda value: b"T\x00\x00\x00\x01" * 3000 + encode_payload(value),
        ValidationError,
    ),
}


def test_decode_depth_bound():
    at_bound = b"T\x00\x00\x00\x01" * MAX_DECODE_DEPTH + encode_payload(1)
    nested = decode_payload(at_bound)
    for _ in range(MAX_DECODE_DEPTH):
        (nested,) = nested
    assert nested == 1
    for decode in (decode_payload, decode_payloads):
        with pytest.raises(ValidationError, match="depth bound"):
            decode(b"T\x00\x00\x00\x01" + at_bound)
        with pytest.raises(ValidationError, match="depth bound"):
            decode(b"T\x00\x00\x00\x01" * 3000 + encode_payload(1))


@pytest.mark.parametrize("case", sorted(SEALS))
def test_online_receiver_refuses(monkeypatch, case):
    seal, error = SEALS[case]
    monkeypatch.setattr(sender_module, "encode_payload", seal)
    with pytest.raises(error) as raised:
        execute_ompe(FUNCTION, INPUT, config=CONFIG, seed=3)
    assert isinstance(raised.value, ReproError)


@pytest.mark.parametrize("case", sorted(SEALS))
def test_batched_receiver_refuses(monkeypatch, case):
    """The same seals in a two-function run's slots."""
    seal, error = SEALS[case]
    monkeypatch.setattr(sender_module, "encode_payload", seal)
    with pytest.raises(error) as raised:
        execute_ompe((FUNCTION, FUNCTION), INPUT + INPUT, config=CONFIG, seed=3)
    assert isinstance(raised.value, ReproError)


#: Slots of the wrong length: ``(k, seal)``, where ``seal`` maps the
#: ``k`` encoded values of an honest slot to what the sender seals.
WRONG_LENGTH = {
    "empty slot, k = 1": (1, lambda values: b""),
    "two values, k = 1": (1, lambda values: values[0] * 2),
    "one value, k = 2": (2, lambda values: values[0]),
    "three values, k = 2": (2, lambda values: values[0] * 3),
}


@pytest.mark.parametrize("case", sorted(WRONG_LENGTH))
def test_slot_of_wrong_length_refused(monkeypatch, case):
    count, seal = WRONG_LENGTH[case]
    handle_points = sender_module.OMPESender.handle_points

    def reseal(sender):
        handle_points(sender)
        sender._evaluations = [
            seal([encode_payload(value) for value in decode_payloads(blob)])
            for blob in sender._evaluations
        ]

    monkeypatch.setattr(sender_module.OMPESender, "handle_points", reseal)
    with pytest.raises(ProtocolAbort, match="slot carries"):
        execute_ompe((FUNCTION,) * count, INPUT * count, config=CONFIG, seed=3)
