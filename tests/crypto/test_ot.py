"""Tests for the oblivious transfer family."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ot import KOfNReceiver, KOfNSender, run_k_of_n
from repro.crypto.ot.base import (
    KOfNTransfer,
    OTChoice,
    OTSetup,
    validate_index,
    validate_messages,
)
from repro.exceptions import ObliviousTransferError, ValidationError
from repro.utils.rng import ReproRandom
from repro.utils.serialization import decode_payload, encode_payload


def keys(*labels):
    """16-byte messages, the shape of the keys an OT row pads."""
    return [label.encode().ljust(16, b".") for label in labels]


def one_of_n(group, messages, index, rng):
    """A 1-of-n transfer: the k-of-n exchange with ``k = 1``."""
    received, transfer = run_k_of_n(group, messages, [index], rng)
    return received[0], transfer


class TestBase:
    def test_validate_messages(self):
        assert validate_messages([b"a", bytearray(b"b")]) == [b"a", b"b"]

    def test_validate_messages_empty(self):
        with pytest.raises(ValidationError):
            validate_messages([])

    def test_validate_messages_type(self):
        with pytest.raises(ValidationError):
            validate_messages([b"ok", "not bytes"])

    def test_validate_index(self):
        assert validate_index(0, 3) == 0
        with pytest.raises(ValidationError):
            validate_index(3, 3)
        with pytest.raises(ValidationError):
            validate_index(-1, 3)
        with pytest.raises(ValidationError):
            validate_index(True, 3)

    def test_setup_requires_session(self):
        with pytest.raises(ValidationError):
            OTSetup(session=b"", blinding_points=(1,))
        with pytest.raises(ValidationError):
            OTSetup(session=5, blinding_points=(1,))

    def test_transfer_count_mismatch(self, group, rng):
        """One point serves every slot, so the receiver checks each
        row's slot count against the count it chose among."""
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        choice = receiver.choose(sender.setup(1), [0], 3)
        transfer = sender.transfer(keys("a", "b", "c"), choice)
        padded = replace(transfer, pads=(transfer.pads[0] + tuple(keys("extra")),))
        with pytest.raises(ObliviousTransferError, match="4 slots, expected 3"):
            receiver.retrieve(padded)

    def test_transfer_size_accounting(self):
        transfer = KOfNTransfer(
            sealed=(b"s" * 16, b"t" * 17),
            ephemeral_point=1,
            pads=((b"k" * 16, b"l" * 16),),
        )
        assert transfer.size_bytes(32) == 33 + 32 + 32


class TestOneOfTwo:
    """1-of-2 OT is the k-of-n OT with ``k = 1`` and ``n = 2``; these pin
    the cases a dedicated 1-of-2 construction used to cover."""

    @pytest.mark.parametrize("bit", [0, 1])
    def test_correct_message(self, group, bit):
        message, _ = one_of_n(group, keys("zero", "one"), bit, ReproRandom(bit + 10))
        assert message == keys("zero", "one")[bit]

    def test_bad_bit(self, group, rng):
        receiver = KOfNReceiver(group, rng)
        setup = KOfNSender(group, rng.fork("s")).setup(1)
        with pytest.raises(ValidationError):
            receiver.choose(setup, [2], 2)

    def test_requires_two_messages(self, group, rng):
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        choice = receiver.choose(sender.setup(1), [0], 2)
        transfer = sender.transfer(keys("only-one"), choice)
        with pytest.raises(ObliviousTransferError, match="1 slots, expected 2"):
            receiver.retrieve(transfer)

    def test_receiver_cannot_open_other_slot(self, group, rng):
        """Sender privacy: the unchosen payload never authenticates."""
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        choice = receiver.choose(sender.setup(1), [0], 2)
        opened = receiver.attempt_all(sender.transfer([b"m0", b"m1"], choice))
        assert opened == [b"m0", None]

    def test_session_mismatch_rejected(self, group, rng):
        sender_a = KOfNSender(group, rng.fork("a"))
        sender_b = KOfNSender(group, rng.fork("b"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        setup_a = sender_a.setup(1)
        sender_b.setup(1)
        choice = receiver.choose(setup_a, [0], 2)
        with pytest.raises(ObliviousTransferError, match="different session"):
            sender_b.transfer(keys("a", "b"), choice)

    def test_protocol_order_enforced(self, group, rng):
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        with pytest.raises(ObliviousTransferError):
            sender.transfer(keys("a", "b"), OTChoice(session=b"x", blinded_keys=(2,)))
        with pytest.raises(ObliviousTransferError):
            receiver.retrieve(
                KOfNTransfer(sealed=(b"s" * 16,), ephemeral_point=2, pads=((b"k" * 16,),))
            )


class TestOneOfN:
    @pytest.mark.parametrize("index", [0, 3, 9])
    def test_correct_message(self, group, index):
        messages = keys(*(f"msg-{i}" for i in range(10)))
        received, _ = one_of_n(group, messages, index, ReproRandom(index))
        assert received == messages[index]

    def test_single_message(self, group):
        received, _ = one_of_n(group, keys("only"), 0, ReproRandom(1))
        assert received == keys("only")[0]

    def test_out_of_range_index(self, group, rng):
        receiver = KOfNReceiver(group, rng)
        setup = KOfNSender(group, rng.fork("s")).setup(1)
        with pytest.raises(ValidationError):
            receiver.choose(setup, [5], 5)

    def test_choice_hides_index(self, group):
        """Receiver privacy: V = g^k w^sigma is uniform for any sigma."""
        # Statistical smoke check: choices for different indices are
        # not equal and both valid group elements.
        setup = KOfNSender(group, ReproRandom(1)).setup(1)
        choices = set()
        for index in range(5):
            receiver = KOfNReceiver(group, ReproRandom(100 + index))
            choice = receiver.choose(setup, [index], 5)
            assert group.contains(choice.blinded_keys[0])
            choices.add(choice.blinded_keys[0])
        assert len(choices) == 5

    def test_attempt_all_only_opens_chosen(self, group, rng):
        """One row's key opens only the chosen sealed payload."""
        messages = [f"m{i}".encode() for i in range(6)]
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        choice = receiver.choose(sender.setup(1), [2], 6)
        transfer = sender.transfer(messages, choice)
        opened = receiver.attempt_all(transfer)
        assert opened[2] == b"m2"
        assert all(item is None for i, item in enumerate(opened) if i != 2)

    def test_invalid_blinded_key_rejected(self, group, rng):
        sender = KOfNSender(group, rng)
        setup = sender.setup(1)
        assert not group.contains(group.p - 1)
        bad_choice = OTChoice(session=setup.session, blinded_keys=(group.p - 1,))
        with pytest.raises(ObliviousTransferError, match="not a group element"):
            sender.transfer(keys("a"), bad_choice)

    @pytest.mark.parametrize(
        "element", [Fraction(3, 2), Fraction(4, 1), 2.5, True], ids=repr
    )
    def test_non_int_blinded_key_rejected(self, group, rng, element):
        """A hostile peer's decoded non-int is refused with the typed error."""
        sender = KOfNSender(group, rng)
        setup = sender.setup(1)
        choice = decode_payload(
            encode_payload(OTChoice(session=setup.session, blinded_keys=(element,)))
        )
        with pytest.raises(ObliviousTransferError, match="not a group element"):
            sender.transfer(keys("a", "b"), choice)

    @pytest.mark.parametrize(
        "element", [Fraction(3, 2), Fraction(4, 1), 2.5, True], ids=repr
    )
    def test_non_int_blinding_point_rejected(self, group, rng, element):
        receiver = KOfNReceiver(group, rng)
        setup = decode_payload(
            encode_payload(OTSetup(session=b"s" * 16, blinding_points=(element,)))
        )
        with pytest.raises(ObliviousTransferError, match="not a group element"):
            receiver.choose(setup, [0], 2)

    def test_retrieve_before_choose(self, group, rng):
        receiver = KOfNReceiver(group, rng)
        with pytest.raises(ObliviousTransferError, match="before choose"):
            receiver.retrieve(
                KOfNTransfer(sealed=(b"s" * 16,), ephemeral_point=2, pads=((b"k" * 16,),))
            )

    def test_transfer_before_setup(self, group, rng):
        sender = KOfNSender(group, rng)
        with pytest.raises(ObliviousTransferError, match="before setup"):
            sender.transfer(keys("a"), OTChoice(session=b"x", blinded_keys=(2,)))


class TestKOfN:
    def test_correct_messages(self, group):
        messages = [f"item-{i}".encode() for i in range(12)]
        received, transfer = run_k_of_n(group, messages, [1, 5, 9], ReproRandom(3))
        assert received == [b"item-1", b"item-5", b"item-9"]
        assert len(transfer.pads) == 3
        assert all(len(row) == 12 for row in transfer.pads)
        assert len(transfer.sealed) == 12

    def test_all_indices(self, group):
        messages = [b"a", b"b", b"c"]
        received, _ = run_k_of_n(group, messages, [0, 1, 2], ReproRandom(4))
        assert received == [b"a", b"b", b"c"]

    def test_duplicate_indices_rejected(self, group, rng):
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        setup = sender.setup(2)
        with pytest.raises(ValidationError):
            receiver.choose(setup, [1, 1], 5)

    def test_setup_choice_count_mismatch(self, group, rng):
        """The sender set up for three choices refuses two."""
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        choice = receiver.choose(sender.setup(3), [0, 1], 5)
        with pytest.raises(ObliviousTransferError, match="3 blinded keys"):
            sender.transfer([b"m"] * 5, choice)

    def test_zero_k_rejected(self, group, rng):
        with pytest.raises(ValidationError):
            KOfNSender(group, rng).setup(0)

    def test_indices_property(self, group, rng):
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        receiver.choose(sender.setup(2), [3, 1], 5)
        assert receiver.indices == (3, 1)

    def test_indices_before_choose(self, group, rng):
        with pytest.raises(ObliviousTransferError):
            _ = KOfNReceiver(group, rng).indices

    @given(st.integers(0, 2**30))
    @settings(max_examples=10, deadline=None)
    def test_random_index_sets(self, group, seed):
        rng = ReproRandom(seed)
        n = rng.randint(4, 10)
        k = rng.randint(1, n)
        indices = rng.sample_indices(n, k)
        messages = [f"{i}".encode() for i in range(n)]
        received, _ = run_k_of_n(group, messages, indices, rng.fork("ot"))
        assert received == [messages[i] for i in indices]


class TestTransferMaterial:
    """Every row pads the *same* key vector: the sealed payloads and
    the ephemeral point depend on the seeds and the messages, never on
    the choice, and each row pads with its own row index."""

    def _exchange(self, group, seed, indices, messages):
        sender = KOfNSender(group, ReproRandom(seed).fork("sender"))
        receiver = KOfNReceiver(group, ReproRandom(seed).fork("receiver"))
        choice = receiver.choose(sender.setup(len(indices)), indices, len(messages))
        transfer = sender.transfer(messages, choice)
        return transfer, receiver.retrieve(transfer)

    def test_material_path_is_bit_identical(self, group):
        """Two choices on the same seeds seal bit-identical payloads
        under one ``R``; only the padded rows differ."""
        messages = keys(*(f"msg-{i}" for i in range(5)))
        first, first_messages = self._exchange(group, 42, [2], messages)
        second, second_messages = self._exchange(group, 42, [4], messages)
        assert first.sealed == second.sealed
        assert first.ephemeral_point == second.ephemeral_point
        assert first.pads != second.pads
        assert first_messages == [messages[2]]
        assert second_messages == [messages[4]]

    def test_material_reused_across_sessions(self, group):
        """One key vector serves every row; every row pads with its own
        row index, so rows differ even on one slot while each opens."""
        messages = keys(*(f"item-{i}" for i in range(4)))
        transfer, received = self._exchange(group, 100, [0, 1, 2], messages)
        assert received == messages[:3]
        assert len(set(transfer.pads)) == 3
        assert len({row[3] for row in transfer.pads}) == 3

    def test_material_validates_payload(self, group, rng):
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        choice = receiver.choose(sender.setup(1), [0], 2)
        with pytest.raises(ValidationError):
            sender.transfer([], choice)
        with pytest.raises(ValidationError):
            sender.transfer([b"ok", "not-bytes"], choice)

    def test_k_of_n_outputs_unchanged_by_memoization(self, group):
        """End to end: one exchange returns the exact messages for the
        chosen indices, with one pad row per choice."""
        messages = [f"item-{i}".encode() for i in range(8)]
        received, transfer = run_k_of_n(group, messages, [0, 3, 7], ReproRandom(77))
        assert received == [b"item-0", b"item-3", b"item-7"]
        assert len(set(transfer.pads)) == 3


class TestRecordShape:
    def test_list_of_setups_refused(self, group, rng):
        """The retired shape sent one ``ot/setup`` per choice."""
        setup = KOfNSender(group, rng.fork("s")).setup(2)
        with pytest.raises(ObliviousTransferError, match="one ot/setup record"):
            KOfNReceiver(group, rng.fork("r")).choose([setup, setup], [0, 1], 3)

    @pytest.mark.parametrize("points", [(), (4, 4), [4]], ids=repr)
    def test_setup_must_carry_one_point(self, group, rng, points):
        setup = OTSetup(session=b"s" * 16, blinding_points=points)
        with pytest.raises(ObliviousTransferError, match="one blinding point"):
            KOfNReceiver(group, rng).choose(setup, [0], 2)

    def test_list_of_choices_refused(self, group, rng):
        sender = KOfNSender(group, rng.fork("s"))
        choice = KOfNReceiver(group, rng.fork("r")).choose(sender.setup(1), [0], 2)
        with pytest.raises(ObliviousTransferError, match="one ot/choice record"):
            sender.transfer([b"a", b"b"], [choice])

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_number_of_blinded_keys(self, group, rng, count):
        sender = KOfNSender(group, rng.fork("s"))
        setup = sender.setup(2)
        point = group.exp(group.g, 5)
        choice = OTChoice(session=setup.session, blinded_keys=(point,) * count)
        with pytest.raises(ObliviousTransferError, match="2 blinded keys"):
            sender.transfer([b"a", b"b", b"c"], choice)
