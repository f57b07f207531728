"""Tests for the oblivious transfer family."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ot import (
    OneOfNReceiver,
    OneOfNSender,
    KOfNReceiver,
    KOfNSender,
    TransferMaterial,
    run_k_of_n,
    run_one_of_n,
)
from repro.crypto.ot.base import OTChoice, OTSetup, OTTransfer, validate_index, validate_messages
from repro.exceptions import ObliviousTransferError, ValidationError
from repro.utils.rng import ReproRandom
from repro.utils.serialization import decode_payload, encode_payload


def keys(*labels):
    """16-byte keys, the only strings the 1-of-n OT carries."""
    return [label.encode().ljust(16, b".") for label in labels]


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

    def test_transfer_count_mismatch(self, group, rng):
        """One point serves every slot, so the receiver checks the slot
        count against the count it chose among."""
        sender = OneOfNSender(group, rng.fork("s"))
        receiver = OneOfNReceiver(group, rng.fork("r"))
        choice = receiver.choose(sender.setup(), 0, 3)
        transfer = sender.transfer(keys("a", "b", "c"), choice)
        padded = replace(transfer, pads=transfer.pads + tuple(keys("extra")))
        with pytest.raises(ObliviousTransferError, match="4 slots, expected 3"):
            receiver.retrieve(padded)

    def test_transfer_size_accounting(self):
        transfer = OTTransfer(
            session=b"abcd", ephemeral_point=1, pads=(b"xx", b"yyy")
        )
        assert transfer.size_bytes(32) == 4 + 32 + 5


class TestOneOfTwo:
    """1-of-2 OT is the 1-of-n OT with ``n = 2``; these pin the cases a
    dedicated 1-of-2 construction used to cover."""

    @pytest.mark.parametrize("bit", [0, 1])
    def test_correct_message(self, group, bit):
        message, _ = run_one_of_n(
            group, keys("zero", "one"), bit, ReproRandom(bit + 10)
        )
        assert message == keys("zero", "one")[bit]

    def test_bad_bit(self, group, rng):
        receiver = OneOfNReceiver(group, rng)
        sender = OneOfNSender(group, rng.fork("s"))
        setup = sender.setup()
        with pytest.raises(ValidationError):
            receiver.choose(setup, 2, 2)

    def test_requires_two_messages(self, group, rng):
        sender = OneOfNSender(group, rng.fork("s"))
        receiver = OneOfNReceiver(group, rng.fork("r"))
        setup = sender.setup()
        choice = receiver.choose(setup, 0, 2)
        transfer = sender.transfer(keys("only-one"), choice)
        with pytest.raises(ObliviousTransferError, match="1 slots, expected 2"):
            receiver.retrieve(transfer)

    def test_receiver_cannot_open_other_slot(self, group, rng):
        """Sender privacy: the unchosen payload never authenticates."""
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        choices = receiver.choose(sender.setup(1), [0], 2)
        opened = receiver.attempt_all(sender.transfer([b"m0", b"m1"], choices))
        assert opened == [b"m0", None]

    def test_session_mismatch_rejected(self, group, rng):
        sender_a = OneOfNSender(group, rng.fork("a"))
        sender_b = OneOfNSender(group, rng.fork("b"))
        receiver = OneOfNReceiver(group, rng.fork("r"))
        setup_a = sender_a.setup()
        sender_b.setup()
        choice = receiver.choose(setup_a, 0, 2)
        with pytest.raises(ObliviousTransferError):
            sender_b.transfer(keys("a", "b"), choice)

    def test_protocol_order_enforced(self, group, rng):
        sender = OneOfNSender(group, rng.fork("s"))
        receiver = OneOfNReceiver(group, rng.fork("r"))
        with pytest.raises(ObliviousTransferError):
            sender.transfer(keys("a", "b"), OTChoice(session=b"x", blinded_keys=(2,)))
        with pytest.raises(ObliviousTransferError):
            receiver.retrieve(
                OTTransfer(session=b"x", ephemeral_point=2, pads=(b"",))
            )


class TestOneOfN:
    @pytest.mark.parametrize("index", [0, 3, 9])
    def test_correct_message(self, group, index):
        messages = keys(*(f"msg-{i}" for i in range(10)))
        received, _ = run_one_of_n(group, messages, index, ReproRandom(index))
        assert received == messages[index]

    def test_single_message(self, group):
        received, _ = run_one_of_n(group, keys("only"), 0, ReproRandom(1))
        assert received == keys("only")[0]

    def test_out_of_range_index(self, group, rng):
        receiver = OneOfNReceiver(group, rng)
        sender = OneOfNSender(group, rng.fork("s"))
        setup = sender.setup()
        with pytest.raises(ValidationError):
            receiver.choose(setup, 5, 5)

    def test_choice_hides_index(self, group):
        """Receiver privacy: V = g^k w^sigma is uniform for any sigma."""
        # Statistical smoke check: choices for different indices are
        # not equal and both valid group elements.
        sender = OneOfNSender(group, ReproRandom(1))
        setup = sender.setup()
        choices = set()
        for index in range(5):
            receiver = OneOfNReceiver(group, ReproRandom(100 + index))
            choice = receiver.choose(setup, index, 5)
            assert group.contains(choice.blinded_keys[0])
            choices.add(choice.blinded_keys[0])
        assert len(choices) == 5

    def test_attempt_all_only_opens_chosen(self, group, rng):
        """One session's key opens only the chosen sealed payload (the
        probe lives on the k-of-n receiver, which holds the sealing)."""
        messages = [f"m{i}".encode() for i in range(6)]
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        choices = receiver.choose(sender.setup(1), [2], 6)
        transfer = sender.transfer(messages, choices)
        opened = receiver.attempt_all(transfer)
        assert opened[2] == b"m2"
        assert all(item is None for i, item in enumerate(opened) if i != 2)

    def test_invalid_blinded_key_rejected(self, group, rng):
        sender = OneOfNSender(group, rng)
        setup = sender.setup()
        bad_choice = OTChoice(session=setup.session, blinded_keys=(group.p - 1,))
        if not group.contains(group.p - 1):
            with pytest.raises(ObliviousTransferError):
                sender.transfer(keys("a"), bad_choice)

    @pytest.mark.parametrize(
        "element", [Fraction(3, 2), Fraction(4, 1), 2.5, True], ids=repr
    )
    def test_non_int_blinded_key_rejected(self, group, rng, element):
        """A hostile peer's decoded non-int is refused with the typed error."""
        sender = OneOfNSender(group, rng)
        setup = sender.setup()
        choice = decode_payload(
            encode_payload(OTChoice(session=setup.session, blinded_keys=(element,)))
        )
        with pytest.raises(ObliviousTransferError, match="not a group element"):
            sender.transfer(keys("a", "b"), choice)

    @pytest.mark.parametrize(
        "element", [Fraction(3, 2), Fraction(4, 1), 2.5, True], ids=repr
    )
    def test_non_int_blinding_point_rejected(self, group, rng, element):
        receiver = OneOfNReceiver(group, rng)
        setup = decode_payload(
            encode_payload(OTSetup(session=b"s" * 16, blinding_points=(element,)))
        )
        with pytest.raises(ObliviousTransferError, match="not a group element"):
            receiver.choose(setup, 0, 2)

    def test_retrieve_before_choose(self, group, rng):
        receiver = OneOfNReceiver(group, rng)
        with pytest.raises(ObliviousTransferError):
            receiver.retrieve(
                OTTransfer(session=b"x", ephemeral_point=2, pads=(b"",))
            )

    def test_transfer_before_setup(self, group, rng):
        sender = OneOfNSender(group, rng)
        with pytest.raises(ObliviousTransferError):
            sender.transfer(keys("a"), OTChoice(session=b"x", blinded_keys=(2,)))


class TestKOfN:
    def test_correct_messages(self, group):
        messages = [f"item-{i}".encode() for i in range(12)]
        received, transfer = run_k_of_n(group, messages, [1, 5, 9], ReproRandom(3))
        assert received == [b"item-1", b"item-5", b"item-9"]
        assert len(transfer.sessions) == 3
        assert len(transfer.sealed) == 12

    def test_all_indices(self, group):
        messages = [b"a", b"b", b"c"]
        received, _ = run_k_of_n(group, messages, [0, 1, 2], ReproRandom(4))
        assert received == [b"a", b"b", b"c"]

    def test_duplicate_indices_rejected(self, group, rng):
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        setups = sender.setup(2)
        with pytest.raises(ValidationError):
            receiver.choose(setups, [1, 1], 5)

    def test_setup_choice_count_mismatch(self, group, rng):
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        setups = sender.setup(3)
        with pytest.raises(ObliviousTransferError):
            receiver.choose(setups[:2], [0, 1, 2], 5)

    def test_zero_k_rejected(self, group, rng):
        with pytest.raises(ValidationError):
            KOfNSender(group, rng).setup(0)

    def test_indices_property(self, group, rng):
        sender = KOfNSender(group, rng.fork("s"))
        receiver = KOfNReceiver(group, rng.fork("r"))
        setups = sender.setup(2)
        receiver.choose(setups, [3, 1], 5)
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
    """The k·m-session memoization must be output-transparent: a
    transfer built through shared :class:`TransferMaterial` is
    bit-identical to one built without it on the same seeds."""

    def _transfer_pair(self, group, seed, material):
        """One full 1-of-n exchange; sender/receiver streams fixed by
        ``seed`` so the only variable is the ``material`` argument."""
        sender = OneOfNSender(group, ReproRandom(seed).fork("sender"))
        receiver = OneOfNReceiver(group, ReproRandom(seed).fork("receiver"))
        setup = sender.setup()
        choice = receiver.choose(setup, 2, 5)
        messages = keys(*(f"msg-{i}" for i in range(5)))
        transfer = sender.transfer(messages, choice, material=material)
        return transfer, receiver.retrieve(transfer)

    def test_material_path_is_bit_identical(self, group):
        messages = keys(*(f"msg-{i}" for i in range(5)))
        plain_transfer, plain_message = self._transfer_pair(group, 42, None)
        material = TransferMaterial(messages)
        shared_transfer, shared_message = self._transfer_pair(
            group, 42, material
        )
        assert shared_transfer.session == plain_transfer.session
        assert shared_transfer.ephemeral_point == plain_transfer.ephemeral_point
        assert shared_transfer.pads == plain_transfer.pads
        assert shared_message == plain_message == messages[2]
        assert material.sessions_served == 1

    def test_material_reused_across_sessions(self, group):
        """One material can serve many sessions; every session still
        pads with its own session id, so transfers differ while each
        retrieve succeeds."""
        messages = keys(*(f"item-{i}" for i in range(4)))
        material = TransferMaterial(messages)
        transfers = []
        for round_index in range(3):
            sender = OneOfNSender(group, ReproRandom(100 + round_index))
            receiver = OneOfNReceiver(group, ReproRandom(200 + round_index))
            setup = sender.setup()
            choice = receiver.choose(setup, round_index, 4)
            transfer = sender.transfer(messages, choice, material=material)
            transfers.append(transfer)
            assert receiver.retrieve(transfer) == messages[round_index]
        assert material.sessions_served == 3
        assert len({t.session for t in transfers}) == 3

    def test_material_validates_payload(self):
        with pytest.raises(ValidationError):
            TransferMaterial([])
        with pytest.raises(ValidationError):
            TransferMaterial([b"ok", "not-bytes"])
        with pytest.raises(ValidationError, match="16 bytes"):
            TransferMaterial([b"short"])

    def test_k_of_n_outputs_unchanged_by_memoization(self, group):
        """End-to-end: the k-of-n sender (which now routes every
        sub-session through one shared material) returns the exact
        messages for the chosen indices — same as the pre-memoization
        contract pinned by the suite above."""
        messages = [f"item-{i}".encode() for i in range(8)]
        received, transfer = run_k_of_n(
            group, messages, [0, 3, 7], ReproRandom(77)
        )
        assert received == [b"item-0", b"item-3", b"item-7"]
        assert len({t.session for t in transfer.sessions}) == 3
