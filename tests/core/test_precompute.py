"""Tests for the OMPE precomputation pools (paper Section VI-B.1)."""

from fractions import Fraction

import pytest

from repro.core.ompe import (
    OMPEConfig,
    OMPEFunction,
    OMPEReceiver,
    OMPESender,
    ReceiverPool,
    SenderPool,
    execute_ompe,
)
from repro.exceptions import OMPEError, ValidationError
from repro.math.multivariate import MultivariatePolynomial
from repro.utils.rng import ReproRandom


@pytest.fixture
def polynomial():
    return MultivariatePolynomial.affine(
        [Fraction(2), Fraction(-3)], Fraction(1, 2)
    )


@pytest.fixture
def function(polynomial):
    return OMPEFunction.from_polynomial(polynomial)


ALPHA = (Fraction(1, 3), Fraction(1, 4))


class TestSenderPool:
    def test_bundles_generated(self, fast_config, rng):
        pool = SenderPool(fast_config, 1, 5, rng)
        assert len(pool) == 5
        bundle = pool.pop()
        assert bundle.mask(0) == 0
        assert bundle.mask.degree == fast_config.security_degree
        assert bundle.amplifier > 0
        assert len(pool) == 4

    def test_offset_bundles(self, fast_config, rng):
        pool = SenderPool(fast_config, 1, 3, rng, offset=True)
        assert pool.pop().offset != 0

    def test_no_amplify(self, fast_config, rng):
        pool = SenderPool(fast_config, 1, 3, rng, amplify=False)
        assert pool.pop().amplifier == 1

    def test_exhaustion(self, fast_config, rng):
        pool = SenderPool(fast_config, 1, 1, rng)
        pool.pop()
        with pytest.raises(OMPEError):
            pool.pop()

    def test_validation(self, fast_config, rng):
        with pytest.raises(ValidationError):
            SenderPool(fast_config, 1, 0, rng)
        with pytest.raises(ValidationError):
            SenderPool(fast_config, 0, 1, rng)


class TestReceiverPool:
    def test_bundle_shape(self, fast_config, rng):
        pool = ReceiverPool(fast_config, 2, 1, 3, rng)
        bundle = pool.pop()
        # One row of q lattice numerators per coordinate, lead n_q ≠ 0.
        assert len(bundle.numerators) == 2
        q = fast_config.security_degree
        assert all(len(row) == q and row[0] != 0 for row in bundle.numerators)
        assert len(bundle.nodes) == fast_config.pair_count(1)
        assert len(bundle.cover_positions) == fast_config.cover_count(1)
        assert len(set(bundle.nodes)) == len(bundle.nodes)
        # Disguises present exactly at non-cover positions.
        cover_set = set(bundle.cover_positions)
        for index, disguise in enumerate(bundle.disguises):
            assert (disguise is None) == (index in cover_set)

    def test_exhaustion(self, fast_config, rng):
        pool = ReceiverPool(fast_config, 2, 1, 1, rng)
        pool.pop()
        with pytest.raises(OMPEError):
            pool.pop()

    def test_validation(self, fast_config, rng):
        with pytest.raises(ValidationError):
            ReceiverPool(fast_config, 0, 1, 1, rng)
        with pytest.raises(ValidationError):
            ReceiverPool(fast_config, 2, 1, 0, rng)


class TestPooledExecution:
    def test_exact_with_both_pools(self, fast_config, polynomial, function):
        sender_pool = SenderPool(fast_config, 1, 3, ReproRandom(1))
        receiver_pool = ReceiverPool(fast_config, 2, 1, 3, ReproRandom(2))
        outcome = execute_ompe(
            function, ALPHA, config=fast_config, seed=9,
            sender_pool=sender_pool,
            receiver_hidden=receiver_pool.hide(ALPHA, fast_config),
        )
        assert outcome.value == polynomial(ALPHA) * outcome.amplifier

    def test_exact_with_sender_pool_only(self, fast_config, polynomial, function):
        sender_pool = SenderPool(fast_config, 1, 2, ReproRandom(3))
        outcome = execute_ompe(
            function, ALPHA, config=fast_config, seed=10, sender_pool=sender_pool
        )
        assert outcome.value == polynomial(ALPHA) * outcome.amplifier

    def test_exact_with_receiver_pool_only(self, fast_config, polynomial, function):
        receiver_pool = ReceiverPool(fast_config, 2, 1, 2, ReproRandom(4))
        outcome = execute_ompe(
            function, ALPHA, config=fast_config, seed=11,
            receiver_hidden=receiver_pool.hide(ALPHA, fast_config),
        )
        assert outcome.value == polynomial(ALPHA) * outcome.amplifier

    def test_arity_mismatch_rejected(self, fast_config, function):
        receiver_pool = ReceiverPool(fast_config, 3, 1, 1, ReproRandom(5))
        with pytest.raises(OMPEError):
            execute_ompe(
                function, ALPHA, config=fast_config, seed=12,
                receiver_hidden=receiver_pool.hide(ALPHA, fast_config),
            )

    def test_sender_refuses_pool_of_another_config(self, function):
        # A q=1 pool would mask with degree 1 where deg(P)·q = 3 is required.
        pool = SenderPool(OMPEConfig(security_degree=1), 1, 1, ReproRandom(16))
        with pytest.raises(OMPEError, match="another OMPE config"):
            OMPESender("alice", function, OMPEConfig(security_degree=3), pool=pool)
        with pytest.raises(OMPEError, match="another OMPE config"):
            execute_ompe(
                function, ALPHA, config=OMPEConfig(security_degree=3), seed=16,
                sender_pool=pool,
            )
        assert len(pool) == 1

    def test_receiver_refuses_pool_of_another_config(self, function):
        # A (q=1, k=4) pool would hide the input at q=1 among 8 pairs.
        pool = ReceiverPool(
            OMPEConfig(security_degree=1, cover_expansion=4), 2, 1, 1, ReproRandom(17)
        )
        config = OMPEConfig(security_degree=3, cover_expansion=2)
        twin = ReceiverPool(pool.config, 2, 1, 1, ReproRandom(17))
        with pytest.raises(OMPEError, match="another OMPE config"):
            OMPEReceiver("bob", ALPHA, config, hidden=twin.pop().hide(ALPHA, twin.config))
        with pytest.raises(OMPEError, match="another OMPE config"):
            execute_ompe(
                function, ALPHA, config=config, seed=17,
                receiver_hidden=pool.hide(ALPHA, config),
            )
        assert len(pool) == 1

    def test_degree_mismatch_rejected(self, fast_config, function):
        sender_pool = SenderPool(fast_config, 3, 1, ReproRandom(6))
        with pytest.raises(OMPEError):
            execute_ompe(
                function, ALPHA, config=fast_config, seed=13,
                sender_pool=sender_pool,
            )

    def test_amplify_and_offset_mismatch_rejected(
        self, fast_config, polynomial, function
    ):
        # A default pool would run amplify=False with a random amplifier
        # and offset=True with offset 0.
        for flags in ({"amplify": False}, {"offset": True}):
            with pytest.raises(OMPEError, match="pool was built"):
                execute_ompe(
                    function, ALPHA, config=fast_config, seed=15,
                    sender_pool=SenderPool(fast_config, 1, 2, ReproRandom(8)),
                    **flags,
                )
        matching = SenderPool(fast_config, 1, 1, ReproRandom(8), amplify=False)
        outcome = execute_ompe(
            function, ALPHA, config=fast_config, seed=15, amplify=False,
            sender_pool=matching,
        )
        assert outcome.value == polynomial(ALPHA)

    def test_pool_runs_differ_across_bundles(self, fast_config, function):
        sender_pool = SenderPool(fast_config, 1, 2, ReproRandom(7))
        a = execute_ompe(function, ALPHA, config=fast_config, seed=14,
                         sender_pool=sender_pool)
        b = execute_ompe(function, ALPHA, config=fast_config, seed=14,
                         sender_pool=sender_pool)
        assert a.amplifier != b.amplifier


class TestExhaustionContract:
    """Pin the exhaustion/refill split documented on ``pop()``: raw
    pools fail loud when empty and never regenerate themselves; the
    session refills transparently from its own seeded stream."""

    def test_raw_pools_never_self_refill(self, fast_config):
        sender_pool = SenderPool(fast_config, 1, 2, ReproRandom(21))
        receiver_pool = ReceiverPool(fast_config, 2, 1, 2, ReproRandom(22))
        for _ in range(2):
            sender_pool.pop()
            receiver_pool.pop()
        assert len(sender_pool) == 0 and len(receiver_pool) == 0
        # Still empty on the next pop — exhaustion is a hard error,
        # repeated pops do not regenerate bundles behind the caller.
        for _ in range(2):
            with pytest.raises(OMPEError, match="exhausted"):
                sender_pool.pop()
            with pytest.raises(OMPEError, match="exhausted"):
                receiver_pool.pop()

    def test_execute_ompe_surfaces_exhaustion(self, fast_config, function):
        sender_pool = SenderPool(fast_config, 1, 1, ReproRandom(23))
        execute_ompe(function, ALPHA, config=fast_config, seed=30,
                     sender_pool=sender_pool)
        with pytest.raises(OMPEError, match="exhausted"):
            execute_ompe(function, ALPHA, config=fast_config, seed=31,
                         sender_pool=sender_pool)

    def test_session_refills_transparently(self, fast_config):
        from repro.core.classification.session import (
            PrivateClassificationSession,
        )
        from repro.ml.svm.model import make_linear_model

        model = make_linear_model([1.0, -0.5], bias=0.1)
        session = PrivateClassificationSession(
            model, config=fast_config, pool_size=2, seed=99
        )
        # 5 queries through a 2-bundle pool: refills absorb exhaustion.
        outcomes = [
            session.classify([0.2 * i, -0.1 * i]) for i in range(5)
        ]
        assert all(o.label in (-1.0, 1.0) for o in outcomes)
        assert session.queries_served == 5
