"""Tests for privacy analysis and collusion attacks (Section VI-A)."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.classification import classify_linear
from repro.core.ompe import OMPEFunction
from repro.core.ompe.receiver import OMPEReceiver
from repro.core.ompe.sender import OMPESender
from repro.core.privacy import (
    DistanceRetrievalAttack,
    ModelEstimationAttack,
    client_view_is_randomized,
    cover_consistency_attack,
    cover_disguise_samples,
    extract_view,
    indistinguishability_test,
    scan_view_for_values,
)
from repro.exceptions import ValidationError
from repro.math.multivariate import MultivariatePolynomial
from repro.math.scaled import ScaledVector
from repro.ml.datasets import two_gaussians
from repro.ml.svm import train_svm
from repro.ml.svm.model import make_linear_model
from repro.net.party import connect_parties
from repro.utils.rng import ReproRandom


def run_instrumented_ompe(fast_config, seed=1):
    """Run OMPE keeping receiver-side ground truth (cover positions)."""
    # Non-integer coefficients: the scanner matches exact values, and
    # small integers would collide with protocol metadata (m, M, arity).
    polynomial = MultivariatePolynomial.affine(
        [Fraction(3, 7), Fraction(-2, 5)], Fraction(1, 2)
    )
    alpha = (Fraction(2, 7), Fraction(-1, 3))
    root = ReproRandom(seed)
    sender = OMPESender(
        "alice", OMPEFunction.from_polynomial(polynomial),
        fast_config, rng=root.fork("sender"),
    )
    receiver = OMPEReceiver("bob", alpha, fast_config, rng=root.fork("receiver"))
    channel = connect_parties(sender, receiver)
    receiver.send_request()
    sender.handle_request()
    receiver.handle_params()
    sender.handle_points()
    receiver.handle_ot_setups()
    sender.handle_choices()
    value = receiver.finish()
    return polynomial, alpha, sender, receiver, channel, value


class TestLevelOne:
    def test_trainer_never_sees_client_input(self, fast_config):
        polynomial, alpha, sender, receiver, channel, _ = run_instrumented_ompe(
            fast_config
        )
        trainer_view = extract_view(channel.transcript, "alice")
        hits = scan_view_for_values(trainer_view, list(alpha))
        assert hits == []

    def test_client_never_sees_model_coefficients(self, fast_config):
        polynomial, alpha, sender, receiver, channel, _ = run_instrumented_ompe(
            fast_config
        )
        client_view = extract_view(channel.transcript, "bob")
        coefficients = list(polynomial.terms.values())
        hits = scan_view_for_values(client_view, coefficients)
        assert hits == []

    def test_scan_detects_planted_leak(self, fast_config):
        """The scanner itself works: a deliberately leaked value is found."""
        _, alpha, _, _, channel, _ = run_instrumented_ompe(fast_config)
        channel.send("bob", "leak", alpha[0])
        channel.receive("alice")
        trainer_view = extract_view(channel.transcript, "alice")
        hits = scan_view_for_values(trainer_view, list(alpha))
        assert ("leak", alpha[0]) in hits

    def test_scan_reads_points_vectors_as_coordinates(self, fast_config):
        """A points vector equal to Bob's input is found in Alice's view,
        read as its exact coordinates, not the integers it is sent in."""
        _, alpha, _, _, channel, _ = run_instrumented_ompe(fast_config)
        honest = channel.transcript.of_type("ompe/points")[0].payload
        leaked = ScaledVector.of(alpha)  # 21, (6, -7) for (2/7, -1/3)
        planted = ((honest[0][0], leaked),) + honest[1:]
        channel.send("bob", "ompe/points", planted)
        channel.receive("alice")
        trainer_view = extract_view(channel.transcript, "alice")
        hits = scan_view_for_values(trainer_view, list(alpha))
        assert hits == [("ompe/points", alpha[0]), ("ompe/points", alpha[1])]
        # The vector's integer form is not part of what Alice reads.
        integers = [leaked.denominator, *leaked.numerators]
        assert scan_view_for_values(trainer_view[-1:], integers) == []

    def test_scan_requires_forbidden_values(self, fast_config):
        _, _, _, _, channel, _ = run_instrumented_ompe(fast_config)
        with pytest.raises(ValidationError):
            scan_view_for_values(extract_view(channel.transcript, "alice"), [])

    def test_cover_disguise_indistinguishable(self, fast_config):
        _, _, _, receiver, channel, _ = run_instrumented_ompe(fast_config, seed=3)
        result = indistinguishability_test(
            channel.transcript, receiver._cover_positions
        )
        # Identically distributed by construction: K-S cannot reject.
        assert result.pvalue > 0.01

    def test_cover_disguise_extraction(self, fast_config):
        _, _, _, receiver, channel, _ = run_instrumented_ompe(fast_config, seed=4)
        covers, disguises = cover_disguise_samples(
            channel.transcript, receiver._cover_positions
        )
        m = fast_config.cover_count(1)
        M = fast_config.pair_count(1)
        assert len(covers) == m * 2       # 2 coordinates per pair
        assert len(disguises) == (M - m) * 2

    def test_extraction_requires_points_message(self):
        from repro.net.transcript import Transcript

        with pytest.raises(ValidationError):
            cover_disguise_samples(Transcript(), [0])


class TestLevelTwo:
    def test_client_values_randomized(self, fast_config):
        data = two_gaussians("l2", dimension=2, train_size=80, test_size=10, seed=1)
        model = train_svm(data.X_train, data.y_train, kernel="linear", C=10.0)
        randomized, truth = [], []
        for index in range(5):
            outcome = classify_linear(
                model, data.X_test[index], config=fast_config, seed=index
            )
            randomized.append(outcome.randomized_value)
            truth.append(
                model.exact_decision_value(
                    tuple(Fraction(v) for v in data.X_test[index])
                )
            )
        assert client_view_is_randomized(randomized, truth)

    def test_randomization_check_flags_identity(self):
        assert not client_view_is_randomized([Fraction(2)], [Fraction(2)])

    def test_randomization_check_flags_sign_flip(self):
        assert not client_view_is_randomized([Fraction(-1)], [Fraction(2)])

    def test_randomization_check_pairing(self):
        with pytest.raises(ValidationError):
            client_view_is_randomized([1], [1, 2])


class TestModelEstimationAttack:
    @pytest.fixture(scope="class")
    def model(self):
        data = two_gaussians("atk", dimension=2, train_size=400, test_size=10, seed=2)
        return train_svm(data.X_train, data.y_train, kernel="linear", C=10.0)

    def test_estimation_rambles(self, model):
        """Fig. 5: pooled errors stay large; no convergence by 50 samples."""
        attack = ModelEstimationAttack(model)
        true_w = model.weight_vector()
        failures = 0
        trials = 6
        for trial in range(trials):
            estimates = attack.sweep(seed=1000 * trial)
            final_error = estimates[-1].direction_error_degrees(true_w)
            if final_error > 5.0:
                failures += 1
        # In most trials the 50-sample estimate is still far off.
        assert failures >= trials // 2

    def test_estimation_not_monotone(self, model):
        attack = ModelEstimationAttack(model)
        true_w = model.weight_vector()
        errors = [
            e.direction_error_degrees(true_w) for e in attack.sweep(seed=7)
        ]
        assert any(late > early for early, late in zip(errors, errors[1:]))

    def test_through_protocol_consistent(self, model, fast_config):
        attack = ModelEstimationAttack(model, config=fast_config)
        estimate = attack.estimate(4, seed=5, through_protocol=True)
        assert estimate.sample_count == 4

    def test_pool_size_validation(self, model):
        attack = ModelEstimationAttack(model)
        with pytest.raises(ValidationError):
            attack.estimate(1)

    def test_rejects_nonlinear(self):
        data = two_gaussians("nlm", dimension=2, train_size=50, test_size=5, seed=3)
        poly = train_svm(
            data.X_train, data.y_train, kernel="poly", degree=3, a0=0.5, b0=0.0
        )
        with pytest.raises(ValidationError):
            ModelEstimationAttack(poly)


class TestDistanceRetrievalAttack:
    def test_exact_recovery_from_n_plus_1(self, fast_config):
        model = make_linear_model([1.3, -0.6], 0.25)
        attack = DistanceRetrievalAttack(model, config=fast_config)
        queries = np.array([[0.1, 0.2], [0.5, -0.4], [-0.3, 0.7]])
        estimate = attack.run(queries, seed=1)
        assert estimate.weights == pytest.approx((1.3, -0.6), abs=1e-6)
        assert estimate.bias == pytest.approx(0.25, abs=1e-6)
        assert estimate.direction_error_degrees([1.3, -0.6]) < 1e-6

    def test_fast_path_matches_protocol_path(self, fast_config):
        model = make_linear_model([0.4, 0.9], -0.1)
        attack = DistanceRetrievalAttack(model, config=fast_config)
        queries = np.array([[0.2, 0.1], [-0.5, 0.4], [0.6, -0.2]])
        through = attack.run(queries, seed=2, through_protocol=True)
        direct = attack.run(queries, seed=2, through_protocol=False)
        assert through.weights == pytest.approx(direct.weights, abs=1e-9)

    def test_too_few_queries(self):
        model = make_linear_model([1.0, 1.0], 0.0)
        attack = DistanceRetrievalAttack(model)
        with pytest.raises(ValidationError):
            attack.run(np.array([[0.1, 0.2], [0.3, 0.4]]))

    def test_amplified_protocol_defeats_attack(self, fast_config):
        """The same linear-solve on AMPLIFIED values fails — why r_a exists."""
        model = make_linear_model([1.3, -0.6], 0.25)
        queries = np.array([[0.1, 0.2], [0.5, -0.4], [-0.3, 0.7], [0.8, 0.1]])
        values = []
        for index, query in enumerate(queries):
            outcome = classify_linear(
                model, query, config=fast_config, seed=index, amplify=True
            )
            values.append(float(outcome.randomized_value))
        design = np.hstack([queries, np.ones((4, 1))])
        solution, *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
        recovered = solution[:2]
        true_w = np.array([1.3, -0.6])
        cosine = abs(recovered @ true_w) / (
            np.linalg.norm(recovered) * np.linalg.norm(true_w)
        )
        angle = np.degrees(np.arccos(min(1.0, cosine)))
        assert angle > 1.0  # not an exact recovery


class TestSparseTableEstimation:
    """Regression: mitigated output hands colluders a table with holes
    (``None``/NaN where a threshold or top-k policy withheld the score).
    The table-driven fits must tolerate the holes instead of raising —
    and must refuse, loudly, once too few dense rows survive."""

    MODEL = ([1.3, -0.6], 0.25)

    def _dense_table(self):
        model = make_linear_model(*self.MODEL)
        queries = np.array(
            [[0.1, 0.2], [0.5, -0.4], [-0.3, 0.7], [0.8, 0.1], [-0.6, -0.2]]
        )
        values = [model.decision_value(q) for q in queries]
        return model, queries, values

    def test_holes_are_skipped_not_fatal(self):
        model, queries, values = self._dense_table()
        sparse = list(values)
        sparse[1] = None
        sparse[3] = float("nan")
        attack = DistanceRetrievalAttack(model)
        estimate = attack.estimate_from_table(queries, sparse)
        assert estimate.sample_count == 3
        # Three exact equations in three unknowns: still exact recovery.
        assert estimate.weights == pytest.approx(self.MODEL[0], abs=1e-9)
        assert estimate.bias == pytest.approx(self.MODEL[1], abs=1e-9)

    def test_dense_table_matches_run_fast_path(self):
        model, queries, values = self._dense_table()
        attack = DistanceRetrievalAttack(model)
        from_table = attack.estimate_from_table(queries, values)
        direct = attack.run(queries, through_protocol=False)
        assert from_table.weights == pytest.approx(direct.weights, abs=1e-12)
        assert from_table.bias == pytest.approx(direct.bias, abs=1e-12)

    def test_too_sparse_raises_not_garbage(self):
        model, queries, values = self._dense_table()
        sparse = [values[0], None, None, float("nan"), values[4]]
        attack = DistanceRetrievalAttack(model)
        with pytest.raises(ValidationError, match="dense rows"):
            attack.estimate_from_table(queries, sparse)

    def test_all_holes_raises(self):
        model, queries, _ = self._dense_table()
        attack = DistanceRetrievalAttack(model)
        with pytest.raises(ValidationError, match="dense rows"):
            attack.estimate_from_table(queries, [None] * len(queries))

    def test_length_mismatch_rejected(self):
        model, queries, values = self._dense_table()
        attack = DistanceRetrievalAttack(model)
        with pytest.raises(ValidationError):
            attack.estimate_from_table(queries, values[:-1])

    def test_estimation_attack_tolerates_holes_with_degraded_accuracy(self):
        """The amplified attack rambles on a dense pool; puncturing the
        pool can only leave it equal or worse, never crash it."""
        data = two_gaussians(
            "sparse-atk", dimension=2, train_size=200, test_size=5, seed=4
        )
        model = train_svm(data.X_train, data.y_train, kernel="linear", C=10.0)
        attack = ModelEstimationAttack(model)
        rng = ReproRandom(9).fork("estimation", 12)
        queries, values = attack.collect(12, rng, seed=9, through_protocol=False)
        sparse = [
            None if index % 3 == 0 else value
            for index, value in enumerate(values)
        ]
        estimate = attack.estimate_from_table(queries, sparse)
        assert estimate.sample_count == sum(v is not None for v in sparse)
        # Amplification keeps the estimate off-target either way; the
        # sparse fit stays in the same rambling regime (pinned loosely).
        error = estimate.direction_error_degrees(model.weight_vector())
        assert np.isfinite(error)

    def test_estimation_attack_too_sparse_raises(self):
        model = make_linear_model([0.4, 0.9], -0.1)
        attack = ModelEstimationAttack(model)
        queries = np.array([[0.2, 0.1], [-0.5, 0.4], [0.6, -0.2]])
        with pytest.raises(ValidationError, match="dense rows"):
            attack.estimate_from_table(queries, [0.3, None, None])

    def test_estimate_delegates_to_table_fit(self):
        """`estimate` is now a thin wrapper over `estimate_from_table`;
        the refactor must not change its results."""
        model = make_linear_model([0.4, 0.9], -0.1)
        attack = ModelEstimationAttack(model)
        rng = ReproRandom(3).fork("estimation", 6)
        queries, values = attack.collect(6, rng, seed=3, through_protocol=False)
        via_estimate = attack.estimate(6, seed=3)
        via_table = attack.estimate_from_table(queries, values)
        assert via_estimate.weights == pytest.approx(
            via_table.weights, abs=1e-12
        )
        assert via_estimate.sample_count == via_table.sample_count


class TestEstimatedModel:
    def test_direction_error_sign_invariant(self):
        from repro.core.privacy import EstimatedModel

        estimate = EstimatedModel(weights=(-1.0, 0.0), bias=0.0, sample_count=2)
        assert estimate.direction_error_degrees([1.0, 0.0]) == pytest.approx(0.0)

    def test_zero_estimate_is_90_degrees(self):
        from repro.core.privacy import EstimatedModel

        estimate = EstimatedModel(weights=(0.0, 0.0), bias=0.0, sample_count=2)
        assert estimate.direction_error_degrees([1.0, 0.0]) == 90.0


class TestExactRetrieval:
    def test_exact_recovery_bit_for_bit(self, fast_config):
        """Fig. 6 in exact arithmetic: the recovered model is not merely
        close — it is the snapped rational weight vector exactly."""
        from fractions import Fraction

        from repro.ml.svm.model import _to_fraction, make_linear_model

        model = make_linear_model([1.3, -0.6], 0.25)
        attack = DistanceRetrievalAttack(model, config=fast_config)
        queries = np.array([[0.1, 0.2], [0.5, -0.4], [-0.3, 0.7]])
        estimate = attack.run(queries, seed=1, exact=True)
        assert estimate.weights == (
            float(_to_fraction(1.3)),
            float(_to_fraction(-0.6)),
        )
        assert estimate.bias == float(_to_fraction(0.25))

    def test_exact_requires_protocol(self, fast_config):
        from repro.ml.svm.model import make_linear_model

        model = make_linear_model([1.0, 1.0], 0.0)
        attack = DistanceRetrievalAttack(model, config=fast_config)
        queries = np.array([[0.1, 0.2], [0.5, -0.4], [-0.3, 0.7]])
        with pytest.raises(ValidationError):
            attack.run(queries, seed=1, exact=True, through_protocol=False)


# -- cover consistency: overdetermined covers give Bob's input away -----------


def _linkage_kernel_model(rng):
    """A ``linkage-kernel``-shaped model (d = 6, 12 SVs, degree 3,
    ``b0 = 0``) whose decision surface crosses the box."""
    import itertools

    from repro.ml.kernels import polynomial_kernel
    from repro.ml.svm.model import SVMModel

    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=6)))
    while True:
        model = SVMModel(
            support_vectors=rng.uniform(-1.0, 1.0, size=(12, 6)).tolist(),
            dual_coefficients=rng.uniform(-1.0, 1.0, size=12).tolist(),
            bias=float(rng.uniform(-0.05, 0.05)),
            kernel=polynomial_kernel(degree=3, a0=1 / 6, b0=0.0),
            kernel_spec=("poly", {"degree": 3, "a0": 1 / 6, "b0": 0.0}),
        )
        values = model.decision_values(corners)
        if values.min() < 0 < values.max():
            return model


def _points_payload(report):
    (message,) = report.transcript.of_type("ompe/points")
    return message.payload


class TestCoverConsistencyAttack:
    CONFIG_ARGS = dict(security_degree=2, cover_expansion=3)

    def _config(self):
        from repro.core.ompe import OMPEConfig
        from repro.math.groups import fast_group

        return OMPEConfig(group=fast_group(), **self.CONFIG_ARGS)

    def test_kernel_runs_one_and_two_are_not_overdetermined(self):
        """m = q + 1 covers: no (q + 1)-subset of nodes extends."""
        from repro.core.similarity import evaluate_similarity_private

        rng = np.random.default_rng(2016)
        left, right = _linkage_kernel_model(rng), _linkage_kernel_model(rng)
        outcome = evaluate_similarity_private(left, right, config=self._config(), seed=1)
        # OMPE #1 and #2 share one run over both 56-monomial slices.
        points = _points_payload(outcome.reports["dots_ompe"])
        assert len(points) == 9
        assert len(points[0][1]) == 2 * 56
        assert len(cover_consistency_attack(points, q=2)) == 3

    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    def test_area_run_is_not_overdetermined(self, kind):
        """OMPE #3 runs over Eq. (7)'s 8 monomials at degree 1, so
        m = q + 1 = 3 covers of M = 9.  Sent as the degree-4 polynomial
        in (x₁, x₂) it had m = 9 covers of 27, and this attack returned
        those 9 and Bob's (x₁, x₂)."""
        from repro.core.similarity import evaluate_similarity_private

        if kind == "linear":
            left = make_linear_model([0.5, -0.25, 0.75], -0.2)
            right = make_linear_model([-0.3, 0.9, 0.1], 0.1)
        else:
            rng = np.random.default_rng(2016)
            left, right = _linkage_kernel_model(rng), _linkage_kernel_model(rng)
        outcome = evaluate_similarity_private(left, right, config=self._config(), seed=1)
        points = _points_payload(outcome.reports["area_ompe"])
        assert len(points) == 9
        assert {len(vector) for _, vector in points} == {8}
        assert len(cover_consistency_attack(points, q=2)) == 3

    def test_recovers_the_old_packed_input(self):
        """Power: the packed-model normal function (degree p + 1 = 4, so
        m = 9 covers of M = 27) hands Alice Bob's whole packed model."""
        from repro.core.ompe import execute_ompe
        from repro.math.interpolation import lagrange_at_zero

        rng = np.random.default_rng(7)
        dimension, svs, degree = 2, 3, 3
        alice_duals = [Fraction(int(v), 10**6) for v in rng.integers(-10**6, 10**6, 3)]
        alice_svs = [
            [Fraction(int(v), 10**6) for v in rng.integers(-10**6, 10**6, dimension)]
            for _ in range(3)
        ]

        def packed_normal(packed):
            # Σ_j c_j Σ_s c_s^A (x_s^A · x_j / d)^p over Bob's packed model.
            total = Fraction(0)
            for j in range(svs):
                start = svs + j * dimension
                x_j = packed[start : start + dimension]
                for dual, sv in zip(alice_duals, alice_svs):
                    dot = sum((a * b for a, b in zip(sv, x_j)), Fraction(0))
                    total += packed[j] * dual * (dot / dimension) ** degree
            return total

        bob_input = tuple(
            Fraction(int(v), 10**6)
            for v in rng.integers(-10**6, 10**6, svs * (dimension + 1))
        )
        outcome = execute_ompe(
            OMPEFunction.from_callable(
                arity=len(bob_input), total_degree=degree + 1, evaluate=packed_normal
            ),
            bob_input, config=self._config(), seed=3, amplify=True, offset=True,
        )
        points = _points_payload(outcome.report)
        assert len(points) == 27
        found = cover_consistency_attack(points, q=2)
        assert len(found) == 9
        nodes = [points[i][0] for i in found]
        recovered = tuple(
            lagrange_at_zero(nodes, [points[i][1][axis] for i in found])
            for axis in range(len(bob_input))
        )
        assert recovered == bob_input
