"""Attack-as-test: the similarity-fingerprinting harness gates every
output policy (ISSUE 7 tentpole).

The Culnane-style attack (SNIPPETS.md §2) must *succeed* against raw
ordered score tables — that is the vulnerability the paper's protocol
ships unmitigated — and must *measurably degrade* under each mitigated
output mode.  Both directions are pinned: a floor on raw precision and
recall, ceilings on every mitigation.  Everything is seeded, so the
pins are exact-repeatable; the slack in each pin covers platform float
variation only.
"""

import math

import pytest

from repro import obs
from repro.core.privacy.leakage import (
    LEAKAGE_WEIGHTS,
    ScoreTable,
    SimilarityFingerprintAttack,
    collect_score_table,
    leakage_score,
    perturb_table,
    record_leakage,
    release_table,
    score_table_from_models,
    synthetic_population,
)
from repro.core.similarity.policy import (
    OutputPolicy,
    mitigate_similarity_outcome,
    parse_output_policy,
)
from repro.exceptions import SimilarityError, ValidationError

#: Attack-scenario constants — calibrated once, then pinned.  16
#: pseudonymous subjects, 8 public probe models, attacker reference
#: perturbed with sigma=0.01 Gaussian noise (auxiliary knowledge is
#: approximate, not exact).
POPULATION_SEED = 77
PROBE_SEED = 99
NOISE_SEED = 5
RELEASE_SEED = 123
SUBJECTS = 16
PROBES = 8
DIMENSION = 3
SIGMA = 0.01

#: Pinned attack-outcome bounds.  Measured (deterministic): raw
#: precision/recall 1.00, top-k:2 recall 0.69, threshold:0.5 recall
#: 0.06, permuted recall 0.25.
RAW_FLOOR = 0.90
CEILINGS = {
    "top-k:2": 0.80,
    "threshold:0.5": 0.25,
    "permuted": 0.50,
}


@pytest.fixture(scope="module")
def scenario():
    subjects = synthetic_population(SUBJECTS, DIMENSION, seed=POPULATION_SEED)
    probes = synthetic_population(PROBES, DIMENSION, seed=PROBE_SEED)
    table = score_table_from_models(subjects, probes)
    reference = perturb_table(table, sigma=SIGMA, seed=NOISE_SEED)
    truth = {row_id: row_id for row_id in table.row_ids}
    return table, SimilarityFingerprintAttack(reference), truth


class TestFingerprintAttack:
    def test_raw_attack_succeeds(self, scenario):
        """The vulnerability is real: raw ordered scores re-identify."""
        table, attack, truth = scenario
        released = release_table(table, OutputPolicy(), seed=RELEASE_SEED)
        result = attack.run(released, truth)
        assert result.precision >= RAW_FLOOR
        assert result.recall >= RAW_FLOOR

    @pytest.mark.parametrize("spec", sorted(CEILINGS))
    def test_mitigations_degrade_attack(self, spec, scenario):
        """Each mitigated mode drops re-identification below its pin."""
        table, attack, truth = scenario
        released = release_table(
            table, parse_output_policy(spec), seed=RELEASE_SEED
        )
        result = attack.run(released, truth)
        assert result.recall <= CEILINGS[spec], (
            f"{spec}: recall {result.recall} above ceiling"
        )

    def test_mitigations_strictly_below_raw(self, scenario):
        table, attack, truth = scenario
        raw = attack.run(
            release_table(table, OutputPolicy(), seed=RELEASE_SEED), truth
        )
        for spec in sorted(CEILINGS):
            mitigated = attack.run(
                release_table(table, parse_output_policy(spec), seed=RELEASE_SEED),
                truth,
            )
            assert mitigated.recall < raw.recall, spec

    @pytest.mark.parametrize(
        "spec", ["raw", "top-k:2", "threshold:0.5", "permuted"]
    )
    def test_attack_deterministic(self, spec, scenario):
        """Same seeds, same released table, same attack outcome."""
        table, attack, truth = scenario
        policy = parse_output_policy(spec)
        first = attack.run(release_table(table, policy, seed=RELEASE_SEED), truth)
        second = attack.run(release_table(table, policy, seed=RELEASE_SEED), truth)
        assert first == second

    def test_precision_zero_when_nothing_claimed(self):
        """An attacker that abstains everywhere has not succeeded."""
        table = ScoreTable(("a", "b"), ("p",), ((0.5,), (0.5,)))
        attack = SimilarityFingerprintAttack(table)
        released = release_table(table, OutputPolicy(), seed=1)
        result = attack.run(released, {"a": "a", "b": "b"})
        # Both reference rows are identical -> every match ties -> abstain.
        assert result.claimed == 0
        assert result.precision == 0.0
        assert result.recall == 0.0

    def test_mismatched_probe_columns_rejected(self, scenario):
        table, attack, truth = scenario
        other = ScoreTable(table.row_ids, ("other-probe",),
                           tuple((0.1,) for _ in table.row_ids))
        with pytest.raises(ValidationError):
            attack.run(release_table(other, OutputPolicy(), seed=1), truth)

    def test_missing_ground_truth_rejected(self, scenario):
        table, attack, _ = scenario
        released = release_table(table, OutputPolicy(), seed=1)
        with pytest.raises(ValidationError):
            attack.run(released, {})


class TestScoreTableBuilders:
    def test_collect_is_evaluation_path_agnostic(self, scenario):
        """A table built through the generic callable equals the
        model-built one — the attack cannot tell local from remote."""
        table, _, _ = scenario
        subjects = synthetic_population(SUBJECTS, DIMENSION, seed=POPULATION_SEED)
        probes = synthetic_population(PROBES, DIMENSION, seed=PROBE_SEED)
        from repro.core.similarity.metric import evaluate_similarity_plain

        rebuilt = collect_score_table(
            table.row_ids,
            table.column_ids,
            lambda r, c: evaluate_similarity_plain(subjects[r], probes[c]).t,
        )
        assert rebuilt == table

    def test_table_validation(self):
        with pytest.raises(ValidationError):
            ScoreTable((), ("p",), ())
        with pytest.raises(ValidationError):
            ScoreTable(("a", "a"), ("p",), ((0.1,), (0.2,)))
        with pytest.raises(ValidationError):
            ScoreTable(("a",), ("p",), ((float("nan"),),))
        with pytest.raises(ValidationError):
            ScoreTable(("a",), ("p", "q"), ((0.1,),))

    def test_perturb_requires_nonnegative_sigma(self, scenario):
        table, _, _ = scenario
        with pytest.raises(ValidationError):
            perturb_table(table, sigma=-0.1, seed=1)

    def test_perturbed_scores_stay_nonnegative(self, scenario):
        table, _, _ = scenario
        noisy = perturb_table(table, sigma=10.0, seed=3)
        assert all(v >= 0.0 for row in noisy.scores for v in row)


class TestLeakageScore:
    def test_raw_is_total_leakage(self):
        score = leakage_score(OutputPolicy(), count=8)
        assert score.total == 1.0
        assert set(score.subscores().values()) == {1.0}

    def test_permuted_is_zero_leakage(self):
        score = leakage_score(parse_output_policy("permuted"), count=8)
        assert score.total == 0.0

    def test_monotone_across_policies(self):
        """raw >= top-k >= threshold >= permuted for a k < count table."""
        count = 8
        totals = [
            leakage_score(policy, count).total
            for policy in (
                OutputPolicy(),
                parse_output_policy("top-k:2"),
                parse_output_policy("threshold:0.5"),
                parse_output_policy("permuted"),
            )
        ]
        assert totals == sorted(totals, reverse=True)
        assert totals[0] > totals[1] > totals[2] > totals[3]

    def test_total_is_weighted_sum(self):
        """LPS composition: the total decomposes exactly into the
        published weights — auditable component by component."""
        score = leakage_score(parse_output_policy("top-k:3"), count=10)
        expected = sum(
            LEAKAGE_WEIGHTS[name] * value
            for name, value in score.subscores().items()
        )
        assert math.isclose(score.total, expected)
        assert math.isclose(sum(LEAKAGE_WEIGHTS.values()), 1.0)

    def test_top_k_saturates_at_count(self):
        """k >= count reveals everything: identical to raw."""
        assert (
            leakage_score(parse_output_policy("top-k:10"), count=3).total
            == leakage_score(OutputPolicy(), count=3).total
        )

    def test_pure_function_of_policy_and_count(self):
        policy = parse_output_policy("threshold:0.25")
        assert leakage_score(policy, 5) == leakage_score(policy, 5)

    def test_count_must_be_positive(self):
        with pytest.raises(ValidationError):
            leakage_score(OutputPolicy(), 0)

    def test_record_exports_gauge_with_policy_labels(self):
        registry = obs.enable_metrics()
        try:
            policy = parse_output_policy("top-k:2")
            score = record_leakage(policy, 8)
            gauge = registry.gauge("repro_privacy_leakage_score")
            assert gauge.value(policy="top-k:2", component="total") == score.total
            for component, value in score.subscores().items():
                assert gauge.value(policy="top-k:2", component=component) == value
        finally:
            obs.disable_metrics()

    def test_mitigated_outcome_records_leakage(self, fast_config):
        """End-to-end: a policy'd protocol run exports its own score."""
        from repro.core.similarity import evaluate_similarity_private
        from repro.ml.svm.model import make_linear_model

        registry = obs.enable_metrics()
        try:
            outcome = evaluate_similarity_private(
                make_linear_model([0.5, -0.25], 0.1),
                make_linear_model([0.4, 0.3], -0.2),
                config=fast_config,
                seed=3,
                policy=parse_output_policy("permuted"),
            )
            assert outcome.policy.mode == "permuted"
            gauge = registry.gauge("repro_privacy_leakage_score")
            assert gauge.value(policy="permuted", component="total") == 0.0
        finally:
            obs.disable_metrics()


class TestMitigatedOutcome:
    def _raw_outcome(self, fast_config):
        from repro.core.similarity import evaluate_similarity_private
        from repro.ml.svm.model import make_linear_model

        return evaluate_similarity_private(
            make_linear_model([0.5, -0.25], 0.1),
            make_linear_model([0.4, 0.3], -0.2),
            config=fast_config,
            seed=3,
        )

    def test_non_raw_outcome_withholds_t(self, fast_config):
        outcome = mitigate_similarity_outcome(
            self._raw_outcome(fast_config),
            parse_output_policy("threshold:0.5"),
        )
        with pytest.raises(SimilarityError):
            outcome.t
        assert not hasattr(outcome, "t_squared")
        assert outcome.released.revealed_scores == ()

    def test_raw_policy_outcome_keeps_t(self, fast_config):
        raw = self._raw_outcome(fast_config)
        mitigated = mitigate_similarity_outcome(raw, OutputPolicy())
        assert mitigated.t == raw.t
        assert mitigated.total_bytes == raw.total_bytes
        assert mitigated.total_rounds == raw.total_rounds
