"""Property tests for the output-policy layer (ISSUE 7 satellite 3).

Three invariants hold for *every* score table, not just the pinned
attack scenario, so they get hypothesis sweeps:

1. top-k never reveals more than k scores;
2. threshold-only output is a pure function of the comparison bits;
3. the permuted+masked released view is independent of the order the
   input pairs arrive in.

Plus the adversarial half of the wire story: the registered
``similarity/output-policy`` payload must reject hostile bytes
(truncation, unknown mode, out-of-range k) with :class:`ValidationError`
rather than constructing an invalid policy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.similarity.policy import (
    MAX_TOP_K,
    OutputPolicy,
    apply_output_policy,
    parse_output_policy,
)
from repro.exceptions import ValidationError
from repro.utils.serialization import decode_payload, encode_payload

scores_strategy = st.lists(
    st.floats(
        min_value=0.0, max_value=100.0,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=1,
    max_size=12,
)


class TestPolicyInvariants:
    @given(scores=scores_strategy, k=st.integers(min_value=1, max_value=15))
    @settings(max_examples=60, deadline=None)
    def test_top_k_reveals_at_most_k(self, scores, k):
        released = apply_output_policy(
            scores, OutputPolicy(mode="top-k", k=k), seed=7
        )
        assert len(released.revealed_scores) == min(k, len(scores))
        assert released.revealed_scores == tuple(
            sorted(scores)[: min(k, len(scores))]
        )

    @given(
        scores=scores_strategy,
        threshold=st.floats(
            min_value=0.01, max_value=100.0,
            allow_nan=False, allow_infinity=False,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_is_pure_function_of_comparison_bit(
        self, scores, threshold
    ):
        policy = OutputPolicy(mode="threshold", threshold=threshold)
        released = apply_output_policy(scores, policy, seed=7)
        assert released.match_bits == {
            index: score <= threshold for index, score in enumerate(scores)
        }
        assert released.revealed_scores == ()

    @given(scores=st.permutations(list(range(1, 9))), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_permuted_release_is_order_independent(self, scores, seed):
        """Shuffling the input pairs (with their ids) must not change
        the released view — otherwise position leaks identity."""
        policy = OutputPolicy(mode="permuted")
        ids = [f"pair-{score}" for score in scores]
        shuffled = apply_output_policy(
            [float(s) for s in scores], policy, seed=seed, ids=ids
        )
        canonical = apply_output_policy(
            [float(s) for s in sorted(scores)], policy, seed=seed,
            ids=[f"pair-{s}" for s in sorted(scores)],
        )
        assert shuffled.entries == canonical.entries

    @given(scores=scores_strategy, seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_permuted_masks_are_not_identity(self, scores, seed):
        """Masked values must not simply be the sorted raw scores
        whenever any score is non-zero (masks are never 1.0-only)."""
        released = apply_output_policy(
            scores, OutputPolicy(mode="permuted"), seed=seed
        )
        assert len(released.entries) == len(scores)
        if any(score > 0 for score in scores):
            assert released.entries != tuple(sorted(scores)) or all(
                score == 0 for score in scores
            )

    def test_permuted_subnormal_score_is_not_released(self):
        """``5e-324`` times a mask near 1 rounds back to ``5e-324``: a
        subnormal score is masked as 0.0, never released as itself."""
        released = apply_output_policy(
            [5e-324], OutputPolicy(mode="permuted"), seed=112
        )
        assert released.entries == (0.0,)

    @given(scores=scores_strategy)
    @settings(max_examples=40, deadline=None)
    def test_raw_releases_everything_in_order(self, scores):
        released = apply_output_policy(scores, OutputPolicy(), seed=7)
        assert released.revealed_scores == tuple(scores)


class TestPolicyCodec:
    @pytest.mark.parametrize(
        "policy",
        [
            OutputPolicy(),
            OutputPolicy(mode="threshold", threshold=0.5),
            OutputPolicy(mode="top-k", k=5),
            OutputPolicy(mode="top-k", k=MAX_TOP_K),
            OutputPolicy(mode="permuted"),
        ],
    )
    def test_round_trip(self, policy):
        decoded = decode_payload(encode_payload(policy))
        assert decoded == policy
        assert isinstance(decoded, OutputPolicy)

    @pytest.mark.parametrize(
        "policy",
        [
            OutputPolicy(),
            OutputPolicy(mode="threshold", threshold=0.5),
            OutputPolicy(mode="top-k", k=5),
        ],
    )
    def test_truncation_rejected(self, policy):
        data = encode_payload(policy)
        for cut in range(len(data)):
            with pytest.raises(ValidationError):
                decode_payload(data[:cut])

    def test_unknown_mode_rejected_at_decode(self):
        data = encode_payload(OutputPolicy())
        hostile = data.replace(b"raw", b"rot")
        assert hostile != data
        with pytest.raises(ValidationError):
            decode_payload(hostile)

    def test_out_of_range_k_rejected_at_decode(self):
        # Patch the encoded k (MAX_TOP_K) up by one; decode must re-run
        # dataclass validation, not trust the wire.
        data = encode_payload(OutputPolicy(mode="top-k", k=MAX_TOP_K))
        hostile = data.replace(
            encode_payload(MAX_TOP_K), encode_payload(MAX_TOP_K + 1)
        )
        assert hostile != data
        with pytest.raises(ValidationError):
            decode_payload(hostile)


class TestPolicyConstruction:
    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            OutputPolicy(mode="cleartext")

    @pytest.mark.parametrize("k", [0, -1, MAX_TOP_K + 1, True])
    def test_bad_k(self, k):
        with pytest.raises(ValidationError):
            OutputPolicy(mode="top-k", k=k)

    @pytest.mark.parametrize(
        "threshold", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_bad_threshold(self, threshold):
        with pytest.raises(ValidationError):
            OutputPolicy(mode="threshold", threshold=threshold)

    def test_cross_mode_parameters_rejected(self):
        with pytest.raises(ValidationError):
            OutputPolicy(mode="raw", k=3)
        with pytest.raises(ValidationError):
            OutputPolicy(mode="permuted", threshold=0.5)
        with pytest.raises(ValidationError):
            OutputPolicy(mode="threshold")
        with pytest.raises(ValidationError):
            OutputPolicy(mode="top-k")

    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("raw", OutputPolicy()),
            ("threshold:0.5", OutputPolicy(mode="threshold", threshold=0.5)),
            ("top-k:5", OutputPolicy(mode="top-k", k=5)),
            ("permuted", OutputPolicy(mode="permuted")),
        ],
    )
    def test_parse_round_trips_label(self, text, expected):
        policy = parse_output_policy(text)
        assert policy == expected
        assert parse_output_policy(policy.label) == policy

    @pytest.mark.parametrize(
        "text",
        ["", "raw:1", "threshold", "threshold:zero", "top-k", "top-k:1.5",
         "permuted:3", "unknown"],
    )
    def test_parse_rejects_malformed_specs(self, text):
        with pytest.raises(ValidationError):
            parse_output_policy(text)

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValidationError):
            apply_output_policy([0.1, 0.2], OutputPolicy(), ids=["a"])
        with pytest.raises(ValidationError):
            apply_output_policy(
                [0.1, 0.2], OutputPolicy(), ids=["a", "a"]
            )

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValidationError):
            apply_output_policy([float("nan")], OutputPolicy())
