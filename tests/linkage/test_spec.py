"""The deterministic chunk plan, per-pair seeds, and spec fingerprint."""

from __future__ import annotations

import pytest

from repro.core.ompe import OMPEConfig
from repro.linkage import LinkageJobSpec
from repro.exceptions import ValidationError
from repro.math.groups import fast_group
from repro.ml.svm.model import SVMModel, make_linear_model


class TestValidation:
    def test_empty_collections_rejected(self, left_models, right_models):
        with pytest.raises(ValidationError, match="left"):
            LinkageJobSpec({}, right_models)
        with pytest.raises(ValidationError, match="right"):
            LinkageJobSpec(left_models, {})

    def test_bad_keys_rejected(self, left_models, right_models):
        with pytest.raises(ValidationError, match="non-empty strings"):
            LinkageJobSpec({"": make_linear_model([1.0], 0.0)}, right_models)
        with pytest.raises(ValidationError, match="SVMModel"):
            LinkageJobSpec(left_models, {"R0": "not a model"})

    def test_parameter_bounds(self, left_models, right_models):
        with pytest.raises(ValidationError, match="chunk_pairs"):
            LinkageJobSpec(left_models, right_models, chunk_pairs=0)
        with pytest.raises(ValidationError, match="threshold"):
            LinkageJobSpec(left_models, right_models, threshold=-0.1)
        with pytest.raises(ValidationError, match="top_k"):
            LinkageJobSpec(left_models, right_models, top_k=0)

    def test_nan_threshold_rejected(self, left_models, right_models):
        # NaN passes ``threshold < 0`` and would score every pair, then
        # keep none of them.
        with pytest.raises(ValidationError, match="threshold"):
            LinkageJobSpec(left_models, right_models, threshold=float("nan"))

    def test_non_number_threshold_rejected(self, left_models, right_models):
        for threshold in (True, "0.5"):
            with pytest.raises(ValidationError, match="threshold"):
                LinkageJobSpec(left_models, right_models, threshold=threshold)

    def test_non_integer_top_k_rejected(self, left_models, right_models):
        # A float top_k would otherwise fail only at finalize, after
        # every chunk has been scored.
        for top_k in (1.5, 2.0, True):
            with pytest.raises(ValidationError, match="top_k"):
                LinkageJobSpec(left_models, right_models, top_k=top_k)

    def test_non_integer_chunk_pairs_rejected(self, left_models, right_models):
        for chunk_pairs in (2.5, 4.0, True, "8"):
            with pytest.raises(ValidationError, match="chunk_pairs"):
                LinkageJobSpec(left_models, right_models, chunk_pairs=chunk_pairs)

    def test_mixed_model_families_rejected(self, left_models):
        import numpy as np

        from repro.ml.kernels import polynomial_kernel

        kernel_model = SVMModel(
            support_vectors=np.ones((1, 2)),
            dual_coefficients=np.ones(1),
            bias=0.0,
            kernel=polynomial_kernel(degree=2, a0=1.0, b0=1.0),
            kernel_spec=("poly", {"degree": 2, "a0": 1.0, "b0": 1.0}),
        )
        with pytest.raises(ValidationError, match="one family"):
            LinkageJobSpec(left_models, {"R0": kernel_model})


class TestChunkPlan:
    def test_covers_every_pair_exactly_once(self, small_spec):
        seen = set()
        for chunk in small_spec.chunks():
            for right_key in chunk.right_keys:
                pair = (chunk.left_key, right_key)
                assert pair not in seen
                seen.add(pair)
        assert seen == {
            (left, right)
            for left in small_spec.left_keys
            for right in small_spec.right_keys
        }
        assert small_spec.total_pairs == len(seen)

    def test_chunk_size_bound(self, small_spec):
        for chunk in small_spec.chunks():
            assert 1 <= chunk.pairs <= small_spec.chunk_pairs

    def test_plan_is_stable_across_instances(
        self, left_models, right_models, light_config
    ):
        build = lambda: LinkageJobSpec(
            left_models, right_models, chunk_pairs=2, seed=7,
            config=light_config,
        )
        plan_a = [(c.chunk_id, c.left_key, c.right_keys) for c in build().chunks()]
        plan_b = [(c.chunk_id, c.left_key, c.right_keys) for c in build().chunks()]
        assert plan_a == plan_b

    def test_insertion_order_is_irrelevant(self, right_models, light_config):
        forward = {
            "La": make_linear_model([0.5, -0.4], 0.0),
            "Lb": make_linear_model([0.6, -0.3], 0.1),
        }
        backward = dict(reversed(list(forward.items())))
        spec_f = LinkageJobSpec(forward, right_models, config=light_config)
        spec_b = LinkageJobSpec(backward, right_models, config=light_config)
        assert [c.chunk_id for c in spec_f.chunks()] == [
            c.chunk_id for c in spec_b.chunks()
        ]
        assert spec_f.fingerprint() == spec_b.fingerprint()

    def test_chunk_ids_are_distinct_and_filesystem_safe(self, small_spec):
        ids = [chunk.chunk_id for chunk in small_spec.chunks()]
        assert len(set(ids)) == len(ids)
        for chunk_id in ids:
            assert chunk_id.isalnum() and len(chunk_id) == 16


class TestPairSeeds:
    def test_pure_function_of_keys(
        self, left_models, right_models, light_config
    ):
        spec_a = LinkageJobSpec(
            left_models, right_models, seed=7, config=light_config
        )
        spec_b = LinkageJobSpec(
            left_models, right_models, chunk_pairs=1, seed=7,
            config=light_config,
        )
        # Chunking differs; per-pair seeds must not.
        assert spec_a.pair_seed("L0", "R1") == spec_b.pair_seed("L0", "R1")

    def test_distinct_per_pair_and_per_master_seed(self, small_spec):
        seeds = {
            small_spec.pair_seed(left, right)
            for left in small_spec.left_keys
            for right in small_spec.right_keys
        }
        assert len(seeds) == small_spec.total_pairs
        assert small_spec.pair_seed("L0", "R0") != LinkageJobSpec(
            small_spec.left, small_spec.right, seed=8,
            config=small_spec.config,
        ).pair_seed("L0", "R0")


class TestFingerprint:
    def test_pinned_value(self):
        """Recorded when ``OMPEConfig`` still had an ``exact`` field: a
        store written then must resume under the same spec now."""
        spec = LinkageJobSpec(
            {
                "L0": make_linear_model([1.0, 0.5], -0.25),
                "L1": make_linear_model([0.3, -0.7], 0.1),
            },
            {"R0": make_linear_model([0.9, 0.4], -0.2)},
            config=OMPEConfig(security_degree=1, cover_expansion=2, group=fast_group()),
            seed=7,
        )
        assert spec.fingerprint() == (
            "e8a9e6fedd8f1cbe2c90b0b4f7339e6b025ab512f9fe6629ce869a37bf4cf195"
        )

    def test_stable_for_equal_specs(
        self, left_models, right_models, light_config
    ):
        build = lambda: LinkageJobSpec(
            left_models, right_models, threshold=0.5, top_k=2, seed=7,
            config=light_config,
        )
        assert build().fingerprint() == build().fingerprint()

    @pytest.mark.parametrize(
        "override",
        [
            {"chunk_pairs": 64},
            {"threshold": 0.25},
            {"top_k": 1},
            {"seed": 8},
        ],
    )
    def test_any_scoring_parameter_changes_it(
        self, left_models, right_models, light_config, override
    ):
        base = dict(chunk_pairs=128, threshold=0.5, top_k=2, seed=7)
        spec_a = LinkageJobSpec(
            left_models, right_models, config=light_config, **base
        )
        spec_b = LinkageJobSpec(
            left_models, right_models, config=light_config,
            **{**base, **override},
        )
        assert spec_a.fingerprint() != spec_b.fingerprint()

    def test_model_content_changes_it(self, right_models, light_config):
        spec_a = LinkageJobSpec(
            {"L0": make_linear_model([0.5, -0.4], 0.0)},
            right_models, config=light_config,
        )
        spec_b = LinkageJobSpec(
            {"L0": make_linear_model([0.5, -0.4], 0.125)},
            right_models, config=light_config,
        )
        assert spec_a.fingerprint() != spec_b.fingerprint()
