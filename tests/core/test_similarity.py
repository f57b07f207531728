"""Tests for the similarity metric and private evaluation (Section V)."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.similarity import (
    MetricParams,
    centroid,
    cosine_similarity,
    evaluate_similarity_plain,
    evaluate_similarity_private,
    exact_normal_inner,
    kernel_boundary_points,
    linear_boundary_points,
    model_boundary_points,
    normal_inner_product,
    triangle_t_squared,
)
from repro.core.similarity import linear
from repro.core.similarity.exact import snap
from repro.core.similarity.linear import AREA_BASIS
from repro.core.similarity.profile import DotForm, similarity_profile
from repro.exceptions import SimilarityError, ValidationError
from repro.ml.datasets import interaction_boundary, two_gaussians
from repro.ml.svm import train_svm
from repro.ml.svm.model import make_linear_model
from tests.reference import build_t_squared_polynomial


class TestLinearBoundaryPoints:
    def test_2d_line_crosses_box_twice(self):
        # x = 0 line (vertical): crosses top and bottom edges.
        points = linear_boundary_points([1.0, 0.0], 0.0)
        assert len(points) == 2
        for point in points:
            assert point[0] == pytest.approx(0.0)
            assert abs(point[1]) == pytest.approx(1.0)

    def test_diagonal_line(self):
        points = linear_boundary_points([1.0, -1.0], 0.0)
        # x = y crosses at the two corners (±1, ±1) — deduped.
        assert len(points) == 2

    def test_offset_line(self):
        points = linear_boundary_points([1.0, 0.0], -0.5)
        for point in points:
            assert point[0] == pytest.approx(0.5)

    def test_plane_outside_box(self):
        with pytest.raises(SimilarityError):
            linear_boundary_points([1.0, 0.0], 10.0)

    def test_3d_count(self):
        # A generic plane crossing the cube: polygon with >= 3 vertices.
        points = linear_boundary_points([1.0, 0.7, -0.4], 0.1)
        assert len(points) >= 3

    def test_on_plane(self):
        weights = [0.8, -0.3, 0.5]
        bias = 0.12
        for point in linear_boundary_points(weights, bias):
            value = sum(w * x for w, x in zip(weights, point)) + bias
            assert value == pytest.approx(0.0, abs=1e-9)
            assert all(-1.0 <= x <= 1.0 for x in point)

    def test_custom_bounds(self):
        points = linear_boundary_points([1.0, 0.0], 0.0, lower=0.0, upper=2.0)
        for point in points:
            assert 0.0 <= point[1] <= 2.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            linear_boundary_points([], 0.0)
        with pytest.raises(ValidationError):
            linear_boundary_points([1.0], 0.0, lower=1.0, upper=-1.0)


class TestKernelBoundaryPoints:
    def test_matches_linear_for_linear_model(self):
        model = make_linear_model([0.9, -0.4], 0.2)
        exact = set()
        for point in linear_boundary_points([0.9, -0.4], 0.2):
            exact.add(tuple(round(v, 6) for v in point))
        scanned = set()
        for point in kernel_boundary_points(model, resolution=128):
            scanned.add(tuple(round(v, 6) for v in point))
        assert exact == scanned

    def test_nonlinear_points_on_surface(self):
        data = interaction_boundary("kb", 3, 80, 10, seed=2)
        model = train_svm(
            data.X_train, data.y_train, kernel="poly",
            C=50.0, degree=3, a0=1 / 3, b0=0.0,
        )
        points = kernel_boundary_points(model, resolution=48)
        assert points
        for point in points[:20]:
            assert model.decision_value(np.asarray(point)) == pytest.approx(
                0.0, abs=1e-6
            )

    def test_model_boundary_points_dispatch(self):
        model = make_linear_model([1.0, 0.0], 0.0)
        assert model_boundary_points(model) == linear_boundary_points([1.0, 0.0], 0.0)

    def test_resolution_validation(self):
        model = make_linear_model([1.0, 0.0], 0.0)
        with pytest.raises(ValidationError):
            kernel_boundary_points(model, resolution=1)


class TestCentroidAndMetric:
    def test_centroid(self):
        assert centroid([(0.0, 0.0), (2.0, 4.0)]) == (1.0, 2.0)

    def test_centroid_empty(self):
        with pytest.raises(SimilarityError):
            centroid([])

    def test_cosine(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
        assert cosine_similarity([1, 1], [2, 2]) == pytest.approx(1.0)
        assert cosine_similarity([1, 0], [-1, 0]) == pytest.approx(-1.0)

    def test_cosine_zero_vector(self):
        with pytest.raises(SimilarityError):
            cosine_similarity([0, 0], [1, 0])

    def test_triangle_formula(self):
        params = MetricParams(l0=0.1, sin_theta0=0.2)
        # L² = 4, cos²θ = 0.25 → T² = ¼(16 + 1e-4)(0.75 + 0.04)
        value = triangle_t_squared(4.0, 0.25, params)
        assert value == pytest.approx(0.25 * (16 + 1e-4) * 0.79)

    def test_triangle_floor(self):
        params = MetricParams()
        assert triangle_t_squared(0.0, 1.0, params) == pytest.approx(
            params.minimum_t_squared
        )

    def test_triangle_negative_distance(self):
        with pytest.raises(ValidationError):
            triangle_t_squared(-1.0, 0.5, MetricParams())

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            MetricParams(l0=0.0)
        with pytest.raises(ValidationError):
            MetricParams(sin_theta0=1.5)
        with pytest.raises(ValidationError):
            MetricParams(lower=1.0, upper=-1.0)


class TestPlainSimilarity:
    def test_identical_models_floor(self):
        model = make_linear_model([1.0, 0.5], -0.1)
        params = MetricParams()
        result = evaluate_similarity_plain(model, model, params)
        assert result.t_squared == pytest.approx(params.minimum_t_squared)

    def test_symmetry(self):
        a = make_linear_model([1.0, 0.7], -0.2)
        b = make_linear_model([0.8, -0.5], 0.3)
        ab = evaluate_similarity_plain(a, b)
        ba = evaluate_similarity_plain(b, a)
        assert ab.t == pytest.approx(ba.t)

    def test_monotone_in_rotation(self):
        """Rotating one model away increases T (direction sensitivity)."""
        base = make_linear_model([1.0, 0.0], 0.0)
        previous = -1.0
        for angle_deg in (5, 20, 45, 80):
            angle = math.radians(angle_deg)
            rotated = make_linear_model([math.cos(angle), math.sin(angle)], 0.0)
            value = evaluate_similarity_plain(base, rotated).t
            assert value > previous
            previous = value

    def test_monotone_in_offset(self):
        """Translating one model away increases T (position sensitivity)."""
        base = make_linear_model([1.0, 0.0], 0.0)
        previous = -1.0
        for offset in (0.1, 0.3, 0.6):
            shifted = make_linear_model([1.0, 0.0], -offset)
            value = evaluate_similarity_plain(base, shifted).t
            assert value > previous
            previous = value

    def test_mixed_kernels_rejected(self):
        linear = make_linear_model([1.0, 0.0], 0.0)
        data = two_gaussians("mk", dimension=2, train_size=50, test_size=5, seed=1)
        poly = train_svm(
            data.X_train, data.y_train, kernel="poly", degree=3, a0=0.5, b0=0.0
        )
        with pytest.raises(SimilarityError):
            evaluate_similarity_plain(linear, poly)

    def test_angle_degrees_property(self):
        a = make_linear_model([1.0, 0.0], 0.0)
        b = make_linear_model([0.0, 1.0], 0.0)
        result = evaluate_similarity_plain(a, b)
        assert result.angle_degrees == pytest.approx(90.0, abs=1e-6)


class TestEquationSeven:
    def test_matches_equation_six(self, rng):
        """Eq. (7) with d2 = r_aw^-2 equals Eq. (6) — the errata fix."""
        for trial in range(10):
            draw = rng.fork(trial)
            m_a = [draw.fraction(-1, 1) for _ in range(3)]
            m_b = [draw.fraction(-1, 1) for _ in range(3)]
            w_a = [draw.nonzero_fraction(-2, 2) for _ in range(3)]
            w_b = [draw.nonzero_fraction(-2, 2) for _ in range(3)]
            r_am = draw.positive_fraction(0, 5)
            r_aw = draw.positive_fraction(0, 5)
            r_b = draw.fraction(-3, 3)
            l0_4 = Fraction(1, 10**8)
            sin_sq_theta0 = Fraction(1, 10**4)

            dot = lambda u, v: sum(a * b for a, b in zip(u, v))
            norm_sq = lambda u: dot(u, u)

            c1 = norm_sq(m_a) + norm_sq(m_b)
            c3 = 1 / (norm_sq(w_a) * norm_sq(w_b))
            c4 = 1 + sin_sq_theta0
            polynomial = build_t_squared_polynomial(
                c1, l0_4, c3, c4,
                1 / r_am, 1 / r_aw**2, -r_b,
            )
            x1 = r_am * dot(m_a, m_b)
            x2 = r_aw * dot(w_a, w_b) + r_b
            via_eq7 = polynomial((x1, x2))

            l_squared = norm_sq(m_a) + norm_sq(m_b) - 2 * dot(m_a, m_b)
            cos_sq = dot(w_a, w_b) ** 2 * c3
            via_eq6 = Fraction(1, 4) * (l_squared**2 + l0_4) * (
                1 - cos_sq + sin_sq_theta0
            )
            assert via_eq7 == via_eq6

    def test_paper_d2_is_wrong(self, rng):
        """With the paper's printed d2 = r_aw^-1 the identity FAILS."""
        draw = rng.fork("err")
        w_a = [draw.nonzero_fraction(1, 2) for _ in range(2)]
        w_b = [draw.nonzero_fraction(1, 2) for _ in range(2)]
        r_aw = Fraction(3)
        dot = lambda u, v: sum(a * b for a, b in zip(u, v))
        norm_sq = lambda u: dot(u, u)
        c3 = 1 / (norm_sq(w_a) * norm_sq(w_b))
        polynomial = build_t_squared_polynomial(
            Fraction(1), Fraction(0), c3, Fraction(1),
            Fraction(1), 1 / r_aw, Fraction(0),  # d2 = r_aw^-1 (paper)
        )
        x2 = r_aw * dot(w_a, w_b)
        via_eq7 = polynomial((Fraction(0), x2))
        cos_sq = dot(w_a, w_b) ** 2 * c3
        via_eq6 = Fraction(1, 4) * 1 * (1 - cos_sq)
        assert via_eq7 != via_eq6

    def test_degree_two_in_each_variable(self, rng):
        """Eq. (7) lies in the span of the 8 area monomials: its terms
        all have degree ≤ 2 in each of x₁ and x₂, whatever the constants."""
        for trial in range(5):
            draw = rng.fork("basis", trial)
            constants = [draw.nonzero_fraction(-3, 3) for _ in range(7)]
            terms = build_t_squared_polynomial(*constants).terms
            assert {k for k in terms if k != (0, 0)} <= set(AREA_BASIS)
        assert len(AREA_BASIS) == 8

    def test_area_function_matches_the_oracle(self, rng):
        """The closed form ``¼ L(x₁) R(x₂)`` puts on each area monomial,
        and on the constant, the coefficient of the polynomial built by
        products, for random constants and with ``d₃ = 0``."""
        model = make_linear_model([1.0, 0.7], -0.2)
        params = MetricParams()
        alice = similarity_profile(model, params)
        for trial in range(8):
            draw = rng.fork("closed-form", trial)
            r_am = draw.positive_fraction(0, 5)
            r_aw = draw.positive_fraction(0, 5)
            r_b = Fraction(0) if trial == 0 else draw.fraction(-3, 3)
            norm_m = draw.positive_fraction(0, 4)
            norm_w = draw.positive_fraction(0, 4)
            dots = SimpleNamespace(amplifiers=(r_am, r_aw), offsets=(0, r_b))
            terms = dict(
                build_t_squared_polynomial(
                    alice.centroid_norm + norm_m,
                    snap(params.l0) ** 4,
                    1 / (alice.normal_norm * norm_w),
                    1 + snap(params.sin_theta0) ** 2,
                    1 / r_am,
                    1 / r_aw**2,
                    -r_b,
                ).terms
            )
            expected = DotForm.of(
                [terms.get(k, Fraction(0)) for k in AREA_BASIS],
                terms.get((0, 0), Fraction(0)),
            )
            assert linear.area_function(params, alice, norm_m, norm_w, dots) == expected


class TestPrivateLinearSimilarity:
    def test_matches_plain(self, fast_config):
        a = make_linear_model([1.0, 0.7], -0.2)
        b = make_linear_model([0.8, -0.5], 0.3)
        params = MetricParams()
        plain = evaluate_similarity_plain(a, b, params)
        private = evaluate_similarity_private(
            a, b, params, config=fast_config, seed=7
        )
        assert private.t == pytest.approx(plain.t, rel=1e-9)

    def test_identical_models_floor(self, fast_config):
        model = make_linear_model([1.0, 0.5], -0.1)
        params = MetricParams()
        private = evaluate_similarity_private(
            model, model, params, config=fast_config, seed=8
        )
        assert private.t == pytest.approx(math.sqrt(params.minimum_t_squared))

    def test_three_dimensional(self, fast_config):
        a = make_linear_model([1.0, 0.4, -0.3], 0.1)
        b = make_linear_model([0.7, -0.2, 0.5], -0.2)
        plain = evaluate_similarity_plain(a, b)
        private = evaluate_similarity_private(a, b, config=fast_config, seed=9)
        assert private.t == pytest.approx(plain.t, rel=1e-9)

    def test_report_structure(self, fast_config):
        a = make_linear_model([1.0, 0.7], -0.2)
        b = make_linear_model([0.8, -0.5], 0.3)
        private = evaluate_similarity_private(a, b, config=fast_config, seed=10)
        assert set(private.reports) == {"clear", "dots_ompe", "area_ompe"}
        assert private.total_bytes > 0
        # OMPE #1 and #2 share one run: 2 OMPE runs x 6 + clear.
        assert private.total_rounds == 13

    def test_orthogonal_normals_hidden_by_offset(self, fast_config):
        """w_A ⊥ w_B: the offset r_b keeps x2 nonzero (paper's fix)."""
        a = make_linear_model([1.0, 0.0], 0.1)
        b = make_linear_model([0.0, 1.0], -0.1)
        private = evaluate_similarity_private(a, b, config=fast_config, seed=11)
        plain = evaluate_similarity_plain(a, b)
        assert private.t == pytest.approx(plain.t, rel=1e-9)

    def test_rejects_nonlinear_models(self, fast_config):
        """A linear model paired with a kernel one, in either order."""
        data = two_gaussians("nl", dimension=2, train_size=50, test_size=5, seed=1)
        poly = train_svm(
            data.X_train, data.y_train, kernel="poly", degree=3, a0=0.5, b0=0.0
        )
        linear = make_linear_model([1.0, 0.0], 0.0)
        for pair in ((linear, poly), (poly, linear)):
            with pytest.raises(ValidationError, match="one of each"):
                evaluate_similarity_private(*pair, config=fast_config)

    def test_deterministic(self, fast_config):
        a = make_linear_model([1.0, 0.7], -0.2)
        b = make_linear_model([0.8, -0.5], 0.3)
        one = evaluate_similarity_private(a, b, config=fast_config, seed=12)
        two = evaluate_similarity_private(a, b, config=fast_config, seed=12)
        assert one.t_squared == two.t_squared


class TestPrivateNonlinearSimilarity:
    @pytest.fixture(scope="class")
    def poly_models(self):
        kwargs = dict(kernel="poly", C=10.0, degree=3, a0=1 / 3, b0=0.0)
        d1 = interaction_boundary("nls1", 3, 60, 5, seed=1)
        d2 = interaction_boundary("nls2", 3, 60, 5, seed=2)
        return (
            train_svm(d1.X_train, d1.y_train, **kwargs),
            train_svm(d2.X_train, d2.y_train, **kwargs),
        )

    def test_matches_plain(self, poly_models, fast_config):
        a, b = poly_models
        params = MetricParams(resolution=32)
        plain = evaluate_similarity_plain(a, b, params)
        private = evaluate_similarity_private(
            a, b, params, config=fast_config, seed=3
        )
        assert private.t == pytest.approx(plain.t, rel=1e-3)

    def test_exact_normal_inner_matches_float(self, poly_models):
        a, b = poly_models
        exact = float(exact_normal_inner(a, b))
        reference = normal_inner_product(a, b)
        assert exact == pytest.approx(reference, rel=1e-6)

    def test_kernel_mismatch_rejected(self, poly_models, fast_config):
        a, _ = poly_models
        data = two_gaussians("km", dimension=3, train_size=50, test_size=5, seed=4)
        other = train_svm(
            data.X_train, data.y_train, kernel="poly", degree=2, a0=1.0, b0=0.0
        )
        with pytest.raises(SimilarityError):
            evaluate_similarity_private(a, other, config=fast_config)

    def test_rejects_linear_models(self, poly_models, fast_config):
        """A kernel model paired with a linear one, in either order."""
        poly, _ = poly_models
        linear = make_linear_model([1.0, 0.0, 0.5], 0.0)
        for pair in ((poly, linear), (linear, poly)):
            with pytest.raises(ValidationError, match="one of each"):
                evaluate_similarity_private(*pair, config=fast_config)
