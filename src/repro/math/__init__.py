"""Mathematical substrate: exact algebra, number theory, statistics."""

from repro.math.groups import SchnorrGroup, default_group, fast_group
from repro.math.interpolation import (
    lagrange_at_zero,
    lagrange_interpolate,
    newton_interpolate,
)
from repro.math.multinomial import (
    compositions,
    count_compositions,
    degree_p_basis,
    mixed_degree_basis,
    multinomial_coefficient,
)
from repro.math.linalg import exact_determinant, exact_solve, fit_affine_exact
from repro.math.multivariate import MultivariatePolynomial
from repro.math.numtheory import (
    generate_prime,
    generate_safe_prime,
    is_probable_prime,
    modular_inverse,
)
from repro.math.polynomials import Polynomial
from repro.math.statistics import (
    KSResult,
    ks_2samp,
    ks_average_over_dimensions,
    pearson_correlation,
    spearman_correlation,
)
from repro.math.taylor import bernoulli_numbers, exp_taylor, tanh_taylor

__all__ = [
    "SchnorrGroup",
    "default_group",
    "fast_group",
    "lagrange_at_zero",
    "lagrange_interpolate",
    "newton_interpolate",
    "compositions",
    "count_compositions",
    "degree_p_basis",
    "mixed_degree_basis",
    "multinomial_coefficient",
    "MultivariatePolynomial",
    "exact_determinant",
    "exact_solve",
    "fit_affine_exact",
    "generate_prime",
    "generate_safe_prime",
    "is_probable_prime",
    "modular_inverse",
    "Polynomial",
    "KSResult",
    "ks_2samp",
    "ks_average_over_dimensions",
    "pearson_correlation",
    "spearman_correlation",
    "bernoulli_numbers",
    "exp_taylor",
    "tanh_taylor",
]
