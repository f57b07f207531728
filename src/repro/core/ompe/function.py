"""The sender-side function abstraction for OMPE.

The OMPE sender needs only two things about its secret function ``P``:
the total degree (to size the masking polynomial) and point evaluation.
:class:`OMPEFunction` wraps either an explicit
:class:`~repro.math.multivariate.MultivariatePolynomial` (the
paper-faithful representation, including the Section IV-B monomial
expansion) or a black-box evaluator (the direct kernel-evaluation
variant that avoids the exponential expansion — see DESIGN.md §5).
Both yield identical transcripts and results; the ablation bench
measures the cost gap.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from repro.exceptions import ValidationError
from repro.math.multivariate import MultivariatePolynomial
from repro.math.polynomials import Number

Evaluator = Callable[[Sequence[Number]], Number]
BatchEvaluator = Callable[[Sequence[Sequence[Number]]], List[Number]]


@dataclass(frozen=True)
class OMPEFunction:
    """A secret multivariate function the sender evaluates obliviously.

    Attributes
    ----------
    arity:
        Number of input variables ``n``.
    total_degree:
        Total degree of ``P`` (drives masking degree and cover count).
    evaluate:
        Point evaluator.
    evaluate_batch:
        Optional evaluator of a whole points message at once; it must
        return exactly ``[evaluate(p) for p in points]``.
    """

    arity: int
    total_degree: int
    evaluate: Evaluator
    evaluate_batch: Optional[BatchEvaluator] = None

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValidationError(f"arity must be at least 1, got {self.arity}")
        if self.total_degree < 1:
            raise ValidationError(
                f"total_degree must be at least 1, got {self.total_degree}"
            )

    @classmethod
    def from_polynomial(cls, polynomial: MultivariatePolynomial) -> "OMPEFunction":
        """Wrap an explicit multivariate polynomial."""
        return cls(
            arity=polynomial.arity,
            total_degree=max(1, polynomial.total_degree),
            evaluate=polynomial,
        )

    @classmethod
    def from_callable(
        cls,
        arity: int,
        total_degree: int,
        evaluate: Evaluator,
        evaluate_batch: Optional[BatchEvaluator] = None,
    ) -> "OMPEFunction":
        """Wrap a black-box evaluator with a declared degree.

        The declared degree is a *correctness* contract: if the true
        function has higher degree in any input, interpolation silently
        returns garbage.  Tests cover this failure mode.
        ``evaluate_batch``, when given, evaluates a whole points message
        in one pass (see :meth:`evaluate_all`).
        """
        return cls(
            arity=arity,
            total_degree=total_degree,
            evaluate=evaluate,
            evaluate_batch=evaluate_batch,
        )

    def __call__(self, point: Sequence[Number]) -> Number:
        value = self.evaluate(point)
        return value

    def evaluate_all(self, points: Sequence[Sequence[Number]]) -> List[Number]:
        """Evaluate every point of one points message, in order.

        Runs the batch evaluator when the function has one, else the
        point evaluator once per point; both give the same values.
        """
        if self.evaluate_batch is not None:
            return self.evaluate_batch(points)
        return [self(point) for point in points]


def as_exact_vector(values: Sequence) -> tuple:
    """Convert an input vector to exact ``Fraction``s.

    Every coordinate must be a finite real: ``int``, ``Fraction``,
    ``float`` or a numpy integer or float scalar.  A float converts
    exactly (``Fraction(0.1)`` is the double's own value).  NaN, ±inf,
    ``bool``, ``None``, strings and other types raise
    :class:`~repro.exceptions.ValidationError`.
    """
    exact = []
    for index, value in enumerate(values):
        if isinstance(value, Fraction):
            exact.append(value)
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(
                f"input coordinate {index} is a {type(value).__name__}, not a real number"
            )
        elif isinstance(value, numbers.Integral):
            exact.append(Fraction(int(value)))
        elif not math.isfinite(value):
            raise ValidationError(f"input coordinate {index} is {value}, not finite")
        else:
            exact.append(Fraction(float(value)))
    return tuple(exact)


def audit_degree(function: OMPEFunction, rng, trials: int = 3) -> bool:
    """Probabilistically verify the declared ``total_degree``.

    An understated degree silently corrupts the OMPE interpolation (the
    receiver reconstructs the wrong polynomial); this audit catches it
    before any protocol bytes flow.  Method: restrict the function to a
    random line ``t(s) = a + s·b``; the restriction is a univariate
    polynomial of degree ≤ ``total_degree``, so it must be *determined*
    by ``total_degree + 1`` samples — evaluate at one extra point and
    check it lies on the interpolant.  Exact arithmetic, so a mismatch
    is conclusive; agreement over ``trials`` random lines is
    overwhelming evidence (a higher-degree function would need to agree
    on every test point by coincidence).

    Returns ``True`` when the declaration is consistent.  Only
    meaningful for exact (Fraction) evaluators.
    """
    from repro.exceptions import ValidationError
    from repro.math.interpolation import lagrange_interpolate

    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    degree = function.total_degree
    for trial in range(trials):
        draw = rng.fork("audit", trial)
        anchor = [draw.fraction(-1, 1) for _ in range(function.arity)]
        direction = [draw.nonzero_fraction(-1, 1) for _ in range(function.arity)]

        def along_line(s: Fraction):
            point = tuple(a + s * b for a, b in zip(anchor, direction))
            return function(point)

        nodes = draw.distinct_fractions(degree + 2, -3, 3, exclude_zero=False)
        values = [along_line(s) for s in nodes[:-1]]
        interpolant = lagrange_interpolate(nodes[:-1], values)
        if interpolant(nodes[-1]) != along_line(nodes[-1]):
            return False
    return True
