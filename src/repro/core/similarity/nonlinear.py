"""Alice's kernel normal function for nonlinear similarity (paper Section V-C).

The metric lifts to kernel feature space: centroid distance becomes

    L² = K(m_A, m_A) + K(m_B, m_B) − 2 K(m_A, m_B)

and the normals' cosine uses the feature-space inner products of the
models' dual representations,

    ⟨n_A, n_B⟩ = Σ_s Σ_s' c_s c_s' K(x_s, x_s')

(the paper writes this ``K(w_A, w_B)``).  The protocol is the linear
one (:mod:`~repro.core.similarity.linear`); only Alice's two sender
functions and Bob's OMPE #2 input change, and the profile
(:mod:`~repro.core.similarity.profile`) makes that choice:

* OMPE #1 — sender function ``y ↦ K(m_A, y)`` (degree ``p``), Bob's
  input his centroid ``m_B``: Bob gets ``x₁ = r_am K(m_A, m_B)``.
* OMPE #2 — sender function over Bob's *packed model*
  ``(c_1..c_k, x_1..x_k) ↦ Σ_j c_j · f_A(x_j)`` where
  ``f_A(x) = Σ_s c_s^A K(x_s^A, x)`` (degree ``p + 1``): Bob gets
  ``x₂ = r_aw ⟨n_A, n_B⟩ + r_b`` without revealing his support vectors
  or dual coefficients.  :func:`kernel_normal_function` builds it.
* OMPE #3 — identical Eq. (7) polynomial with kernel-space constants.

Both models must share the same polynomial kernel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, Sequence

from repro.core.ompe import OMPEFunction
from repro.core.similarity.exact import (
    ScaledModel,
    exact_poly_kernel,
    kernel_double_sums,
)
from repro.math import fastpath
from repro.math.polynomials import Number

if TYPE_CHECKING:
    from repro.core.similarity.profile import SimilarityProfile


def kernel_normal_function(
    alice: "SimilarityProfile", peer_sv_count: int
) -> OMPEFunction:
    """Sender function computing ``⟨n_A, n_B⟩`` from Bob's packed model.

    The naive evaluator performs ``k_B · k_A`` exact kernel evaluations
    in ``Fraction`` arithmetic per point.  The hot path evaluates a
    whole points message at once: it rescales each packed input onto
    its own common denominator and runs
    :func:`~repro.core.similarity.exact.kernel_double_sums` over all of
    them against the profile's scaled-integer form of Alice's model —
    one integer matmul with a single normalising ``Fraction`` per point
    (same value, same type, pinned by the differential suite).  A
    message with any point that is not all ``int``/``Fraction`` with a
    ``Fraction`` first value (float mode) runs the naive evaluator at
    every point, whose result type follows the input's.
    """
    a0, b0, degree = alice.kernel
    dimension = alice.dimension
    alice_duals = alice.packed[: alice.n_support]
    alice_svs = [
        alice.packed[start : start + dimension]
        for start in range(alice.n_support, len(alice.packed), dimension)
    ]

    def evaluate_naive(packed: Sequence[Number]) -> Number:
        duals = packed[:peer_sv_count]
        total = Fraction(0) if isinstance(packed[0], Fraction) else 0.0
        for j in range(peer_sv_count):
            start = peer_sv_count + j * dimension
            vector = packed[start : start + dimension]
            f_a = sum(
                (
                    dual * exact_poly_kernel(sv, vector, a0, b0, degree)
                    for dual, sv in zip(alice_duals, alice_svs)
                ),
                Fraction(0),
            )
            total = total + duals[j] * f_a
        return total

    def evaluate_batch(points: Sequence[Sequence[Number]]) -> List[Number]:
        if fastpath.enabled():
            bobs = []
            for packed in points:
                scaled = fastpath.scale_to_integers(packed)
                if scaled is None or not isinstance(packed[0], Fraction):
                    break
                numerators, den, _ = scaled
                bobs.append(
                    ScaledModel(
                        numerators[:peer_sv_count],
                        den,
                        tuple(
                            numerators[start : start + dimension]
                            for start in range(
                                peer_sv_count, len(numerators), dimension
                            )
                        ),
                        den,
                    )
                )
            else:
                return kernel_double_sums(alice.scaled, bobs, a0, b0, degree)
        return [evaluate_naive(packed) for packed in points]

    return OMPEFunction.from_callable(
        arity=peer_sv_count * (dimension + 1),
        total_degree=degree + 1,
        evaluate=lambda packed: evaluate_batch([packed])[0],
        evaluate_batch=evaluate_batch,
    )
