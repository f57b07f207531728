"""Privacy-preserving nonlinear classification (paper Section IV-B).

Two equivalent instantiations are provided (DESIGN.md §5 ablation):

* ``method="monomial"`` — the paper-faithful path: both parties apply
  the ``t → τ`` monomial transform; the decision function becomes
  linear in ``τ`` and the linear machinery runs in the transformed
  space.  Cost grows with the monomial count ``C(n+p-1, n-1)``.
* ``method="direct"`` — algebraically identical: Bob hides the
  *original* coordinates with degree-``q`` polynomials; Alice evaluates
  the kernel-form decision function directly at each hidden vector.
  ``B(v) = h(v) + r_a d(G(v))`` then has degree ``p·q`` and
  interpolation needs ``m = pq + 1`` covers — the count the paper
  itself states — with no monomial blow-up.

Both reveal exactly ``r_a d(t̃)`` to Bob.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.classification.linear import (
    ClassificationOutcome,
    decision_function_for_model,
)
from repro.core.classification.transform import MonomialTransform
from repro.core.ompe import OMPEConfig, OMPEFunction, execute_ompe
from repro.exceptions import ValidationError
from repro.ml.svm.model import SVMModel
from repro.net.channel import LinkModel

_METHODS = ("direct", "monomial")


def _polynomial_kernel_degree(model: SVMModel) -> int:
    name, params = model.kernel_spec
    if name not in ("poly", "polynomial"):
        raise ValidationError(
            "nonlinear classification requires a polynomial-kernel model "
            "(polynomialize RBF/sigmoid kernels first — see repro.math.taylor)"
        )
    return int(params.get("degree", 3))


def _is_homogeneous(model: SVMModel) -> bool:
    _, params = model.kernel_spec
    return float(params.get("b0", 0.0)) == 0.0


def classify_nonlinear(
    model: SVMModel,
    sample: Sequence[float],
    config: Optional[OMPEConfig] = None,
    seed: Optional[int] = None,
    method: str = "direct",
    amplify: bool = True,
    link: Optional[LinkModel] = None,
) -> ClassificationOutcome:
    """Run the private nonlinear classification protocol for one sample."""
    if method not in _METHODS:
        raise ValidationError(f"method must be one of {_METHODS}, got {method!r}")
    sample = tuple(sample)
    if len(sample) != model.dimension:
        raise ValidationError(
            f"sample has {len(sample)} coordinates, model expects "
            f"{model.dimension}"
        )
    degree = _polynomial_kernel_degree(model)

    if method == "monomial":
        transform = MonomialTransform(
            dimension=model.dimension,
            degree=degree,
            homogeneous=_is_homogeneous(model),
        )
        linearized = transform.linearize_polynomial(model.decision_polynomial())
        function = OMPEFunction.from_polynomial(linearized)
        protocol_input: Sequence = transform.transform_sample(tuple(sample))
    else:
        function = decision_function_for_model(model)
        protocol_input = sample

    outcome = execute_ompe(
        function,
        protocol_input,
        config=config,
        seed=seed,
        amplify=amplify,
        offset=False,
        link=link,
    )
    return ClassificationOutcome.from_ompe(outcome)


def classify_nonlinear_batch(
    model: SVMModel,
    samples: np.ndarray,
    config: Optional[OMPEConfig] = None,
    seed: int = 0,
    method: str = "direct",
    limit: Optional[int] = None,
) -> List[ClassificationOutcome]:
    """Classify many samples, one protocol run each."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValidationError("samples must be a 2-D array")
    count = samples.shape[0] if limit is None else min(limit, samples.shape[0])
    return [
        classify_nonlinear(
            model, samples[index], config=config, seed=seed + index, method=method
        )
        for index in range(count)
    ]
