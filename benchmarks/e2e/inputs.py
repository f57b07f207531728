"""Seeded inputs for the end-to-end workloads.

Everything the program receives — models, samples, protocol seeds — is
generated here from the workload seed with :class:`random.Random`, so
the same seed gives the same inputs whatever the program's own RNG
does.  The load process and the server process (``serve.py``) both call
these generators, so the server hosts exactly the model the load
process checks labels against.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, List, Tuple

#: The in-tree 256-bit safe prime (``p = 2q + 1``, generator 4).  Pinned
#: here, and the group built from it directly, so a later change of the
#: program's default group does not move these workloads.
P_256 = int(
    "1018899632155406837894638751842396378426563141714804843979959701573"
    "83394629547"
)

LINEAR_DIMENSION = 3
LINKAGE_KERNEL = {"svs": 12, "dimension": 6, "degree": 3}
CLASSIFY_KERNEL = {"svs": 40, "dimension": 12, "degree": 3}
#: (left, right) models per linkage job; a run links job after job
#: until its time is up.  Linear jobs are two 16-pair chunks.
LINKAGE_JOB_SHAPE = {"linear": (2, 16), "kernel": (2, 4)}
#: Samples closer than this to the decision boundary are redrawn: the
#: protocol classifies the exactly-rounded model, numpy the float one.
LABEL_MARGIN = 1e-6


def rng_for(seed: int, *labels: object) -> random.Random:
    return random.Random("/".join(str(part) for part in (seed,) + labels))


def protocol_config():
    """Paper-scale OMPE parameters on the pinned 256-bit group."""
    from repro.core.ompe import OMPEConfig
    from repro.math.groups import SchnorrGroup

    group = SchnorrGroup(P_256, (P_256 - 1) // 2, 4)
    return OMPEConfig(security_degree=2, cover_expansion=3, group=group)


def linear_model(rng: random.Random):
    """A random hyperplane whose boundary crosses the data box."""
    from repro.ml.svm.model import make_linear_model

    weights = [rng.uniform(-1.0, 1.0) for _ in range(LINEAR_DIMENSION)]
    norm = sum(w * w for w in weights) ** 0.5
    bias = -(0.25 + 0.5 / (1.0 + norm)) * norm
    return make_linear_model(weights, bias)


def kernel_model(rng: random.Random, svs: int, dimension: int, degree: int):
    """A homogeneous polynomial-kernel model whose boundary crosses the box.

    Redrawn until the box corners take both signs, so a box edge
    crosses the decision surface and the boundary scan finds points.
    """
    import numpy as np

    from repro.ml.kernels import polynomial_kernel
    from repro.ml.svm.model import SVMModel

    a0 = 1.0 / dimension
    corners = np.array(
        [[1.0 if (index >> bit) & 1 else -1.0 for bit in range(dimension)]
         for index in range(1 << dimension)]
    )
    while True:
        model = SVMModel(
            support_vectors=[[rng.uniform(-1.0, 1.0) for _ in range(dimension)]
                             for _ in range(svs)],
            dual_coefficients=[rng.uniform(-1.0, 1.0) for _ in range(svs)],
            bias=rng.uniform(-0.05, 0.05),
            kernel=polynomial_kernel(degree=degree, a0=a0, b0=0.0),
            kernel_spec=("poly", {"degree": degree, "a0": a0, "b0": 0.0}),
        )
        values = model.decision_values(corners)
        if values.min() < 0 < values.max():
            return model


def linkage_job(kind: str, seed: int, index: int, scale: float = 1.0) -> Tuple[Dict, Dict]:
    """Left and right model collections of one linkage job."""
    rng = rng_for(seed, "linkage", kind, index)
    lefts, rights = (max(1, round(count * scale)) for count in LINKAGE_JOB_SHAPE[kind])
    make = linear_model if kind == "linear" else partial(kernel_model, **LINKAGE_KERNEL)
    left = {f"L{index:03d}-{i:02d}": make(rng) for i in range(lefts)}
    right = {f"R{index:03d}-{j:02d}": make(rng) for j in range(rights)}
    return left, right


def classify_model(kind: str, seed: int):
    rng = rng_for(seed, "classify", kind, "model")
    if kind == "linear":
        return linear_model(rng)
    return kernel_model(rng, **CLASSIFY_KERNEL)


def classify_samples(kind: str, seed: int, model, count: int) -> List[Tuple[tuple, float]]:
    """``count`` samples with their expected labels, away from the boundary."""
    rng = rng_for(seed, "classify", kind, "samples")
    samples = []
    while len(samples) < count:
        sample = tuple(rng.uniform(-1.0, 1.0) for _ in range(model.dimension))
        value = model.decision_value(sample)
        if abs(value) > LABEL_MARGIN:
            samples.append((sample, 1.0 if value >= 0 else -1.0))
    return samples


def session_seed_base(seed: int, workload: str) -> int:
    """Session ``i`` runs with protocol seed ``base + i``."""
    return rng_for(seed, workload, "sessions").getrandbits(48)
