"""Quantitative security estimates for OMPE configurations.

The paper's Level-1 argument for the client is combinatorial: the
trainer sees ``M`` point/vector pairs and would need to identify the
``m`` true covers to reconstruct the hiding polynomials; oblivious
transfer hides the positions, leaving ``C(M, m)`` equally likely
possibilities (and even a correct guess still leaves the degree-``q``
polynomials underdetermined from single evaluations).  This module
turns those counting arguments into numbers an operator can budget
against, plus the OT group's generic discrete-log margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.ompe.config import OMPEConfig
from repro.exceptions import ValidationError


@dataclass(frozen=True)
class SecurityEstimate:
    """Security figures for one OMPE configuration + function degree.

    Attributes
    ----------
    cover_count / pair_count:
        The protocol's ``m`` and ``M``.
    cover_entropy_bits:
        ``log2 C(M, m)`` — work factor to locate the covers by search.
    single_guess_probability:
        ``1 / C(M, m)`` — probability one guess of the cover set is right.
    masking_degrees_of_freedom:
        Free coefficients of the sender's mask ``h(u)`` (degree ``pq``
        with fixed zero constant) — the dimensions hiding the decision
        values from the client after interpolation.
    hiding_degrees_of_freedom:
        Per-coordinate free coefficients of the client's ``g_i``.
    ot_group_bits:
        Size of the OT group modulus; generic discrete-log attacks cost
        about ``2^(bits/2)`` group operations (``dlog_security_bits``).
    """

    cover_count: int
    pair_count: int
    cover_entropy_bits: float
    single_guess_probability: float
    masking_degrees_of_freedom: int
    hiding_degrees_of_freedom: int
    ot_group_bits: int

    @property
    def dlog_security_bits(self) -> float:
        """Generic-attack cost exponent for the OT group (rho method)."""
        return self.ot_group_bits / 2.0


def estimate_security(
    config: OMPEConfig, function_degree: int
) -> SecurityEstimate:
    """Compute the security figures for a configuration."""
    if function_degree < 1:
        raise ValidationError(
            f"function_degree must be at least 1, got {function_degree}"
        )
    cover_count = config.cover_count(function_degree)
    pair_count = config.pair_count(function_degree)
    combinations = math.comb(pair_count, cover_count)
    return SecurityEstimate(
        cover_count=cover_count,
        pair_count=pair_count,
        cover_entropy_bits=math.log2(combinations),
        single_guess_probability=1.0 / combinations,
        masking_degrees_of_freedom=function_degree * config.security_degree,
        hiding_degrees_of_freedom=config.security_degree,
        ot_group_bits=config.resolved_group().p.bit_length(),
    )


def minimum_security_degree(
    config: OMPEConfig,
    function_degree: int,
    target_entropy_bits: float,
    cap: int = 64,
) -> int:
    """Smallest ``q`` whose cover entropy reaches the target.

    Raises when no ``q <= cap`` reaches the target (raise the cover
    expansion instead).
    """
    if target_entropy_bits <= 0:
        raise ValidationError("target_entropy_bits must be positive")
    for security_degree in range(1, cap + 1):
        candidate = replace(config, security_degree=security_degree)
        estimate = estimate_security(candidate, function_degree)
        if estimate.cover_entropy_bits >= target_entropy_bits:
            return security_degree
    raise ValidationError(
        f"no security_degree <= {cap} reaches {target_entropy_bits} bits with "
        f"cover_expansion={config.cover_expansion}; increase the expansion"
    )
