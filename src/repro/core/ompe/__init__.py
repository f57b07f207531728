"""Oblivious Multivariate Polynomial Evaluation (Tassa et al. style)."""

from repro.core.ompe.config import OMPEConfig
from repro.core.ompe.function import OMPEFunction, as_exact_vector, audit_degree
from repro.core.ompe.precompute import ReceiverPool, SenderPool
from repro.core.ompe.protocol import OMPEOutcome, execute_ompe
from repro.core.ompe.receiver import OMPEReceiver
from repro.core.ompe.sender import OMPESender

__all__ = [
    "OMPEConfig",
    "OMPEFunction",
    "as_exact_vector",
    "audit_degree",
    "OMPEOutcome",
    "ReceiverPool",
    "SenderPool",
    "execute_ompe",
    "OMPEReceiver",
    "OMPESender",
]
