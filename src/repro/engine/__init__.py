"""Multi-core protocol engine (paper §VI scale-out).

Shards classification/similarity jobs across worker processes, each
job drawing its protocol randomness from its own seed, with bounded
submission (backpressure), ``net.faults``-style timeout/retry, and
per-worker observability merged back into the parent registry.
"""

from repro.engine.engine import (
    EnginePolicy,
    EngineReport,
    ProtocolEngine,
    run_engine,
)
from repro.engine.jobs import (
    CLASSIFICATION,
    SIMILARITY,
    ClassificationJob,
    Job,
    JobResult,
    SimilarityJob,
)
from repro.engine.worker import EngineSpec, make_spec, run_jobs_serial

__all__ = [
    "CLASSIFICATION",
    "SIMILARITY",
    "ClassificationJob",
    "EnginePolicy",
    "EngineReport",
    "EngineSpec",
    "Job",
    "JobResult",
    "ProtocolEngine",
    "SimilarityJob",
    "make_spec",
    "run_engine",
    "run_jobs_serial",
]
