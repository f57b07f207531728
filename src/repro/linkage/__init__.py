"""Bulk linkage: chunked N×M private similarity with a resumable store.

The pipeline links two keyed model collections (e.g. PPRL record
encodings trained as SVM models) by scoring every left×right pair with
the private T² protocol, in deterministic chunks, against an on-disk
result store that survives hard crashes:

* :mod:`repro.linkage.spec` — :class:`LinkageJobSpec`: the chunk plan,
  per-pair seeds, and the spec fingerprint, all pure functions of the
  keyed inputs;
* :mod:`repro.linkage.store` — :class:`LinkageResultStore`: canonical
  per-chunk JSONL with done markers; resume skips verified chunks and
  quarantines damaged ones;
* :mod:`repro.linkage.runner` — :func:`run_linkage` over two
  interchangeable backends (in-process serial, TCP client pool), both
  bit-identical.
"""

from repro.linkage.runner import (
    LinkageReport,
    LinkageRunner,
    SerialLinkageRunner,
    ServiceLinkageRunner,
    run_linkage,
)
from repro.linkage.spec import LinkageChunk, LinkageJobSpec
from repro.linkage.store import LinkageResultStore, PairScore, StoreScan

__all__ = [
    "LinkageChunk",
    "LinkageJobSpec",
    "LinkageReport",
    "LinkageResultStore",
    "LinkageRunner",
    "PairScore",
    "SerialLinkageRunner",
    "ServiceLinkageRunner",
    "StoreScan",
    "run_linkage",
]
