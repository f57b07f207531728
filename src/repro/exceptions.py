"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at protocol boundaries.  The
sub-hierarchy mirrors the package layout: math errors, cryptographic
errors, protocol errors, and data/model errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong type, range, or shape)."""


class MathError(ReproError):
    """Base class for mathematical failures."""


class InterpolationError(MathError):
    """Interpolation is impossible (duplicate nodes, too few points)."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class KeyGenerationError(CryptoError):
    """Key material could not be generated with the given parameters."""


class DecryptionError(CryptoError):
    """A ciphertext failed to decrypt or authenticate."""


class ProtocolError(ReproError):
    """Base class for interactive-protocol failures."""


class ProtocolAbort(ProtocolError):
    """A party aborted the protocol (malformed or out-of-order message)."""


class ObliviousTransferError(ProtocolError):
    """An oblivious-transfer sub-protocol failed."""


class OMPEError(ProtocolError):
    """The oblivious multivariate polynomial evaluation failed."""


class BatchItemError(ProtocolError):
    """One item of a batched fan-out failed.

    Carries the item's position in the submitted batch (``index``) so a
    caller collecting per-item results can attribute the failure without
    losing its neighbours' outcomes.  The underlying failure is chained
    as ``__cause__`` and summarized in the message.
    """

    def __init__(self, index: int, message: str) -> None:
        super().__init__(f"batch item {index}: {message}")
        self.index = index


class LinkageError(ReproError):
    """The bulk linkage pipeline failed (bad spec, failed chunk)."""


class ResultStoreError(LinkageError):
    """The linkage result store refused an operation (e.g. a resume
    against a store written by a different job spec)."""


class ResultStoreCorruption(ResultStoreError):
    """A chunk file in the result store is corrupt or truncated.

    Raised only when corruption is *unrecoverable*; a resume quarantines
    the damaged file, records an instance of this error in its scan
    report, and recomputes the chunk instead of propagating.
    """

    def __init__(self, chunk_id: str, message: str) -> None:
        super().__init__(f"chunk {chunk_id}: {message}")
        self.chunk_id = chunk_id


class TrainingError(ReproError):
    """SVM training did not converge or received unusable data."""


class DatasetError(ReproError):
    """A dataset could not be generated, parsed, or validated."""


class SimilarityError(ReproError):
    """The similarity-evaluation pipeline failed (e.g. no boundary points)."""
