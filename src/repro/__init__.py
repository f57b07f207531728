"""repro — Privacy-Preserving Data Classification and Similarity
Evaluation for Distributed Systems.

A from-scratch Python reproduction of Jia, Guo, Jin & Fang (IEEE ICDCS
2016).  The library provides:

* :mod:`repro.core` — the paper's protocols: OMPE, private
  classification (linear and polynomial-kernel), private similarity
  evaluation (the isosceles-triangle metric), privacy analysis, and
  the plaintext/Paillier baselines;
* :mod:`repro.ml` — an SMO-based SVM trainer (LIBSVM substitute),
  kernels, and seeded synthetic analogs of the paper's 17 datasets;
* :mod:`repro.crypto` — Naor–Pinkas oblivious transfer (1-of-n of
  16-byte keys, k-of-n over payloads sealed once) and the Paillier
  cryptosystem;
* :mod:`repro.math` — exact polynomial algebra, Lagrange
  interpolation, multinomial expansion, Taylor polynomialization,
  number theory, and statistics (two-sample K-S test);
* :mod:`repro.net` — a measured in-process message-passing substrate
  (channels, transcripts, link models) for distributed execution;
* :mod:`repro.evaluation` — the harness regenerating every table and
  figure of the paper's evaluation section.

Quickstart::

    from repro.ml.datasets import two_gaussians
    from repro.ml.svm import train_svm
    from repro.core.classification import classify_linear

    data = two_gaussians("demo", dimension=4, train_size=100, test_size=10)
    model = train_svm(data.X_train, data.y_train, kernel="linear")
    outcome = classify_linear(model, data.X_test[0], seed=7)
    print(outcome.label, outcome.total_bytes)
"""

__version__ = "1.0.0"

from repro.exceptions import ReproError

__all__ = ["ReproError", "__version__"]
