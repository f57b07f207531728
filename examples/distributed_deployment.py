#!/usr/bin/env python
"""The distributed-systems view: many parties, measured links, faults.

The other examples focus on the cryptography; this one exercises the
deployment substrate:

1. security budgeting with the entropy estimator and the analytic cost
   model, before any protocol bytes flow;
2. an N-party partner-matching tournament
   (:func:`~repro.core.similarity.run_matching`) with aggregate byte
   accounting across its pairwise runs;
3. a long-lived :class:`PrivateClassificationSession` with precomputed
   randomness serving a query stream;
4. fault injection — a lossy channel makes the protocol abort loudly
   (never hang, never return silently wrong answers).

Run:  python examples/distributed_deployment.py
"""

import numpy as np

from repro.core.classification import PrivateClassificationSession
from repro.core.ompe import OMPEConfig, OMPEFunction
from repro.core.ompe.receiver import OMPEReceiver
from repro.core.ompe.sender import OMPESender
from repro.core.privacy import estimate_security, minimum_security_degree
from repro.core.similarity import run_matching
from repro.evaluation.costmodel import predict_classification_bytes
from repro.exceptions import ProtocolError
from repro.math.multivariate import MultivariatePolynomial
from repro.net import Channel, DroppingChannel
from repro.ml.datasets import two_gaussians
from repro.ml.svm import train_svm
from repro.utils.rng import ReproRandom


def main() -> None:
    config = OMPEConfig(security_degree=1)

    # --- 1. Capacity planning before deployment. ----------------------------
    print("--- capacity planning (no protocol bytes flow) ---")
    dimension = 5
    for q in (1, 2, 4):
        candidate = OMPEConfig(security_degree=q)
        estimate = estimate_security(candidate, function_degree=1)
        predicted = predict_classification_bytes(candidate, dimension)
        print(f"  q={q}: cover entropy {estimate.cover_entropy_bits:5.1f} bits, "
              f"predicted {predicted.total_bytes:6d} B/query, "
              f"OT dlog margin {estimate.dlog_security_bits:.0f} bits")
    wanted = minimum_security_degree(config, 1, target_entropy_bits=20)
    print(f"  -> need q >= {wanted} for 20 bits of cover-position hiding")

    # --- 2. Partner-matching tournament over 4 organizations. ---------------
    print("\n--- 4-party matching tournament ---")
    models = {}
    for index, name in enumerate(["north", "south", "east", "west"]):
        data = two_gaussians(name, dimension=3, train_size=120, test_size=5,
                             separation=1.2, seed=20 + index)
        shift = 0.1 * index
        X = np.clip(data.X_train + shift, -1, 1)
        models[name] = train_svm(X, data.y_train, kernel="linear", C=10.0)
    result = run_matching(models, config=config, seed=33)
    for name, partner in result.best_match.items():
        print(f"  {name:6s} -> best partner {partner}")
    print(f"  mutual matches: {result.mutual_matches}; "
          f"total protocol volume {result.total_bytes / 1024:.0f} KiB")

    # --- 3. A query-serving session with precomputed randomness. ------------
    print("\n--- long-lived classification session ---")
    data = two_gaussians("svc", dimension=4, train_size=150, test_size=30,
                         separation=1.4, seed=77)
    model = train_svm(data.X_train, data.y_train, kernel="linear", C=10.0)
    session = PrivateClassificationSession(model, config=config, pool_size=16, seed=5)
    outcomes = session.classify_batch(data.X_test, limit=10)
    agree = sum(
        o.label == (1.0 if model.decision_value(x) >= 0 else -1.0)
        for o, x in zip(outcomes, data.X_test)
    )
    volume = sum(o.total_bytes for o in outcomes)
    print(f"  served {session.queries_served} queries, {agree}/10 correct, "
          f"{volume} B total, {session.remaining_bundles} bundles left")

    # --- 4. Fault injection: lossy link -> loud abort. -----------------------
    print("\n--- lossy link (100% drop) ---")
    polynomial = MultivariatePolynomial.affine(
        [_f(1, 2), _f(-1, 3), _f(1, 5), _f(2, 7)], _f(1, 9)
    )
    lossy = DroppingChannel(Channel("alice", "bob"), 1.0, ReproRandom(1))
    sender = OMPESender("alice", OMPEFunction.from_polynomial(polynomial),
                        config, rng=ReproRandom(2))
    receiver = OMPEReceiver("bob", (_f(1, 4),) * 4, config, rng=ReproRandom(3))
    sender.connect(lossy)
    receiver.connect(lossy)
    receiver.send_request()  # swallowed by the lossy link
    try:
        sender.handle_request()
    except ProtocolError as error:
        print(f"  protocol aborted loudly as designed: {error}")
    print(f"  (dropped messages: {lossy.dropped})")


def _f(numerator: int, denominator: int):
    from fractions import Fraction

    return Fraction(numerator, denominator)


if __name__ == "__main__":
    main()
