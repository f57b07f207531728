"""Oblivious transfer: k-of-n as one Naor–Pinkas exchange (1-of-n is k = 1)."""

from repro.crypto.ot.base import KOfNTransfer, OTChoice, OTSetup
from repro.crypto.ot.k_of_n import KOfNReceiver, KOfNSender, run_k_of_n

__all__ = [
    "KOfNTransfer",
    "OTChoice",
    "OTSetup",
    "KOfNReceiver",
    "KOfNSender",
    "run_k_of_n",
]
