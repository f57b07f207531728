"""Oblivious transfer protocols: 1-of-n of 16-byte keys, and k-of-n."""

from repro.crypto.ot.base import KOfNTransfer, OTChoice, OTSetup, OTTransfer
from repro.crypto.ot.k_of_n import KOfNReceiver, KOfNSender, run_k_of_n
from repro.crypto.ot.one_of_n import (
    OneOfNReceiver,
    OneOfNSender,
    TransferMaterial,
    run_one_of_n,
)

__all__ = [
    "KOfNTransfer",
    "OTChoice",
    "OTSetup",
    "OTTransfer",
    "KOfNReceiver",
    "KOfNSender",
    "run_k_of_n",
    "OneOfNReceiver",
    "OneOfNSender",
    "TransferMaterial",
    "run_one_of_n",
]
