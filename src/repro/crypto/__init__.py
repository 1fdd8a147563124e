"""Simulated cryptographic substrate.

The paper assumes ideal signatures, threshold signatures and a common coin
set up by a trusted dealer.  This package provides exactly that ideal model:
objects that are unforgeable *by construction* (the only way to obtain a
valid share or certificate is through the legitimate API).  The wire codec
(:mod:`repro.wire.codec`) ships each object in a slot sized like its real
counterpart (Ed25519 / BLS12-381), so byte-level communication accounting
is meaningful.
"""

from repro.crypto.coin import CoinShare, CommonCoin
from repro.crypto.hashing import Digest, hash_fields
from repro.crypto.keys import KeyPair, Registry
from repro.crypto.signatures import Signature, SignatureError, Signer
from repro.crypto.threshold import (
    ThresholdScheme,
    ThresholdSignature,
    ThresholdSignatureShare,
)

__all__ = [
    "CoinShare",
    "CommonCoin",
    "Digest",
    "hash_fields",
    "KeyPair",
    "Registry",
    "Signature",
    "SignatureError",
    "Signer",
    "ThresholdScheme",
    "ThresholdSignature",
    "ThresholdSignatureShare",
]
