"""Simulated digital signatures (ideal model).

A :class:`Signature` is valid iff it was produced through
:meth:`Signer.sign` with the owner's private :class:`KeyPair`.  Validity is
encoded by an unforgeable token: the signature stores a keyed digest that
only the signing path computes, and verification recomputes it.  Since the
key material never crosses the simulated wire, a Byzantine process cannot
fabricate a signature for another replica — matching the paper's ideal-
signature assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, hash_fields
from repro.crypto.keys import KeyPair, Registry

_SIGNING_DOMAIN = "repro/sig/v1"


class SignatureError(ValueError):
    """Raised when a signature fails verification."""


def _tag(signer: int, epoch: int, payload: object) -> Digest:
    return hash_fields(_SIGNING_DOMAIN, signer, epoch, payload)


@dataclass(frozen=True)
class Signature:
    """A signature by ``signer`` over ``payload``-shaped data.

    The payload itself is not stored; callers verify a signature *against*
    the payload they believe was signed, exactly like a real scheme.
    """

    signer: int
    epoch: int
    tag: Digest


class Signer:
    """Per-replica signing facility, initialized from the dealer's key."""

    def __init__(self, key_pair: KeyPair, registry: Registry) -> None:
        self.key_pair = key_pair
        self.registry = registry

    @property
    def replica(self) -> int:
        return self.key_pair.owner

    def sign(self, payload: object) -> Signature:
        """Sign a payload (any hashable-representable object)."""
        return Signature(
            signer=self.key_pair.owner,
            epoch=self.key_pair.epoch,
            tag=_tag(self.key_pair.owner, self.key_pair.epoch, payload),
        )


def verify(registry: Registry, signature: Signature, payload: object) -> bool:
    """Check that ``signature`` is a valid signature on ``payload``."""
    if not registry.is_registered(signature.signer):
        return False
    if signature.epoch != registry.epoch:
        return False
    return signature.tag == _tag(signature.signer, signature.epoch, payload)


def require_valid(registry: Registry, signature: Signature, payload: object) -> None:
    """Raise :class:`SignatureError` unless the signature verifies."""
    if not verify(registry, signature, payload):
        raise SignatureError(
            f"invalid signature by replica {signature.signer} on {payload!r}"
        )
