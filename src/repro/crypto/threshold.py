"""Simulated threshold signature scheme (ideal model).

A set of ``threshold`` signature *shares* on the same payload, from distinct
replicas, combines into a single constant-size :class:`ThresholdSignature`.
This mirrors the paper's assumption of an ideal threshold scheme dealt by a
trusted dealer; the dealer here is :class:`ThresholdScheme` construction.

As with :mod:`repro.crypto.signatures`, unforgeability is by construction:
shares are only minted through :meth:`ThresholdScheme.sign_share` with the
owner's key, and combining checks share validity, distinctness and count.
The combined signature records the contributing signers — real BLS threshold
signatures do not, but the safety *analysis* (quorum-intersection checks in
``repro.analysis``) wants the voter sets, so the wire codec ships them
inside the combined signature's 96-byte (BLS12-381-like) slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.crypto.hashing import Digest, hash_fields
from repro.crypto.keys import KeyPair, Registry
from repro.crypto.signatures import SignatureError

_SHARE_DOMAIN = "repro/tshare/v1"
_COMBINED_DOMAIN = "repro/tsig/v1"


def _share_tag(signer: int, epoch: int, payload: object) -> Digest:
    return hash_fields(_SHARE_DOMAIN, signer, epoch, payload)


def _combined_tag(epoch: int, payload: object) -> Digest:
    return hash_fields(_COMBINED_DOMAIN, epoch, payload)


@dataclass(frozen=True, slots=True)
class ThresholdSignatureShare:
    """One replica's share over a payload — the paper's ``{m}_i``."""

    signer: int
    epoch: int
    tag: Digest


@dataclass(frozen=True, slots=True)
class ThresholdSignature:
    """A combined threshold signature — constant size on the wire.

    ``signers`` may be given as any iterable of replica ids; it is stored
    as a sorted tuple of the distinct ids, so equal signer sets give equal
    signatures whatever order or container they arrived in.
    """

    epoch: int
    tag: Digest
    #: Contributing replicas, sorted and distinct.
    signers: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "signers", tuple(sorted(set(self.signers))))


class ThresholdScheme:
    """Threshold signing facility for one domain (votes, timeouts, ...).

    Args:
        registry: the PKI registry (defines n and the key epoch).
        threshold: number of distinct shares needed to combine (2f+1 for
            quorum certificates, f+1 for the coin — the coin has its own
            wrapper in :mod:`repro.crypto.coin`).
    """

    def __init__(self, registry: Registry, threshold: int) -> None:
        if not 1 <= threshold <= registry.n:
            raise ValueError(
                f"threshold {threshold} out of range for n={registry.n}"
            )
        self.registry = registry
        self.threshold = threshold

    # ------------------------------------------------------------------
    # Share creation / verification
    # ------------------------------------------------------------------
    def sign_share(self, key_pair: KeyPair, payload: object) -> ThresholdSignatureShare:
        """Produce the caller's share on ``payload`` (requires the key)."""
        if key_pair.epoch != self.registry.epoch:
            raise SignatureError("key epoch does not match the registry")
        return ThresholdSignatureShare(
            signer=key_pair.owner,
            epoch=key_pair.epoch,
            tag=_share_tag(key_pair.owner, key_pair.epoch, payload),
        )

    def verify_share(self, share: ThresholdSignatureShare, payload: object) -> bool:
        if not self.registry.is_registered(share.signer):
            return False
        if share.epoch != self.registry.epoch:
            return False
        return share.tag == _share_tag(share.signer, share.epoch, payload)

    # ------------------------------------------------------------------
    # Combining / verifying
    # ------------------------------------------------------------------
    def combine(
        self,
        shares: Iterable[ThresholdSignatureShare],
        payload: object,
        share_verifier: Optional[
            Callable[[ThresholdSignatureShare, object], bool]
        ] = None,
    ) -> ThresholdSignature:
        """Combine ≥ threshold distinct valid shares into one signature.

        ``share_verifier`` replaces the per-share :meth:`verify_share` call
        — callers with a :class:`~repro.crypto.verdicts.VerdictCache`
        pass a pooled verifier so re-verification at combine time costs a
        dictionary lookup instead of a hash per share.
        """
        if share_verifier is None:
            share_verifier = self.verify_share
        valid_signers: set[int] = set()
        for share in shares:
            if not share_verifier(share, payload):
                raise SignatureError(
                    f"share by replica {share.signer} is invalid for {payload!r}"
                )
            valid_signers.add(share.signer)
        if len(valid_signers) < self.threshold:
            raise SignatureError(
                f"need {self.threshold} distinct shares, got {len(valid_signers)}"
            )
        return ThresholdSignature(
            epoch=self.registry.epoch,
            tag=_combined_tag(self.registry.epoch, payload),
            signers=tuple(sorted(valid_signers)),
        )

    def verify(self, signature: ThresholdSignature, payload: object) -> bool:
        if signature.epoch != self.registry.epoch:
            return False
        if len(signature.signers) < self.threshold:
            return False
        return signature.tag == _combined_tag(signature.epoch, payload)

    def require_valid(self, signature: ThresholdSignature, payload: object) -> None:
        if not self.verify(signature, payload):
            raise SignatureError(f"invalid threshold signature on {payload!r}")
