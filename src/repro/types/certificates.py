"""Certificates: ranks, QCs, fallback QCs/TCs, timeout certs, coin-QCs.

Every type here is a frozen, slotted dataclass: a committed block keeps
the certificate that certifies its parent for as long as the ledger does,
so certificates carry no per-instance ``__dict__``.  A digest is memoised
in a ``_digest`` slot that is filled on first read and takes no part in
``==``, ``hash`` or ``repr``; ranks and payloads are rebuilt on demand.

Rank ordering (the heart of the paper's safety argument): certificates and
blocks are ranked first by view number, then — within the same view — an
*endorsed* fallback certificate outranks any regular certificate, and ties
beyond that break by round number.  ``Rank`` encodes this as the tuple
``(view, endorsed, round)`` with lexicographic comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.crypto.hashing import Digest, hash_fields
from repro.crypto.threshold import ThresholdSignature


def _signature_fingerprint(signature: ThresholdSignature) -> tuple:
    """Everything verification reads from a threshold signature.

    Certificate content digests must cover the epoch, tag AND signer set:
    a forged certificate carrying a copied tag but a sub-threshold signer
    set has to hash differently from the genuine article, or a verdict
    cache keyed on digests would conflate them.
    """
    return (signature.epoch, signature.tag, signature.signers)


@dataclass(frozen=True, slots=True)
class Rank:
    """Total order over certificates/blocks: (view, endorsed, round).

    The comparison dunders are all spelled out (no ``total_ordering``) so
    rank comparisons — which sit on the simulator's hottest path — cost one
    native tuple compare instead of a derived-operator dispatch.  bool
    compares/hashes as int, so skipping the int() conversion that
    ``_key()`` performs keeps the ordering identical.
    """

    view: int
    endorsed: bool
    round: int

    def _key(self) -> tuple[int, int, int]:
        return (self.view, int(self.endorsed), self.round)

    def __lt__(self, other: "Rank") -> bool:
        return (self.view, self.endorsed, self.round) < (
            other.view,
            other.endorsed,
            other.round,
        )

    def __le__(self, other: "Rank") -> bool:
        return (self.view, self.endorsed, self.round) <= (
            other.view,
            other.endorsed,
            other.round,
        )

    def __gt__(self, other: "Rank") -> bool:
        return (self.view, self.endorsed, self.round) > (
            other.view,
            other.endorsed,
            other.round,
        )

    def __ge__(self, other: "Rank") -> bool:
        return (self.view, self.endorsed, self.round) >= (
            other.view,
            other.endorsed,
            other.round,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rank):
            return NotImplemented
        return (self.view, self.endorsed, self.round) == (
            other.view,
            other.endorsed,
            other.round,
        )

    def __hash__(self) -> int:
        return hash((self.view, self.endorsed, self.round))

    @classmethod
    def zero(cls) -> "Rank":
        return cls(view=0, endorsed=False, round=0)


# ----------------------------------------------------------------------
# Quorum certificates
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class QC:
    """Quorum certificate for a regular block.

    Threshold signature over ``(block_id, round, view)`` from 2f+1 replicas.
    """

    block_id: Digest
    round: int
    view: int
    signature: ThresholdSignature
    _digest: Optional[Digest] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def rank(self) -> Rank:
        return Rank(view=self.view, endorsed=False, round=self.round)

    def payload(self) -> tuple:
        """The signed payload (what shares were computed over)."""
        return ("vote", self.block_id, self.round, self.view)

    @property
    def digest(self) -> Digest:
        """Canonical content digest (verified-certificate cache key)."""
        digest = self._digest
        if digest is None:
            digest = hash_fields(
                "qc-digest", self.payload(), _signature_fingerprint(self.signature)
            )
            object.__setattr__(self, "_digest", digest)
        return digest


@dataclass(frozen=True, slots=True)
class FallbackQC:
    """Quorum certificate for a fallback block (f-QC).

    Threshold signature over ``(block_id, round, view, height, proposer)``.
    """

    block_id: Digest
    round: int
    view: int
    height: int
    proposer: int
    signature: ThresholdSignature
    _digest: Optional[Digest] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def rank(self) -> Rank:
        """Rank as an *unendorsed* certificate (fallback-internal use)."""
        return Rank(view=self.view, endorsed=False, round=self.round)

    def payload(self) -> tuple:
        return (
            "fvote",
            self.block_id,
            self.round,
            self.view,
            self.height,
            self.proposer,
        )

    @property
    def digest(self) -> Digest:
        """Canonical content digest (verified-certificate cache key)."""
        digest = self._digest
        if digest is None:
            digest = hash_fields(
                "fqc-digest", self.payload(), _signature_fingerprint(self.signature)
            )
            object.__setattr__(self, "_digest", digest)
        return digest


@dataclass(frozen=True, slots=True)
class CoinQC:
    """Leader-election certificate: f+1 coin shares revealed view's leader.

    ``proof_tag`` is the coin's unforgeable evidence (see
    :meth:`repro.crypto.coin.CommonCoin.verify_leader`).
    """

    view: int
    leader: int
    proof_tag: Digest
    _digest: Optional[Digest] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def digest(self) -> Digest:
        """Canonical content digest (verified-certificate cache key)."""
        digest = self._digest
        if digest is None:
            digest = hash_fields("coinqc-digest", self.view, self.leader, self.proof_tag)
            object.__setattr__(self, "_digest", digest)
        return digest


@dataclass(frozen=True, slots=True)
class EndorsedFallbackQC:
    """An f-QC by the view's elected leader, plus the electing coin-QC.

    Endorsed f-QCs are "handled as a QC in any steps of the protocol" and
    outrank every regular QC of the same view.
    """

    fqc: FallbackQC
    coin_qc: CoinQC
    _digest: Optional[Digest] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.fqc.view != self.coin_qc.view:
            raise ValueError(
                f"endorsement view mismatch: f-QC view {self.fqc.view} "
                f"vs coin-QC view {self.coin_qc.view}"
            )
        if self.fqc.proposer != self.coin_qc.leader:
            raise ValueError(
                f"f-QC proposer {self.fqc.proposer} is not the elected "
                f"leader {self.coin_qc.leader}"
            )

    @property
    def block_id(self) -> Digest:
        return self.fqc.block_id

    @property
    def round(self) -> int:
        return self.fqc.round

    @property
    def view(self) -> int:
        return self.fqc.view

    @property
    def rank(self) -> Rank:
        return Rank(view=self.fqc.view, endorsed=True, round=self.fqc.round)

    @property
    def digest(self) -> Digest:
        """Canonical content digest (verified-certificate cache key)."""
        digest = self._digest
        if digest is None:
            digest = hash_fields("endorsed-digest", self.fqc.digest, self.coin_qc.digest)
            object.__setattr__(self, "_digest", digest)
        return digest


#: What a block may embed as its parent certificate / what qc_high holds.
ParentCert = Union[QC, EndorsedFallbackQC]


def max_cert(a: ParentCert, b: ParentCert) -> ParentCert:
    """The paper's ``max(qc1, qc2)``: the higher-ranked certificate."""
    return b if b.rank > a.rank else a


# ----------------------------------------------------------------------
# Timeout certificates
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class TimeoutCertificate:
    """Round-timeout certificate (baseline DiemBFT pacemaker)."""

    round: int
    signature: ThresholdSignature
    _digest: Optional[Digest] = field(
        default=None, init=False, repr=False, compare=False
    )

    def payload(self) -> tuple:
        return ("timeout", self.round)

    @property
    def digest(self) -> Digest:
        """Canonical content digest (verified-certificate cache key)."""
        digest = self._digest
        if digest is None:
            digest = hash_fields(
                "tc-digest", self.payload(), _signature_fingerprint(self.signature)
            )
            object.__setattr__(self, "_digest", digest)
        return digest


@dataclass(frozen=True, slots=True)
class FallbackTC:
    """View-timeout certificate (f-TC): 2f+1 shares over a view number."""

    view: int
    signature: ThresholdSignature
    _digest: Optional[Digest] = field(
        default=None, init=False, repr=False, compare=False
    )

    def payload(self) -> tuple:
        return ("ftimeout", self.view)

    @property
    def digest(self) -> Digest:
        """Canonical content digest (verified-certificate cache key)."""
        digest = self._digest
        if digest is None:
            digest = hash_fields(
                "ftc-digest", self.payload(), _signature_fingerprint(self.signature)
            )
            object.__setattr__(self, "_digest", digest)
        return digest


# ----------------------------------------------------------------------
# Genesis
# ----------------------------------------------------------------------
GENESIS_TAG: Digest = hash_fields("genesis-signature")


def genesis_qc(genesis_block_id: Digest) -> QC:
    """The axiomatic QC for the genesis block (round 0, view 0).

    Validators special-case ``round == 0``; the embedded signature is a
    placeholder with an empty signer set.
    """
    return QC(
        block_id=genesis_block_id,
        round=0,
        view=0,
        signature=ThresholdSignature(epoch=0, tag=GENESIS_TAG, signers=()),
    )


def is_genesis_qc(qc: ParentCert) -> bool:
    return (
        isinstance(qc, QC)
        and qc.round == 0
        and qc.view == 0
        and qc.signature.tag == GENESIS_TAG
    )


def cert_kind(cert: Optional[ParentCert]) -> str:
    """Readable certificate kind, for traces and error messages."""
    if cert is None:
        return "none"
    if isinstance(cert, EndorsedFallbackQC):
        return "endorsed-fqc"
    if isinstance(cert, QC):
        return "genesis-qc" if is_genesis_qc(cert) else "qc"
    return type(cert).__name__
