"""Blocks: regular blocks, fallback blocks, genesis.

A regular block is ``B = [id, qc, r, v, txn]`` where ``qc`` certifies the
parent.  A fallback block adds ``height`` (1..3) and ``proposer``.  Block ids
are content hashes, so equivocating proposals have different ids.

Both block types are frozen, slotted dataclasses.  Every block is stored,
relayed and (once committed) kept for the ledger's lifetime, so the id is
computed once when the block is built and held in a plain slot, and the
codec memoises the block's encoded size in a slot on first use.  Neither
slot takes part in ``==``, ``hash`` or ``repr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.crypto.hashing import Digest, hash_fields
from repro.types.certificates import (
    EndorsedFallbackQC,
    FallbackQC,
    ParentCert,
    QC,
    Rank,
)
from repro.types.transactions import EMPTY_BATCH, Batch

#: Certificate types a block may embed as its parent pointer.
AnyParent = Union[QC, EndorsedFallbackQC, FallbackQC]


def _cert_fingerprint(cert: Optional[AnyParent]) -> tuple:
    """Deterministic identity of a certificate for block hashing.

    Independent of *which* replicas signed (threshold signatures are unique
    per payload), so the same logical parent always hashes identically.
    """
    if cert is None:
        return ("no-parent",)
    if isinstance(cert, EndorsedFallbackQC):
        return (
            "endorsed",
            cert.fqc.block_id,
            cert.fqc.round,
            cert.fqc.view,
            cert.fqc.height,
            cert.fqc.proposer,
            cert.coin_qc.leader,
        )
    if isinstance(cert, FallbackQC):
        return ("fqc", cert.block_id, cert.round, cert.view, cert.height, cert.proposer)
    return ("qc", cert.block_id, cert.round, cert.view)


@dataclass(frozen=True, slots=True)
class Block:
    """A regular (steady-state) block.

    Attributes:
        qc: certificate for the parent block (None only for genesis).
        round: the block's round number ``r``.
        view: the block's view number ``v``.
        batch: the transaction batch ``txn``.
        author: proposing replica (the round's leader).
    """

    qc: Optional[ParentCert]
    round: int
    view: int
    batch: Batch = EMPTY_BATCH
    author: int = -1
    id: Digest = field(init=False, repr=False, compare=False)
    _encoded_size: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "id",
            hash_fields(
                "block",
                _cert_fingerprint(self.qc),
                self.round,
                self.view,
                self.batch.digest,
                self.author,
            ),
        )

    @property
    def parent_id(self) -> Optional[Digest]:
        return self.qc.block_id if self.qc is not None else None

    @property
    def rank(self) -> Rank:
        return Rank(view=self.view, endorsed=False, round=self.round)

    @property
    def is_genesis(self) -> bool:
        return self.qc is None and self.round == 0

    def __repr__(self) -> str:  # compact, for traces
        return f"Block(r={self.round}, v={self.view}, id={self.id[:8]})"


@dataclass(frozen=True, slots=True)
class FallbackBlock:
    """A fallback block ``B̄ = [B, height, proposer]``.

    ``qc`` is the replica's ``qc_high`` for height 1, and the f-QC of the
    previous f-block in the chain for heights 2 and 3.
    """

    qc: AnyParent
    round: int
    view: int
    height: int
    proposer: int
    batch: Batch = EMPTY_BATCH
    id: Digest = field(init=False, repr=False, compare=False)
    _encoded_size: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.height < 1:
            raise ValueError(f"fallback height must be >= 1, got {self.height}")
        object.__setattr__(
            self,
            "id",
            hash_fields(
                "fblock",
                _cert_fingerprint(self.qc),
                self.round,
                self.view,
                self.batch.digest,
                self.height,
                self.proposer,
            ),
        )

    @property
    def parent_id(self) -> Digest:
        return self.qc.block_id

    @property
    def rank(self) -> Rank:
        """Rank as an unendorsed f-block (endorsement is a certificate affair)."""
        return Rank(view=self.view, endorsed=False, round=self.round)

    def __repr__(self) -> str:
        return (
            f"FBlock(h={self.height}, r={self.round}, v={self.view}, "
            f"by={self.proposer}, id={self.id[:8]})"
        )


AnyBlock = Union[Block, FallbackBlock]


def genesis_block() -> Block:
    """The unique genesis block: round 0, view 0, empty batch."""
    return Block(qc=None, round=0, view=0, batch=EMPTY_BATCH, author=-1)


def is_fallback(block: AnyBlock) -> bool:
    return isinstance(block, FallbackBlock)
