"""Protocol messages.

Channels are reliable and authenticated (the network reports the true
sender), so messages do not carry explicit signature objects; where the
paper signs a message (proposals, timeouts), the wire codec reserves an
author-signature slot.  Threshold-signature *shares* are first-class fields
because the protocol aggregates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.coin import CoinShare
from repro.crypto.hashing import Digest
from repro.crypto.threshold import ThresholdSignatureShare
from repro.types.blocks import AnyBlock, Block, FallbackBlock
from repro.types.certificates import (
    CoinQC,
    FallbackQC,
    FallbackTC,
    ParentCert,
    TimeoutCertificate,
)


class Message:
    """Marker base class for protocol messages."""

    __slots__ = ()

    @property
    def type_name(self) -> str:
        return type(self).__name__


# ----------------------------------------------------------------------
# Steady state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Proposal(Message):
    """Leader's round-r proposal, multicast to all replicas."""

    block: Block


@dataclass(frozen=True)
class Vote(Message):
    """Threshold share ``{id, r, v}_i`` sent to the next round's leader."""

    block_id: Digest
    round: int
    view: int
    share: ThresholdSignatureShare


# ----------------------------------------------------------------------
# Baseline (DiemBFT) pacemaker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PacemakerTimeout(Message):
    """Round-timeout ``⟨{r}_i, qc_high⟩_i``, multicast all-to-all."""

    round: int
    share: ThresholdSignatureShare
    qc_high: ParentCert


@dataclass(frozen=True)
class PacemakerTCMessage(Message):
    """A formed round-TC, forwarded to the next leader (and on entry)."""

    tc: TimeoutCertificate
    qc_high: ParentCert


# ----------------------------------------------------------------------
# Asynchronous fallback
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FallbackTimeout(Message):
    """View-timeout ``⟨{v_cur}_i, qc_high⟩_i``, multicast all-to-all."""

    view: int
    share: ThresholdSignatureShare
    qc_high: ParentCert


@dataclass(frozen=True)
class FallbackTCMessage(Message):
    """A formed f-TC, multicast when a replica enters the fallback."""

    ftc: FallbackTC


@dataclass(frozen=True)
class FallbackProposal(Message):
    """A fallback block; height-1 proposals also carry the f-TC."""

    fblock: FallbackBlock
    ftc: Optional[FallbackTC] = None


@dataclass(frozen=True)
class FallbackVote(Message):
    """Share ``{id, r, v, h, j}_i`` returned to the f-block's proposer."""

    block_id: Digest
    round: int
    view: int
    height: int
    proposer: int
    share: ThresholdSignatureShare


@dataclass(frozen=True)
class FallbackQCMessage(Message):
    """A completed top-height f-QC, multicast to announce chain completion."""

    fqc: FallbackQC


@dataclass(frozen=True)
class CoinShareMessage(Message):
    """Leader-election coin share for the current view."""

    share: CoinShare


@dataclass(frozen=True)
class CoinQCMessage(Message):
    """A formed coin-QC, multicast so every replica can exit the fallback."""

    coin_qc: CoinQC


# ----------------------------------------------------------------------
# Block synchronization (catch-up)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BlockRequest(Message):
    """Ask a peer for a block we saw certified but never received."""

    block_id: Digest


@dataclass(frozen=True)
class BlockResponse(Message):
    """Answer to a :class:`BlockRequest`."""

    block: AnyBlock


@dataclass(frozen=True)
class ChainRequest(Message):
    """Range sync: ask for a block plus up to ``max_blocks`` ancestors.

    Used by catch-up (recovering or lagging replicas) to fetch a chain
    suffix in one round trip instead of one request per block.
    """

    block_id: Digest
    max_blocks: int = 32


@dataclass(frozen=True)
class ChainResponse(Message):
    """Answer to a :class:`ChainRequest`: the block and its ancestors,
    newest first, as far back as the holder has them (bounded)."""

    blocks: tuple[AnyBlock, ...]
