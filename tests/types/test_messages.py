"""Tests for protocol message types and their sizes on the wire."""

import pytest

from repro.crypto.coin import CoinShare
from repro.crypto.threshold import ThresholdSignatureShare
from repro.types.blocks import Block, FallbackBlock, genesis_block
from repro.types.certificates import CoinQC, FallbackTC, TimeoutCertificate, genesis_qc
from repro.types.messages import (
    BlockRequest,
    BlockResponse,
    CoinQCMessage,
    CoinShareMessage,
    FallbackProposal,
    FallbackQCMessage,
    FallbackTCMessage,
    FallbackTimeout,
    FallbackVote,
    PacemakerTCMessage,
    PacemakerTimeout,
    Proposal,
    Vote,
)

from repro.wire.codec import MESSAGE_OVERHEAD, encoded_size

from tests.types.test_certificates import make_fqc, make_qc

SHARE = ThresholdSignatureShare(signer=0, epoch=0, tag="t")
COIN_SHARE = CoinShare(signer=0, view=1, epoch=0, tag="t")


def make_tc():
    qc = make_qc()
    return TimeoutCertificate(round=3, signature=qc.signature)


def make_ftc():
    qc = make_qc()
    return FallbackTC(view=2, signature=qc.signature)


def all_messages():
    genesis = genesis_block()
    gqc = genesis_qc(genesis.id)
    block = Block(qc=gqc, round=1, view=0, author=0)
    fblock = FallbackBlock(qc=gqc, round=1, view=0, height=1, proposer=0)
    fqc = make_fqc()
    return [
        Proposal(block),
        Vote(block_id=block.id, round=1, view=0, share=SHARE),
        PacemakerTimeout(round=1, share=SHARE, qc_high=gqc),
        PacemakerTCMessage(tc=make_tc(), qc_high=gqc),
        FallbackTimeout(view=0, share=SHARE, qc_high=gqc),
        FallbackTCMessage(ftc=make_ftc()),
        FallbackProposal(fblock=fblock, ftc=make_ftc()),
        FallbackVote(block_id=fblock.id, round=1, view=0, height=1, proposer=0,
                     share=SHARE),
        FallbackQCMessage(fqc=fqc),
        CoinShareMessage(share=COIN_SHARE),
        CoinQCMessage(coin_qc=CoinQC(view=0, leader=1, proof_tag="p")),
        BlockRequest(block_id=block.id),
        BlockResponse(block=block),
    ]


@pytest.mark.parametrize("message", all_messages(), ids=lambda m: m.type_name)
def test_every_message_has_positive_wire_size(message):
    assert encoded_size(message) > MESSAGE_OVERHEAD


@pytest.mark.parametrize("message", all_messages(), ids=lambda m: m.type_name)
def test_wire_size_is_deterministic(message):
    assert encoded_size(message) == encoded_size(message)  # memoised blocks too


def test_proposal_size_scales_with_batch():
    from repro.types.transactions import Batch, make_transaction

    genesis = genesis_block()
    gqc = genesis_qc(genesis.id)
    small = Proposal(Block(qc=gqc, round=1, view=0, author=0))
    big = Proposal(Block(
        qc=gqc, round=1, view=0, author=0,
        batch=Batch.of([make_transaction(i, payload_size=1000) for i in range(5)]),
    ))
    # Each transaction: its payload slot, the id "tx-0-i" (2 + 6), three
    # numbers and the payload's length prefix.
    assert encoded_size(big) - encoded_size(small) == 5 * (1000 + 8 + 24 + 2)


def test_vote_is_constant_size():
    """Votes are O(1) — the crux of linear complexity."""
    vote = Vote(block_id="x" * 32, round=10 ** 9, view=10 ** 6, share=SHARE)
    assert encoded_size(vote) < 200


def test_certificates_are_constant_size_in_messages():
    """A QC inside a timeout rides in fixed slots: its threshold signature
    fits the 96-byte slot up to 27 signers."""
    timeout = FallbackTimeout(view=0, share=SHARE, qc_high=make_qc())
    assert encoded_size(timeout) < 500


def test_height1_proposal_includes_ftc_bytes():
    genesis = genesis_block()
    gqc = genesis_qc(genesis.id)
    fblock = FallbackBlock(qc=gqc, round=1, view=0, height=1, proposer=0)
    with_ftc = FallbackProposal(fblock=fblock, ftc=make_ftc())
    without = FallbackProposal(fblock=fblock, ftc=None)
    assert encoded_size(with_ftc) > encoded_size(without)


def test_type_name():
    assert Proposal(genesis_block()).type_name == "Proposal"
