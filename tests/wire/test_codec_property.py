"""Property-based codec tests: round-trip law and byte-level fuzzing.

The two invariants the transport depends on:

1. ``decode_message(encode_message(s, m)) == (s, m)`` for every encodable
   message (including optional-field shapes like :class:`FallbackProposal`
   with and without its f-TC).
2. Decoding arbitrary or corrupted bytes either succeeds or raises
   :class:`DecodeError` — never any other exception — so a Byzantine peer
   cannot crash the transport with crafted payloads.
3. The encoding is canonical: bytes that decode re-encode to exactly
   themselves, so no message has two accepted wire forms.
4. The size the network bills a message, read off the codec table, is
   the frame header plus the length of its encoding.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.client.client import ClientReply, ClientRequest
from repro.crypto.coin import CoinShare
from repro.crypto.hashing import hash_fields
from repro.crypto.threshold import ThresholdSignature, ThresholdSignatureShare
from repro.net.network import billed_size
from repro.types.blocks import Block, FallbackBlock
from repro.types.certificates import (
    CoinQC,
    EndorsedFallbackQC,
    FallbackQC,
    FallbackTC,
    QC,
    TimeoutCertificate,
)
from repro.types.messages import (
    BlockRequest,
    BlockResponse,
    ChainRequest,
    ChainResponse,
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
from repro.types.transactions import Batch, Transaction
from repro.wire.codec import (
    MESSAGE_TABLE,
    DecodeError,
    decode_message,
    encode_message,
)
from repro.wire.framing import FRAME_HEADER_SIZE

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
small_ints = st.integers(min_value=0, max_value=2**31)
digests = st.integers(min_value=0, max_value=2**32).map(
    lambda i: hash_fields("prop", i)
)
senders = st.integers(min_value=-(2**15), max_value=2**15 - 1)

tsigs = st.builds(
    ThresholdSignature,
    epoch=small_ints,
    tag=digests,
    signers=st.frozensets(st.integers(0, 500), max_size=7),
)
shares = st.builds(
    ThresholdSignatureShare, signer=small_ints, epoch=small_ints, tag=digests
)
coin_shares = st.builds(
    CoinShare, signer=small_ints, view=small_ints, epoch=small_ints, tag=digests
)
qcs = st.builds(QC, block_id=digests, round=small_ints, view=small_ints, signature=tsigs)
fqcs = st.builds(
    FallbackQC,
    block_id=digests,
    round=small_ints,
    view=small_ints,
    height=st.integers(1, 3),
    proposer=st.integers(0, 100),
    signature=tsigs,
)
tcs = st.builds(TimeoutCertificate, round=small_ints, signature=tsigs)
ftcs = st.builds(FallbackTC, view=small_ints, signature=tsigs)
coin_qcs = st.builds(
    CoinQC, view=small_ints, leader=st.integers(0, 100), proof_tag=digests
)
# An endorsement's coin-QC elects the f-QC's proposer in the f-QC's view.
endorsed = st.builds(
    lambda fqc, proof_tag: EndorsedFallbackQC(
        fqc=fqc,
        coin_qc=CoinQC(view=fqc.view, leader=fqc.proposer, proof_tag=proof_tag),
    ),
    fqcs,
    digests,
)
parents = qcs | endorsed

transactions = st.builds(
    Transaction,
    tx_id=st.text(max_size=40),
    client=small_ints,
    payload=st.text(max_size=60),
    payload_size=st.integers(0, 500),
    submitted_at=st.floats(allow_nan=False, allow_infinity=False, width=64),
)
batches = st.builds(Batch, transactions=st.tuples() | st.tuples(transactions) | st.tuples(transactions, transactions))

blocks = st.builds(
    Block,
    qc=st.none() | parents,
    round=small_ints,
    view=small_ints,
    batch=batches,
    author=st.integers(0, 100),
)
fblocks = st.builds(
    FallbackBlock,
    qc=parents | fqcs,
    round=small_ints,
    view=small_ints,
    height=st.integers(1, 3),
    proposer=st.integers(0, 100),
    batch=batches,
)
any_blocks = blocks | fblocks

#: One strategy per message type; the keys must be the codec table's types.
MESSAGE_STRATEGIES = {
    Proposal: st.builds(Proposal, block=blocks),
    Vote: st.builds(
        Vote, block_id=digests, round=small_ints, view=small_ints, share=shares
    ),
    PacemakerTimeout: st.builds(
        PacemakerTimeout, round=small_ints, share=shares, qc_high=parents
    ),
    PacemakerTCMessage: st.builds(PacemakerTCMessage, tc=tcs, qc_high=parents),
    FallbackTimeout: st.builds(
        FallbackTimeout, view=small_ints, share=shares, qc_high=parents
    ),
    FallbackTCMessage: st.builds(FallbackTCMessage, ftc=ftcs),
    # Optional-field coverage: FallbackProposal with and without the f-TC.
    FallbackProposal: st.builds(FallbackProposal, fblock=fblocks, ftc=st.none() | ftcs),
    FallbackVote: st.builds(
        FallbackVote,
        block_id=digests,
        round=small_ints,
        view=small_ints,
        height=st.integers(1, 3),
        proposer=st.integers(0, 100),
        share=shares,
    ),
    FallbackQCMessage: st.builds(FallbackQCMessage, fqc=fqcs),
    CoinShareMessage: st.builds(CoinShareMessage, share=coin_shares),
    CoinQCMessage: st.builds(CoinQCMessage, coin_qc=coin_qcs),
    BlockRequest: st.builds(BlockRequest, block_id=digests),
    BlockResponse: st.builds(BlockResponse, block=any_blocks),
    ChainRequest: st.builds(
        ChainRequest, block_id=digests, max_blocks=st.integers(1, 4096)
    ),
    ChainResponse: st.builds(
        ChainResponse, blocks=st.lists(any_blocks, max_size=3).map(tuple)
    ),
    ClientRequest: st.builds(ClientRequest, transaction=transactions),
    ClientReply: st.builds(
        ClientReply,
        tx_id=st.text(max_size=40),
        position=small_ints,
        block_id=digests,
        replica=st.integers(0, 100),
    ),
}
messages = st.one_of(*MESSAGE_STRATEGIES.values())


def test_every_table_type_is_fuzzed():
    assert set(MESSAGE_STRATEGIES) == {cls for cls, _ in MESSAGE_TABLE.values()}


# ----------------------------------------------------------------------
# Round-trip law
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(sender=senders, message=messages)
def test_decode_encode_is_identity(sender, message):
    assert decode_message(encode_message(sender, message)) == (sender, message)


@settings(max_examples=200, deadline=None)
@given(sender=senders, message=messages)
def test_billed_size_is_the_framed_encoding(sender, message):
    framed = FRAME_HEADER_SIZE + len(encode_message(sender, message))
    assert billed_size(message) == framed


@settings(max_examples=100, deadline=None)
@given(sender=senders, message=messages)
def test_strict_prefixes_raise_decode_error(sender, message):
    data = encode_message(sender, message)
    # Sampling every prefix would be quadratic; cover the structural
    # boundaries plus a stride through the body.
    cuts = {0, 1, 2, 7, 23, len(data) - 1} | set(range(0, len(data), 17))
    for cut in cuts:
        if 0 <= cut < len(data):
            with pytest.raises(DecodeError):
                decode_message(data[:cut])


# ----------------------------------------------------------------------
# Fuzz: hostile bytes never escape DecodeError
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=300))
def test_garbage_bytes_never_crash(data):
    try:
        decode_message(data)
    except DecodeError:
        pass  # the only acceptable failure mode


@settings(max_examples=200, deadline=None)
@given(
    message=messages,
    offset=st.integers(min_value=0, max_value=10_000),
    flip=st.integers(min_value=1, max_value=255),
)
def test_single_byte_corruption_never_crashes(message, offset, flip):
    data = bytearray(encode_message(3, message))
    data[offset % len(data)] ^= flip
    try:
        decode_message(bytes(data))
    except DecodeError:
        pass  # corrupted frames are rejected, not crashed on


# ----------------------------------------------------------------------
# Canonical form: accepted bytes re-encode to themselves
# ----------------------------------------------------------------------
def _assert_canonical(data: bytes) -> None:
    try:
        sender, message = decode_message(data)
    except DecodeError:
        return
    assert encode_message(sender, message) == data


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=300))
def test_accepted_garbage_is_canonical(data):
    _assert_canonical(data)


@settings(max_examples=300, deadline=None)
@given(
    message=messages,
    offset=st.integers(min_value=0, max_value=10_000),
    flip=st.integers(min_value=1, max_value=255),
)
def test_accepted_corruption_is_canonical(message, offset, flip):
    data = bytearray(encode_message(3, message))
    data[offset % len(data)] ^= flip
    _assert_canonical(bytes(data))
