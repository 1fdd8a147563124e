"""Deterministic, versioned binary codec for every protocol message.

Every message in :mod:`repro.types.messages` (plus the client messages)
encodes to a canonical byte string and decodes back to an equal object:
``decode_message(encode_message(sender, m)) == (sender, m)``.  The format
is self-describing enough to be safely fed garbage — every frame starts
with a version byte and a type tag drawn from a closed registry, all
variable-length fields are length-prefixed and bounds-checked, reserved
padding must be zero, and block ids are recomputed and compared on decode —
so unknown tags, truncation, trailing bytes and field corruption all raise
:class:`DecodeError` instead of producing a confused object (mirroring the
Flooder-garbage hardening in the simulator's validation layer).

Layout of one encoded message::

    version   u8     (WIRE_VERSION; bump on any layout change)
    type tag  u8     (registry below; 1-127 core, 128-255 extensions)
    sender    i16
    reserved  4 B    (zeros)
    auth slot 16 B   (zeros; where a real deployment puts the channel MAC)
    body      per-type encoding

The 24-byte envelope equals the modeled ``MESSAGE_OVERHEAD`` by design.
More generally the codec reserves *production-sized* slots for crypto
objects — 96 B for a combined threshold signature (BLS12-381-like), 48 B
per share, 32 B per digest, 96 B for a coin proof, 64 B for an author
signature, 48 B for certificate headers — carrying the simulation's
smaller stand-ins inside the slot with zero padding.  That makes
``encoded_size()`` track what a real deployment would put on the wire,
which is exactly what the modeled ``wire_size()`` estimates claim to
approximate; the parity test in ``tests/wire/test_wire_size_parity.py``
pins the two within a documented tolerance (|encoded - modeled| <=
max(16 bytes, 10%)).

Versioning rules: the version byte covers the entire layout.  Any change
to field order, widths, slot sizes or tag meanings bumps ``WIRE_VERSION``;
decoders reject other versions outright (no in-band negotiation — version
agreement is a deployment concern).  New message types may be added under
fresh tags without a version bump; reusing or renumbering a tag requires
one.  Extension tags 128-255 are never assigned by the core codec and are
reserved for :func:`register_message` callers.

Integers are 8-byte signed big-endian throughout; strings are u16
length-prefixed UTF-8; digests ship as 16 raw bytes (the in-memory hex id)
padded to the 32-byte modeled digest slot.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional

from repro.client.client import ClientReply, ClientRequest
from repro.crypto.coin import CoinShare
from repro.crypto.hashing import DIGEST_WIRE_SIZE
from repro.crypto.signatures import SIGNATURE_WIRE_SIZE
from repro.crypto.threshold import (
    SHARE_WIRE_SIZE,
    THRESHOLD_SIG_WIRE_SIZE,
    ThresholdSignature,
    ThresholdSignatureShare,
)
from repro.types.blocks import Block, FallbackBlock
from repro.types.certificates import (
    CERT_HEADER_WIRE_SIZE,
    COIN_QC_WIRE_SIZE,
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
    MESSAGE_OVERHEAD,
    PacemakerTCMessage,
    PacemakerTimeout,
    Proposal,
    Vote,
)
from repro.types.transactions import EMPTY_BATCH, Batch, Transaction

#: Bump on ANY layout change (see module docstring for the rules).
WIRE_VERSION = 1

#: Envelope bytes before the body; equals the modeled MESSAGE_OVERHEAD.
ENVELOPE_SIZE = MESSAGE_OVERHEAD

#: Raw digest bytes actually carried inside the 32-byte digest slot.
_DIGEST_RAW_SIZE = 16

#: First type tag available to register_message extensions.
EXTENSION_TAG_BASE = 128


class CodecError(ValueError):
    """Base class for codec failures."""


class EncodeError(CodecError):
    """An object cannot be rendered in the wire format."""


class DecodeError(CodecError):
    """Bytes do not parse as a well-formed wire message."""


_I64 = struct.Struct(">q")
_I16 = struct.Struct(">h")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")


# ----------------------------------------------------------------------
# Primitive writer / reader
# ----------------------------------------------------------------------
class _Writer:
    __slots__ = ("buf",)

    def __init__(self) -> None:
        self.buf = bytearray()

    def u8(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise EncodeError(f"u8 out of range: {value}")
        self.buf.append(value)

    def u16(self, value: int) -> None:
        try:
            self.buf += _U16.pack(value)
        except struct.error as exc:
            raise EncodeError(f"u16 out of range: {value}") from exc

    def u32(self, value: int) -> None:
        try:
            self.buf += _U32.pack(value)
        except struct.error as exc:
            raise EncodeError(f"u32 out of range: {value}") from exc

    def i16(self, value: int) -> None:
        try:
            self.buf += _I16.pack(value)
        except struct.error as exc:
            raise EncodeError(f"i16 out of range: {value}") from exc

    def i64(self, value: int) -> None:
        try:
            self.buf += _I64.pack(value)
        except struct.error as exc:
            raise EncodeError(f"i64 out of range: {value}") from exc

    def f64(self, value: float) -> None:
        self.buf += _F64.pack(value)

    def pad(self, count: int) -> None:
        self.buf += bytes(count)

    def digest(self, value: str) -> None:
        try:
            raw = bytes.fromhex(value)
        except (ValueError, TypeError) as exc:
            raise EncodeError(f"digest is not hex: {value!r}") from exc
        if len(raw) != _DIGEST_RAW_SIZE:
            raise EncodeError(
                f"digest must be {_DIGEST_RAW_SIZE} raw bytes, got {len(raw)}"
            )
        self.buf += raw
        self.pad(DIGEST_WIRE_SIZE - _DIGEST_RAW_SIZE)

    def string(self, value: str) -> None:
        encoded = value.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise EncodeError(f"string too long for wire: {len(encoded)} bytes")
        self.u16(len(encoded))
        self.buf += encoded


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise DecodeError(
                f"truncated: need {count} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return _U16.unpack(self._take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def i16(self) -> int:
        return _I16.unpack(self._take(2))[0]

    def i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def f64(self) -> float:
        return _F64.unpack(self._take(8))[0]

    def skip_zeros(self, count: int) -> None:
        chunk = self._take(count)
        if chunk.count(0) != count:
            raise DecodeError("nonzero bytes in reserved padding")

    def digest(self) -> str:
        raw = self._take(_DIGEST_RAW_SIZE)
        self.skip_zeros(DIGEST_WIRE_SIZE - _DIGEST_RAW_SIZE)
        return raw.hex()

    def string(self) -> str:
        length = self.u16()
        raw = self._take(length)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid UTF-8 in string field: {exc}") from exc

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise DecodeError(
                f"{len(self.data) - self.pos} trailing bytes after message body"
            )


# ----------------------------------------------------------------------
# Crypto objects (production-sized slots, zero-padded)
# ----------------------------------------------------------------------
def _write_tsig(w: _Writer, signature: ThresholdSignature) -> None:
    start = len(w.buf)
    w.i64(signature.epoch)
    w.digest(signature.tag)
    w.u16(len(signature.signers))
    for signer in signature.signers:  # sorted when the signature was built
        w.u16(signer)
    natural = len(w.buf) - start
    if natural < THRESHOLD_SIG_WIRE_SIZE:
        w.pad(THRESHOLD_SIG_WIRE_SIZE - natural)


def _read_tsig(r: _Reader) -> ThresholdSignature:
    start = r.pos
    epoch = r.i64()
    tag = r.digest()
    count = r.u16()
    signers = tuple(r.u16() for _ in range(count))
    if len(set(signers)) != count:
        raise DecodeError("duplicate signer in threshold signature")
    natural = r.pos - start
    if natural < THRESHOLD_SIG_WIRE_SIZE:
        r.skip_zeros(THRESHOLD_SIG_WIRE_SIZE - natural)
    return ThresholdSignature(epoch=epoch, tag=tag, signers=signers)


def _write_share(w: _Writer, share: ThresholdSignatureShare) -> None:
    w.i64(share.signer)
    w.i64(share.epoch)
    w.digest(share.tag)


def _read_share(r: _Reader) -> ThresholdSignatureShare:
    return ThresholdSignatureShare(signer=r.i64(), epoch=r.i64(), tag=r.digest())


assert 8 + 8 + DIGEST_WIRE_SIZE == SHARE_WIRE_SIZE  # share slot is exact


def _write_coin_share(w: _Writer, share: CoinShare) -> None:
    w.i64(share.signer)
    w.i64(share.view)
    w.i64(share.epoch)
    w.digest(share.tag)


def _read_coin_share(r: _Reader) -> CoinShare:
    return CoinShare(signer=r.i64(), view=r.i64(), epoch=r.i64(), tag=r.digest())


_COIN_QC_NATURAL = 8 + 8 + DIGEST_WIRE_SIZE


def _write_coin_qc(w: _Writer, coin_qc: CoinQC) -> None:
    w.i64(coin_qc.view)
    w.i64(coin_qc.leader)
    w.digest(coin_qc.proof_tag)
    w.pad(COIN_QC_WIRE_SIZE - _COIN_QC_NATURAL)


def _read_coin_qc(r: _Reader) -> CoinQC:
    view = r.i64()
    leader = r.i64()
    proof_tag = r.digest()
    r.skip_zeros(COIN_QC_WIRE_SIZE - _COIN_QC_NATURAL)
    return CoinQC(view=view, leader=leader, proof_tag=proof_tag)


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------
_CERT_QC = 1
_CERT_FQC = 2
_CERT_ENDORSED = 3
_CERT_TC = 4
_CERT_FTC = 5
_CERT_COINQC = 6

#: Reserved bytes filling the certificate header slot for certs whose
#: natural header (one number) is smaller than the modeled 48 bytes — a
#: production TC carries the signers' high-round vector there.
_TC_HEADER_PAD = CERT_HEADER_WIRE_SIZE - 8


def _write_cert(w: _Writer, cert: object) -> None:
    if isinstance(cert, EndorsedFallbackQC):
        w.u8(_CERT_ENDORSED)
        _write_cert(w, cert.fqc)
        _write_cert(w, cert.coin_qc)
    elif isinstance(cert, QC):
        w.u8(_CERT_QC)
        w.digest(cert.block_id)
        w.i64(cert.round)
        w.i64(cert.view)
        _write_tsig(w, cert.signature)
    elif isinstance(cert, FallbackQC):
        w.u8(_CERT_FQC)
        w.digest(cert.block_id)
        w.i64(cert.round)
        w.i64(cert.view)
        w.i64(cert.height)
        w.i64(cert.proposer)
        _write_tsig(w, cert.signature)
    elif isinstance(cert, TimeoutCertificate):
        w.u8(_CERT_TC)
        w.i64(cert.round)
        w.pad(_TC_HEADER_PAD)
        _write_tsig(w, cert.signature)
    elif isinstance(cert, FallbackTC):
        w.u8(_CERT_FTC)
        w.i64(cert.view)
        w.pad(_TC_HEADER_PAD)
        _write_tsig(w, cert.signature)
    elif isinstance(cert, CoinQC):
        w.u8(_CERT_COINQC)
        _write_coin_qc(w, cert)
    else:
        raise EncodeError(f"unencodable certificate type {type(cert).__name__}")


def _read_cert(r: _Reader) -> object:
    tag = r.u8()
    if tag == _CERT_QC:
        return QC(
            block_id=r.digest(), round=r.i64(), view=r.i64(), signature=_read_tsig(r)
        )
    if tag == _CERT_FQC:
        return FallbackQC(
            block_id=r.digest(),
            round=r.i64(),
            view=r.i64(),
            height=r.i64(),
            proposer=r.i64(),
            signature=_read_tsig(r),
        )
    if tag == _CERT_ENDORSED:
        fqc = _read_cert(r)
        coin_qc = _read_cert(r)
        if not isinstance(fqc, FallbackQC) or not isinstance(coin_qc, CoinQC):
            raise DecodeError("endorsed certificate must wrap an f-QC and a coin-QC")
        return EndorsedFallbackQC(fqc=fqc, coin_qc=coin_qc)
    if tag == _CERT_TC:
        round_number = r.i64()
        r.skip_zeros(_TC_HEADER_PAD)
        return TimeoutCertificate(round=round_number, signature=_read_tsig(r))
    if tag == _CERT_FTC:
        view = r.i64()
        r.skip_zeros(_TC_HEADER_PAD)
        return FallbackTC(view=view, signature=_read_tsig(r))
    if tag == _CERT_COINQC:
        return _read_coin_qc(r)
    raise DecodeError(f"unknown certificate tag {tag}")


def _read_cert_of(r: _Reader, *types: type[object]) -> object:
    cert = _read_cert(r)
    if not isinstance(cert, types):
        expected = "/".join(t.__name__ for t in types)
        raise DecodeError(
            f"certificate of type {type(cert).__name__} where {expected} required"
        )
    return cert


# ----------------------------------------------------------------------
# Transactions / batches / blocks
# ----------------------------------------------------------------------
def _write_transaction(w: _Writer, tx: Transaction) -> None:
    w.string(tx.tx_id)
    w.i64(tx.client)
    w.i64(tx.payload_size)
    w.f64(tx.submitted_at)
    payload = tx.payload.encode("utf-8")
    if len(payload) > 0xFFFF:
        raise EncodeError(f"transaction payload too long: {len(payload)} bytes")
    w.u16(len(payload))
    w.buf += payload
    # The wire carries the full modeled payload volume: the simulation's
    # payload string is a small stand-in for a payload_size-byte command
    # body, so the slot is padded out to payload_size bytes.
    w.pad(max(0, tx.payload_size - len(payload)))


def _read_transaction(r: _Reader) -> Transaction:
    tx_id = r.string()
    client = r.i64()
    payload_size = r.i64()
    submitted_at = r.f64()
    length = r.u16()
    raw = r._take(length)
    try:
        payload = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"invalid UTF-8 in payload: {exc}") from exc
    r.skip_zeros(max(0, payload_size - length))
    return Transaction(
        tx_id=tx_id,
        client=client,
        payload=payload,
        payload_size=payload_size,
        submitted_at=submitted_at,
    )


def _write_batch(w: _Writer, batch: Batch) -> None:
    if len(batch.transactions) > 0xFFFF:
        raise EncodeError(f"batch too large: {len(batch.transactions)} transactions")
    w.u16(len(batch.transactions))
    for tx in batch.transactions:
        _write_transaction(w, tx)


def _read_batch(r: _Reader) -> Batch:
    count = r.u16()
    if count == 0:
        return EMPTY_BATCH
    return Batch(transactions=tuple(_read_transaction(r) for _ in range(count)))


_BLOCK_REGULAR = 1
_BLOCK_FALLBACK = 2


def _write_block(w: _Writer, block: object) -> None:
    if isinstance(block, FallbackBlock):
        w.u8(_BLOCK_FALLBACK)
        w.digest(block.id)
        w.i64(block.round)
        w.i64(block.view)
        w.pad(16)  # header slot reserve (author / metadata in production)
        w.i64(block.height)
        w.i64(block.proposer)
        _write_cert(w, block.qc)
        _write_batch(w, block.batch)
    elif isinstance(block, Block):
        w.u8(_BLOCK_REGULAR)
        w.digest(block.id)
        w.i64(block.round)
        w.i64(block.view)
        w.i64(block.author)
        w.pad(8)  # header slot reserve
        if block.qc is None:
            w.u8(0)
        else:
            w.u8(1)
            _write_cert(w, block.qc)
        _write_batch(w, block.batch)
    else:
        raise EncodeError(f"unencodable block type {type(block).__name__}")


def _read_block(r: _Reader) -> object:
    tag = r.u8()
    if tag == _BLOCK_FALLBACK:
        shipped_id = r.digest()
        round_number = r.i64()
        view = r.i64()
        r.skip_zeros(16)
        height = r.i64()
        proposer = r.i64()
        qc = _read_cert_of(r, QC, EndorsedFallbackQC, FallbackQC)
        batch = _read_batch(r)
        block = FallbackBlock(
            qc=qc,
            round=round_number,
            view=view,
            height=height,
            proposer=proposer,
            batch=batch,
        )
    elif tag == _BLOCK_REGULAR:
        shipped_id = r.digest()
        round_number = r.i64()
        view = r.i64()
        author = r.i64()
        r.skip_zeros(8)
        qc = _read_cert_of(r, QC, EndorsedFallbackQC) if r.u8() else None
        batch = _read_batch(r)
        block = Block(
            qc=qc, round=round_number, view=view, batch=batch, author=author
        )
    else:
        raise DecodeError(f"unknown block tag {tag}")
    # Content-hash integrity: the id must match what the fields hash to, so
    # a forged or corrupted block cannot smuggle a mismatched identity.
    if block.id != shipped_id:
        raise DecodeError("block id does not match block contents")
    return block


def _read_block_of(r: _Reader, *types: type[object]) -> object:
    block = _read_block(r)
    if not isinstance(block, types):
        expected = "/".join(t.__name__ for t in types)
        raise DecodeError(
            f"block of type {type(block).__name__} where {expected} required"
        )
    return block


# ----------------------------------------------------------------------
# Message bodies
# ----------------------------------------------------------------------
def _enc_proposal(w: _Writer, m: Proposal) -> None:
    w.pad(SIGNATURE_WIRE_SIZE)  # author-signature slot
    _write_block(w, m.block)


def _dec_proposal(r: _Reader) -> Proposal:
    r.skip_zeros(SIGNATURE_WIRE_SIZE)
    return Proposal(block=_read_block_of(r, Block))


def _enc_vote(w: _Writer, m: Vote) -> None:
    w.digest(m.block_id)
    w.i64(m.round)
    w.i64(m.view)
    _write_share(w, m.share)


def _dec_vote(r: _Reader) -> Vote:
    return Vote(
        block_id=r.digest(), round=r.i64(), view=r.i64(), share=_read_share(r)
    )


def _enc_pacemaker_timeout(w: _Writer, m: PacemakerTimeout) -> None:
    w.pad(SIGNATURE_WIRE_SIZE)
    w.i64(m.round)
    _write_share(w, m.share)
    _write_cert(w, m.qc_high)


def _dec_pacemaker_timeout(r: _Reader) -> PacemakerTimeout:
    r.skip_zeros(SIGNATURE_WIRE_SIZE)
    return PacemakerTimeout(
        round=r.i64(),
        share=_read_share(r),
        qc_high=_read_cert_of(r, QC, EndorsedFallbackQC),
    )


def _enc_pacemaker_tc(w: _Writer, m: PacemakerTCMessage) -> None:
    _write_cert(w, m.tc)
    _write_cert(w, m.qc_high)


def _dec_pacemaker_tc(r: _Reader) -> PacemakerTCMessage:
    return PacemakerTCMessage(
        tc=_read_cert_of(r, TimeoutCertificate),
        qc_high=_read_cert_of(r, QC, EndorsedFallbackQC),
    )


def _enc_fallback_timeout(w: _Writer, m: FallbackTimeout) -> None:
    w.pad(SIGNATURE_WIRE_SIZE)
    w.i64(m.view)
    _write_share(w, m.share)
    _write_cert(w, m.qc_high)


def _dec_fallback_timeout(r: _Reader) -> FallbackTimeout:
    r.skip_zeros(SIGNATURE_WIRE_SIZE)
    return FallbackTimeout(
        view=r.i64(),
        share=_read_share(r),
        qc_high=_read_cert_of(r, QC, EndorsedFallbackQC),
    )


def _enc_fallback_tc(w: _Writer, m: FallbackTCMessage) -> None:
    _write_cert(w, m.ftc)


def _dec_fallback_tc(r: _Reader) -> FallbackTCMessage:
    return FallbackTCMessage(ftc=_read_cert_of(r, FallbackTC))


def _enc_fallback_proposal(w: _Writer, m: FallbackProposal) -> None:
    w.pad(SIGNATURE_WIRE_SIZE)
    _write_block(w, m.fblock)
    if m.ftc is None:
        w.u8(0)
    else:
        w.u8(1)
        _write_cert(w, m.ftc)


def _dec_fallback_proposal(r: _Reader) -> FallbackProposal:
    r.skip_zeros(SIGNATURE_WIRE_SIZE)
    fblock = _read_block_of(r, FallbackBlock)
    ftc = _read_cert_of(r, FallbackTC) if r.u8() else None
    return FallbackProposal(fblock=fblock, ftc=ftc)


def _enc_fallback_vote(w: _Writer, m: FallbackVote) -> None:
    w.digest(m.block_id)
    w.i64(m.round)
    w.i64(m.view)
    w.i64(m.height)
    w.i64(m.proposer)
    _write_share(w, m.share)


def _dec_fallback_vote(r: _Reader) -> FallbackVote:
    return FallbackVote(
        block_id=r.digest(),
        round=r.i64(),
        view=r.i64(),
        height=r.i64(),
        proposer=r.i64(),
        share=_read_share(r),
    )


def _enc_fallback_qc(w: _Writer, m: FallbackQCMessage) -> None:
    w.pad(SIGNATURE_WIRE_SIZE)
    _write_cert(w, m.fqc)


def _dec_fallback_qc(r: _Reader) -> FallbackQCMessage:
    r.skip_zeros(SIGNATURE_WIRE_SIZE)
    return FallbackQCMessage(fqc=_read_cert_of(r, FallbackQC))


def _enc_coin_share(w: _Writer, m: CoinShareMessage) -> None:
    _write_coin_share(w, m.share)


def _dec_coin_share(r: _Reader) -> CoinShareMessage:
    return CoinShareMessage(share=_read_coin_share(r))


def _enc_coin_qc(w: _Writer, m: CoinQCMessage) -> None:
    _write_cert(w, m.coin_qc)


def _dec_coin_qc(r: _Reader) -> CoinQCMessage:
    return CoinQCMessage(coin_qc=_read_cert_of(r, CoinQC))


def _enc_block_request(w: _Writer, m: BlockRequest) -> None:
    w.digest(m.block_id)


def _dec_block_request(r: _Reader) -> BlockRequest:
    return BlockRequest(block_id=r.digest())


def _enc_block_response(w: _Writer, m: BlockResponse) -> None:
    _write_block(w, m.block)


def _dec_block_response(r: _Reader) -> BlockResponse:
    return BlockResponse(block=_read_block(r))


def _enc_chain_request(w: _Writer, m: ChainRequest) -> None:
    w.digest(m.block_id)
    w.u32(m.max_blocks)


def _dec_chain_request(r: _Reader) -> ChainRequest:
    return ChainRequest(block_id=r.digest(), max_blocks=r.u32())


def _enc_chain_response(w: _Writer, m: ChainResponse) -> None:
    if len(m.blocks) > 0xFFFF:
        raise EncodeError(f"chain response too large: {len(m.blocks)} blocks")
    w.u16(len(m.blocks))
    for block in m.blocks:
        _write_block(w, block)


def _dec_chain_response(r: _Reader) -> ChainResponse:
    count = r.u16()
    return ChainResponse(blocks=tuple(_read_block(r) for _ in range(count)))


def _enc_client_request(w: _Writer, m: ClientRequest) -> None:
    _write_transaction(w, m.transaction)


def _dec_client_request(r: _Reader) -> ClientRequest:
    return ClientRequest(transaction=_read_transaction(r))


def _enc_client_reply(w: _Writer, m: ClientReply) -> None:
    w.string(m.tx_id)
    w.i64(m.position)
    w.digest(m.block_id)
    w.i64(m.replica)


def _dec_client_reply(r: _Reader) -> ClientReply:
    return ClientReply(
        tx_id=r.string(), position=r.i64(), block_id=r.digest(), replica=r.i64()
    )


# ----------------------------------------------------------------------
# Type-tag registry
# ----------------------------------------------------------------------
_MESSAGE_TAGS: dict[type[object], int] = {}
_BODY_ENCODERS: dict[type[object], Callable[[_Writer, object], None]] = {}
_BODY_DECODERS: dict[int, Callable[[_Reader], object]] = {}


def register_message(
    message_type: type[object],
    tag: int,
    encode_body: Callable[[_Writer, object], None],
    decode_body: Callable[[_Reader], object],
    _core: bool = False,
) -> None:
    """Register a message type under a wire tag.

    Core protocol messages own tags 1-127 (assigned below, never at call
    sites); external callers registering extension messages must use tags
    in [128, 255].  Tags and types are both single-assignment — re-binding
    either raises, because silently renumbering a live wire format is how
    incompatible peers happen.
    """
    if not 1 <= tag <= 0xFF:
        raise ValueError(f"tag {tag} out of range 1..255")
    if not _core and tag < EXTENSION_TAG_BASE:
        raise ValueError(
            f"tags below {EXTENSION_TAG_BASE} are reserved for core messages"
        )
    if tag in _BODY_DECODERS:
        raise ValueError(f"tag {tag} already registered")
    if message_type in _MESSAGE_TAGS:
        raise ValueError(f"{message_type.__name__} already registered")
    _MESSAGE_TAGS[message_type] = tag
    _BODY_ENCODERS[message_type] = encode_body
    _BODY_DECODERS[tag] = decode_body


def unregister_message(message_type: type[object]) -> None:
    """Remove an extension registration (tests only; core tags are fixed)."""
    tag = _MESSAGE_TAGS.pop(message_type, None)
    if tag is None:
        return
    if tag < EXTENSION_TAG_BASE:
        _MESSAGE_TAGS[message_type] = tag
        raise ValueError("core message registrations cannot be removed")
    _BODY_ENCODERS.pop(message_type, None)
    _BODY_DECODERS.pop(tag, None)


def has_codec_entry(message_type: type[object]) -> bool:
    """True if the codec can encode/decode this message type."""
    return message_type in _MESSAGE_TAGS


_CORE_MESSAGES = (
    (Proposal, 1, _enc_proposal, _dec_proposal),
    (Vote, 2, _enc_vote, _dec_vote),
    (PacemakerTimeout, 3, _enc_pacemaker_timeout, _dec_pacemaker_timeout),
    (PacemakerTCMessage, 4, _enc_pacemaker_tc, _dec_pacemaker_tc),
    (FallbackTimeout, 5, _enc_fallback_timeout, _dec_fallback_timeout),
    (FallbackTCMessage, 6, _enc_fallback_tc, _dec_fallback_tc),
    (FallbackProposal, 7, _enc_fallback_proposal, _dec_fallback_proposal),
    (FallbackVote, 8, _enc_fallback_vote, _dec_fallback_vote),
    (FallbackQCMessage, 9, _enc_fallback_qc, _dec_fallback_qc),
    (CoinShareMessage, 10, _enc_coin_share, _dec_coin_share),
    (CoinQCMessage, 11, _enc_coin_qc, _dec_coin_qc),
    (BlockRequest, 12, _enc_block_request, _dec_block_request),
    (BlockResponse, 13, _enc_block_response, _dec_block_response),
    (ChainRequest, 14, _enc_chain_request, _dec_chain_request),
    (ChainResponse, 15, _enc_chain_response, _dec_chain_response),
    (ClientRequest, 16, _enc_client_request, _dec_client_request),
    (ClientReply, 17, _enc_client_reply, _dec_client_reply),
)

for _cls, _tag, _enc, _dec in _CORE_MESSAGES:
    register_message(_cls, _tag, _enc, _dec, _core=True)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def encode_message(sender: int, message: object) -> bytes:
    """Encode ``message`` from ``sender`` into canonical wire bytes."""
    encoder = _BODY_ENCODERS.get(type(message))
    if encoder is None:
        raise EncodeError(f"no codec entry for {type(message).__name__}")
    w = _Writer()
    w.u8(WIRE_VERSION)
    w.u8(_MESSAGE_TAGS[type(message)])
    w.i16(sender)
    w.pad(4)   # reserved
    w.pad(16)  # auth slot (channel MAC in a real deployment)
    encoder(w, message)
    return bytes(w.buf)


def decode_message(data: bytes) -> tuple[int, object]:
    """Decode wire bytes into ``(sender, message)``.

    Raises :class:`DecodeError` on any malformation: unsupported version,
    unknown type tag, truncation, trailing bytes, nonzero reserved padding,
    invalid nested structures, or a block id that does not match its
    contents.
    """
    r = _Reader(data)
    try:
        version = r.u8()
        if version != WIRE_VERSION:
            raise DecodeError(f"unsupported wire version {version}")
        tag = r.u8()
        decoder = _BODY_DECODERS.get(tag)
        if decoder is None:
            raise DecodeError(f"unknown message type tag {tag}")
        sender = r.i16()
        r.skip_zeros(4)
        r.skip_zeros(16)
        message = decoder(r)
        r.expect_end()
    except DecodeError:
        raise
    except (ValueError, OverflowError, struct.error) as exc:
        # Constructor validation (e.g. endorsement view mismatch, fallback
        # height < 1) rejecting decoded content is a wire-format error.
        raise DecodeError(str(exc)) from exc
    return sender, message


def encoded_size(message: object, sender: int = 0) -> int:
    """Real encoded byte count of ``message`` (excluding stream framing)."""
    return len(encode_message(sender, message))


def try_encoded_size(message: object, sender: int = 0) -> Optional[int]:
    """``encoded_size`` if the codec knows this type, else ``None``."""
    if type(message) not in _MESSAGE_TAGS:
        return None
    try:
        return encoded_size(message, sender)
    except EncodeError:
        return None
