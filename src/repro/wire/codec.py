"""Deterministic, versioned binary codec for every protocol message.

Every message in :mod:`repro.types.messages` (plus the client messages)
encodes to a canonical byte string and decodes back to an equal object:
``decode_message(encode_message(sender, m)) == (sender, m)``.  Decoding
accepts that form only (presence flags are 0 or 1, signers ascend), so
bytes that decode re-encode to themselves.  The format
is self-describing enough to be safely fed garbage — every frame starts
with a version byte and a type tag drawn from a closed table, all
variable-length fields are length-prefixed and bounds-checked, reserved
padding must be zero, and block ids are recomputed and compared on decode —
so unknown tags, truncation, trailing bytes and field corruption all raise
:class:`DecodeError` instead of producing a confused object (mirroring the
Flooder-garbage hardening in the simulator's validation layer).

Layout of one encoded message::

    version   u8     (WIRE_VERSION; bump on any layout change)
    type tag  u8     (MESSAGE_TABLE below)
    sender    i16
    reserved  4 B    (zeros)
    auth slot 16 B   (zeros; where a real deployment puts the channel MAC)
    body      the type's fields, in table order

One schema drives both directions: :data:`MESSAGE_TABLE` maps each tag to
its message type and that type's fields in wire order.  A field is a
:class:`_Codec` (``write``/``read``/``size``): a fixed-width integer,
digest, string, reserved zeros, optional, u16-counted sequence, record
padded to a slot, or tagged union restricted to given types — certificates
and blocks are unions with tables of their own.  Only the transaction and
the signer list are hand-written: each carries a rule that spans fields.

The same table sizes a message without encoding it: a fixed-width field
carries its width, a record of fixed fields folds to one constant when the
table is built, a union looks its member's size up by type, and a block
memoises its size in a slot.  :func:`encoded_size` therefore equals
``len(encode_message(sender, message))``, and it is the one size model:
the simulator bills every send at it (plus the stream frame header), as
live mode bills the bytes it actually ships.

The codec reserves *production-sized* slots for crypto objects — 96 B for
a combined threshold signature (BLS12-381-like), 48 B per share, 32 B per
digest, 96 B for a coin proof, 64 B for an author signature, 48 B for
certificate headers — carrying the simulation's smaller stand-ins inside
the slot with zero padding, so byte counts track what a real deployment
would put on the wire.  A combined signature also ships its signer list,
which outgrows the 96-byte slot beyond 27 signers.

Versioning rules: the version byte covers the entire layout.  Any change
to field order, widths, slot sizes or tag meanings bumps ``WIRE_VERSION``;
decoders reject other versions outright (no in-band negotiation — version
agreement is a deployment concern).  New message types take fresh tags
without a version bump; reusing or renumbering a tag bumps
``WIRE_VERSION``.

Integers are 8-byte signed big-endian throughout; strings are u16
length-prefixed UTF-8; digests ship as 16 raw bytes (the in-memory hex id)
padded to the 32-byte digest slot.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, NamedTuple, Optional, Union

from repro.client.client import ClientReply, ClientRequest
from repro.crypto.coin import CoinShare
from repro.crypto.threshold import ThresholdSignature, ThresholdSignatureShare
from repro.types.blocks import Block, FallbackBlock
from repro.types.certificates import (
    QC, CoinQC, EndorsedFallbackQC, FallbackQC, FallbackTC, TimeoutCertificate,
)
from repro.types.messages import (
    BlockRequest, BlockResponse, ChainRequest, ChainResponse, CoinQCMessage,
    CoinShareMessage, FallbackProposal, FallbackQCMessage,
    FallbackTCMessage, FallbackTimeout, FallbackVote, PacemakerTCMessage,
    PacemakerTimeout, Proposal, Vote,
)
from repro.types.transactions import EMPTY_BATCH, Batch, Transaction

#: Bump on ANY layout change (see module docstring for the rules).
WIRE_VERSION = 1

#: The envelope ahead of every body: version, tag, sender, reserved, auth.
MESSAGE_OVERHEAD = 1 + 1 + 2 + 4 + 16

#: Production-sized slots, in bytes: a digest, an author signature
#: (Ed25519), a combined threshold signature (BLS12-381), a certificate
#: header and a coin-QC.
DIGEST_WIRE_SIZE = 32
SIGNATURE_WIRE_SIZE = 64
THRESHOLD_SIG_WIRE_SIZE = 96
CERT_HEADER_WIRE_SIZE = 48
COIN_QC_WIRE_SIZE = 96

#: Raw digest bytes actually carried inside the 32-byte digest slot.
_DIGEST_RAW_SIZE = 16


class CodecError(ValueError):
    """Base class for codec failures."""


class EncodeError(CodecError):
    """An object cannot be rendered in the wire format."""


class DecodeError(CodecError):
    """Bytes do not parse as a well-formed wire message."""


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> int:
        """Claim the next ``count`` bytes; returns their start offset."""
        start = self.pos
        end = start + count
        if end > len(self.data):
            raise DecodeError(f"truncated: need {count} bytes at offset {start}")
        self.pos = end
        return start


class _Codec(NamedTuple):
    """One field's wire form: append a value to a buffer, read one back,
    and the encoded length — an int for a fixed-width field, else a
    function of the value."""

    write: Callable[[bytearray, Any], None]
    read: Callable[[_Reader], Any]
    size: Union[int, Callable[[Any], int]]


def _sizer(codec: _Codec) -> Callable[[Any], int]:
    """``codec.size`` as a function of the value."""
    size = codec.size
    if isinstance(size, int):
        return lambda _value: size
    return size


#: One record field: attribute name (None for reserved bytes) and codec.
_Field = tuple[Optional[str], _Codec]


# ----------------------------------------------------------------------
# Primitive codecs
# ----------------------------------------------------------------------
def _number(fmt: str, label: str) -> _Codec:
    packer = struct.Struct(fmt)
    pack, unpack_from, size = packer.pack, packer.unpack_from, packer.size

    def write(buf: bytearray, value: Any) -> None:
        try:
            buf += pack(value)
        except struct.error as exc:
            raise EncodeError(f"{label} out of range: {value}") from exc

    def read(r: _Reader) -> Any:
        # A short buffer raises struct.error, which decode_message reports.
        value = unpack_from(r.data, r.pos)[0]
        r.pos += size
        return value

    return _Codec(write, read, size)


_U8 = _number(">B", "u8")
_U16 = _number(">H", "u16")
_U32 = _number(">I", "u32")
_I16 = _number(">h", "i16")
_I64 = _number(">q", "i64")
_F64 = _number(">d", "f64")


def _skip_zeros(r: _Reader, count: int) -> None:
    start = r.take(count)
    if r.data.count(0, start, start + count) != count:
        raise DecodeError("nonzero bytes in reserved padding")


def _zeros(count: int) -> _Codec:
    """Reserved bytes: written as zeros, rejected unless zero on read."""
    padding = bytes(count)
    return _Codec(
        lambda buf, _: buf.extend(padding), lambda r: _skip_zeros(r, count), count
    )


_DIGEST_PAD = DIGEST_WIRE_SIZE - _DIGEST_RAW_SIZE
_DIGEST_PADDING = bytes(_DIGEST_PAD)


def _write_digest(buf: bytearray, value: Any) -> None:
    try:
        raw = bytes.fromhex(value)
    except (ValueError, TypeError) as exc:
        raise EncodeError(f"digest is not hex: {value!r}") from exc
    if len(raw) != _DIGEST_RAW_SIZE:
        raise EncodeError(f"digest is {len(raw)} raw bytes, not {_DIGEST_RAW_SIZE}")
    buf += raw
    buf += _DIGEST_PADDING


def _read_digest(r: _Reader) -> str:
    start = r.take(_DIGEST_RAW_SIZE)
    _skip_zeros(r, _DIGEST_PAD)
    return r.data[start:start + _DIGEST_RAW_SIZE].hex()


_DIGEST = _Codec(_write_digest, _read_digest, DIGEST_WIRE_SIZE)

#: A block's id: shipped as a digest, recomputed from the decoded fields
#: and compared, so a block cannot smuggle a mismatched identity.
_BLOCK_ID = _Codec(_write_digest, _read_digest, DIGEST_WIRE_SIZE)


def _write_string(buf: bytearray, value: Any) -> None:
    encoded = value.encode("utf-8")
    _U16.write(buf, len(encoded))  # rejects strings over 65 535 bytes
    buf += encoded


def _read_string(r: _Reader) -> str:
    length = _U16.read(r)
    start = r.take(length)
    try:
        return r.data[start:start + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"invalid UTF-8 in string field: {exc}") from exc


def _string_size(value: str) -> int:
    return 2 + len(value.encode("utf-8"))


_STRING = _Codec(_write_string, _read_string, _string_size)


# ----------------------------------------------------------------------
# Combinators
# ----------------------------------------------------------------------
def _optional(codec: _Codec) -> _Codec:
    """A u8 presence flag, then the value if the flag is set."""
    write_value, read_value, _ = codec
    size_value = _sizer(codec)

    def write(buf: bytearray, value: Any) -> None:
        if value is None:
            buf.append(0)
        else:
            buf.append(1)
            write_value(buf, value)

    def read(r: _Reader) -> Any:
        flag = _U8.read(r)
        if flag > 1:
            raise DecodeError(f"presence flag {flag} is neither 0 nor 1")
        return read_value(r) if flag else None

    return _Codec(
        write, read, lambda value: 1 if value is None else 1 + size_value(value)
    )


def _sequence(item: _Codec) -> _Codec:
    """A u16 count, then that many items; decodes to a tuple."""
    write_item, read_item, item_size = item

    def write(buf: bytearray, values: Any) -> None:
        _U16.write(buf, len(values))  # rejects more than 65 535 items
        for value in values:
            write_item(buf, value)

    def read(r: _Reader) -> tuple[Any, ...]:
        return tuple([read_item(r) for _ in range(_U16.read(r))])

    if isinstance(item_size, int):
        return _Codec(write, read, lambda values: 2 + item_size * len(values))
    return _Codec(write, read, lambda values: 2 + sum(map(item_size, values)))


def _padded(codec: _Codec, slot: int) -> _Codec:
    """``codec`` followed by zeros up to ``slot`` bytes (none if it is longer)."""
    write_value, read_value, value_size = codec

    def write(buf: bytearray, value: Any) -> None:
        start = len(buf)
        write_value(buf, value)
        buf += bytes(max(0, slot - (len(buf) - start)))

    def read(r: _Reader) -> Any:
        start = r.pos
        value = read_value(r)
        _skip_zeros(r, max(0, slot - (r.pos - start)))
        return value

    if isinstance(value_size, int):
        return _Codec(write, read, max(slot, value_size))
    return _Codec(write, read, lambda value: max(slot, value_size(value)))


def _record(cls: type[Any], fields: tuple[_Field, ...]) -> _Codec:
    """``fields`` in order; decodes by calling ``cls`` with the named values.

    A :data:`_BLOCK_ID` field is not a constructor argument: the decoded
    object recomputes it and must agree with what was shipped.  When every
    field is fixed-width the record's size folds to one constant.
    """
    writers = tuple((name, codec.write) for name, codec in fields)
    readers = tuple((name, codec.read) for name, codec in fields)
    shipped = next((name for name, codec in fields if codec is _BLOCK_ID), None)
    fixed = sum(codec.size for _, codec in fields if isinstance(codec.size, int))
    variable = tuple(
        (name, codec.size) for name, codec in fields if not isinstance(codec.size, int)
    )

    def write(buf: bytearray, value: Any) -> None:
        for name, write_field in writers:
            write_field(buf, getattr(value, name) if name else None)

    def read(r: _Reader) -> Any:
        values: dict[Any, Any] = {}
        for name, read_field in readers:  # a plain loop: no comprehension frame
            values[name] = read_field(r)
        values.pop(None, None)
        if shipped is None:
            return cls(**values)
        shipped_value = values.pop(shipped)
        value = cls(**values)
        if getattr(value, shipped) != shipped_value:
            raise DecodeError("block id does not match block contents")
        return value

    def size(value: Any) -> int:
        total = fixed
        for name, size_field in variable:
            total += size_field(getattr(value, name))
        return total

    return _Codec(write, read, size if variable else fixed)


#: A tag table: tag -> (type, fields in wire order).
_Table = dict[int, tuple[type[Any], tuple[_Field, ...]]]


class _Union:
    """Types distinguished by a u8 tag, each encoded as a :func:`_record`."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.by_type: dict[type[Any], tuple[int, _Codec]] = {}
        self.by_tag: dict[int, tuple[type[Any], _Codec]] = {}
        #: Type -> its record's size as a function of the value.
        self.sizes: dict[type[Any], Callable[[Any], int]] = {}

    def define(self, table: _Table) -> _Table:
        for tag, (cls, fields) in table.items():
            codec = _record(cls, fields)
            self.by_type[cls] = (tag, codec)
            self.by_tag[tag] = (cls, codec)
            self.sizes[cls] = _sizer(codec)
        return table

    def of(self, *types: type[Any]) -> _Codec:
        """Tag then record; decoding rejects tags outside ``types`` (if any).

        Encoding accepts any member, so a peer that sends a certificate of
        the wrong kind is refused by the receiver, not by its own encoder.
        """
        kind, by_type, by_tag, sizes = self.kind, self.by_type, self.by_tag, self.sizes
        expected = "/".join(cls.__name__ for cls in types)

        def write(buf: bytearray, value: Any) -> None:
            entry = by_type.get(type(value))
            if entry is None:
                raise EncodeError(f"unencodable {kind} type {type(value).__name__}")
            buf.append(entry[0])
            entry[1].write(buf, value)

        def read(r: _Reader) -> Any:
            tag = _U8.read(r)
            entry = by_tag.get(tag)
            if entry is None:
                raise DecodeError(f"unknown {kind} tag {tag}")
            if types and entry[0] not in types:
                raise DecodeError(
                    f"{kind} of type {entry[0].__name__} where {expected} required"
                )
            return entry[1].read(r)

        return _Codec(write, read, lambda value: 1 + sizes[type(value)](value))


# ----------------------------------------------------------------------
# Hand-written codecs: rules that span fields
# ----------------------------------------------------------------------
_U16_SEQUENCE = _sequence(_U16)


def _read_signers(r: _Reader) -> tuple[int, ...]:
    # A signature stores its signers sorted, so only ascending order
    # re-encodes to the same bytes (and duplicates are refused with it).
    signers: tuple[int, ...] = _U16_SEQUENCE.read(r)
    for lower, higher in zip(signers, signers[1:]):
        if lower == higher:
            raise DecodeError("duplicate signer in threshold signature")
        if lower > higher:
            raise DecodeError("threshold signature signers out of order")
    return signers


_SIGNERS = _Codec(_U16_SEQUENCE.write, _read_signers, _U16_SEQUENCE.size)


def _write_transaction(buf: bytearray, tx: Any) -> None:
    _STRING.write(buf, tx.tx_id)
    _I64.write(buf, tx.client)
    _I64.write(buf, tx.payload_size)
    _F64.write(buf, tx.submitted_at)
    start = len(buf)
    _STRING.write(buf, tx.payload)
    # The wire carries the full modeled payload volume: the simulation's
    # payload string is a small stand-in for a payload_size-byte command
    # body, so the slot is padded out to payload_size bytes.
    buf += bytes(max(0, tx.payload_size - (len(buf) - start - 2)))


def _read_transaction(r: _Reader) -> Transaction:
    tx_id, client = _STRING.read(r), _I64.read(r)
    payload_size, submitted_at = _I64.read(r), _F64.read(r)
    start = r.pos
    payload = _STRING.read(r)
    _skip_zeros(r, max(0, payload_size - (r.pos - start - 2)))
    return Transaction(tx_id, client, payload, payload_size, submitted_at)


def _transaction_size(tx: Any) -> int:
    payload = len(tx.payload.encode("utf-8"))
    return _string_size(tx.tx_id) + 3 * 8 + 2 + max(payload, tx.payload_size)


_TRANSACTION = _Codec(_write_transaction, _read_transaction, _transaction_size)


# ----------------------------------------------------------------------
# The schema: nested values, then the message table
# ----------------------------------------------------------------------
_TRANSACTIONS = _sequence(_TRANSACTION)

#: The empty batch decodes to the shared ``EMPTY_BATCH`` instance.
_BATCH = _Codec(
    lambda buf, batch: _TRANSACTIONS.write(buf, batch.transactions),
    lambda r: Batch(txs) if (txs := _TRANSACTIONS.read(r)) else EMPTY_BATCH,
    lambda batch: _TRANSACTIONS.size(batch.transactions),
)

_THRESHOLD_SIG = _padded(_record(
    ThresholdSignature, (("epoch", _I64), ("tag", _DIGEST), ("signers", _SIGNERS))
), THRESHOLD_SIG_WIRE_SIZE)

_SHARE = _record(
    ThresholdSignatureShare, (("signer", _I64), ("epoch", _I64), ("tag", _DIGEST))
)

_COIN_SHARE = _record(CoinShare, (
    ("signer", _I64), ("view", _I64), ("epoch", _I64), ("tag", _DIGEST),
))

#: Zeros filling the certificate header slot for certs whose natural
#: header (one number) is smaller than the 48-byte slot — a production
#: TC carries the signers' high-round vector there.
_TC_HEADER_PAD = _zeros(CERT_HEADER_WIRE_SIZE - 8)

_CERTIFICATES = _Union("certificate")
_PARENT = _CERTIFICATES.of(QC, EndorsedFallbackQC)
_CERTIFICATES.define({
    1: (QC, (("block_id", _DIGEST), ("round", _I64), ("view", _I64),
             ("signature", _THRESHOLD_SIG))),
    2: (FallbackQC, (
        ("block_id", _DIGEST), ("round", _I64), ("view", _I64),
        ("height", _I64), ("proposer", _I64), ("signature", _THRESHOLD_SIG),
    )),
    3: (EndorsedFallbackQC, (("fqc", _CERTIFICATES.of(FallbackQC)),
                             ("coin_qc", _CERTIFICATES.of(CoinQC)))),
    4: (TimeoutCertificate, (
        ("round", _I64), (None, _TC_HEADER_PAD), ("signature", _THRESHOLD_SIG),
    )),
    5: (FallbackTC, (
        ("view", _I64), (None, _TC_HEADER_PAD), ("signature", _THRESHOLD_SIG),
    )),
    6: (CoinQC, (
        ("view", _I64), ("leader", _I64), ("proof_tag", _DIGEST),
        (None, _zeros(COIN_QC_WIRE_SIZE - 8 - 8 - DIGEST_WIRE_SIZE)),
    )),
})

_BLOCKS = _Union("block")
_BLOCKS.define({
    1: (Block, (
        ("id", _BLOCK_ID), ("round", _I64), ("view", _I64), ("author", _I64),
        (None, _zeros(8)),  # header slot reserve
        ("qc", _optional(_PARENT)), ("batch", _BATCH),
    )),
    2: (FallbackBlock, (
        ("id", _BLOCK_ID), ("round", _I64), ("view", _I64),
        (None, _zeros(16)),  # header slot reserve (author / metadata)
        ("height", _I64), ("proposer", _I64),
        ("qc", _CERTIFICATES.of(QC, EndorsedFallbackQC, FallbackQC)),
        ("batch", _BATCH),
    )),
})


def _memoized(size: Callable[[Any], int]) -> Callable[[Any], int]:
    """Size a block once: relays and sync responses resend the same object."""

    def memo(block: Any) -> int:
        value = block._encoded_size
        if value is None:
            value = size(block)
            object.__setattr__(block, "_encoded_size", value)
        return value

    return memo


_BLOCKS.sizes.update(
    {cls: _memoized(_BLOCKS.sizes[cls]) for cls in (Block, FallbackBlock)}
)

#: The author-signature slot that opens a signed message's body.
_AUTHOR_SIG: _Field = (None, _zeros(SIGNATURE_WIRE_SIZE))

_MESSAGES = _Union("message type")

#: tag -> (message type, fields in wire order): the whole wire schema.
MESSAGE_TABLE = _MESSAGES.define({
    1: (Proposal, (_AUTHOR_SIG, ("block", _BLOCKS.of(Block)))),
    2: (Vote, (("block_id", _DIGEST), ("round", _I64), ("view", _I64),
               ("share", _SHARE))),
    3: (PacemakerTimeout, (
        _AUTHOR_SIG, ("round", _I64), ("share", _SHARE), ("qc_high", _PARENT),
    )),
    4: (PacemakerTCMessage, (("tc", _CERTIFICATES.of(TimeoutCertificate)),
                             ("qc_high", _PARENT))),
    5: (FallbackTimeout, (
        _AUTHOR_SIG, ("view", _I64), ("share", _SHARE), ("qc_high", _PARENT),
    )),
    6: (FallbackTCMessage, (("ftc", _CERTIFICATES.of(FallbackTC)),)),
    7: (FallbackProposal, (
        _AUTHOR_SIG, ("fblock", _BLOCKS.of(FallbackBlock)),
        ("ftc", _optional(_CERTIFICATES.of(FallbackTC))),
    )),
    8: (FallbackVote, (
        ("block_id", _DIGEST), ("round", _I64), ("view", _I64),
        ("height", _I64), ("proposer", _I64), ("share", _SHARE),
    )),
    9: (FallbackQCMessage, (_AUTHOR_SIG, ("fqc", _CERTIFICATES.of(FallbackQC)))),
    10: (CoinShareMessage, (("share", _COIN_SHARE),)),
    11: (CoinQCMessage, (("coin_qc", _CERTIFICATES.of(CoinQC)),)),
    12: (BlockRequest, (("block_id", _DIGEST),)),
    13: (BlockResponse, (("block", _BLOCKS.of()),)),
    14: (ChainRequest, (("block_id", _DIGEST), ("max_blocks", _U32))),
    15: (ChainResponse, (("blocks", _sequence(_BLOCKS.of())),)),
    16: (ClientRequest, (("transaction", _TRANSACTION),)),
    17: (ClientReply, (("tx_id", _STRING), ("position", _I64),
                       ("block_id", _DIGEST), ("replica", _I64))),
})

#: The envelope's reserved bytes (4) and auth slot (16), after the sender.
_ENVELOPE_PAD = _zeros(4 + 16)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def encode_message(sender: int, message: object) -> bytes:
    """Encode ``message`` from ``sender`` into canonical wire bytes."""
    entry = _MESSAGES.by_type.get(type(message))
    if entry is None:
        raise EncodeError(f"no codec entry for {type(message).__name__}")
    tag, codec = entry
    buf = bytearray((WIRE_VERSION, tag))
    _I16.write(buf, sender)
    _ENVELOPE_PAD.write(buf, None)
    codec.write(buf, message)
    return bytes(buf)


def decode_message(data: bytes) -> tuple[int, object]:
    """Decode wire bytes into ``(sender, message)``.

    Raises :class:`DecodeError` on any malformation: unsupported version,
    unknown type tag, truncation, trailing bytes, nonzero reserved padding,
    invalid nested structures, or a block id that does not match its
    contents.
    """
    r = _Reader(data)
    try:
        version = _U8.read(r)
        if version != WIRE_VERSION:
            raise DecodeError(f"unsupported wire version {version}")
        tag = _U8.read(r)
        entry = _MESSAGES.by_tag.get(tag)
        if entry is None:
            raise DecodeError(f"unknown message type tag {tag}")
        sender = _I16.read(r)
        _ENVELOPE_PAD.read(r)
        message = entry[1].read(r)
        if r.pos != len(data):
            raise DecodeError(f"{len(data) - r.pos} trailing bytes after message body")
    except DecodeError:
        raise
    except (ValueError, OverflowError, struct.error) as exc:
        # Constructor validation (e.g. endorsement view mismatch, fallback
        # height < 1) rejecting decoded content is a wire-format error.
        raise DecodeError(str(exc)) from exc
    return sender, message


def encoded_size(message: object) -> int:
    """``len(encode_message(sender, message))`` for any sender, read off the
    table: nothing is encoded.  Excludes stream framing."""
    size = _MESSAGES.sizes.get(type(message))
    if size is None:
        raise EncodeError(f"no codec entry for {type(message).__name__}")
    return MESSAGE_OVERHEAD + size(message)
