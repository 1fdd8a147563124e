"""Codec round-trips and hardening against malformed bytes."""

import pytest

from repro.net.network import Network, billed_size
from repro.sim.scheduler import Scheduler
from repro.types.messages import Message, Vote
from repro.wire.codec import (
    MESSAGE_OVERHEAD,
    MESSAGE_TABLE,
    DecodeError,
    EncodeError,
    WIRE_VERSION,
    decode_message,
    encode_message,
    encoded_size,
)
from repro.wire.framing import FRAME_HEADER_SIZE


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
TABLE_TYPES = {cls for cls, _ in MESSAGE_TABLE.values()}


def _message_classes():
    """Every ``Message`` subclass the package defines (the codec imports
    both modules that define them)."""
    found, pending = set(), [Message]
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("repro."):
                found.add(cls)
    return found


@pytest.mark.parametrize(
    "message_type",
    sorted(_message_classes() | TABLE_TYPES, key=lambda cls: cls.__name__),
    ids=lambda cls: cls.__name__,
)
def test_message_type_has_a_table_entry_and_a_round_tripping_sample(
    message_type, samples
):
    name = message_type.__name__
    assert message_type in TABLE_TYPES, f"{name} has no MESSAGE_TABLE entry"
    cases = [m for m in samples["messages"] if type(m) is message_type]
    assert cases, f"no tests/wire/conftest.py sample of {name}"
    for message in cases:
        assert decode_message(encode_message(7, message)) == (7, message)


def test_every_message_type_round_trips(samples):
    for message in samples["messages"]:
        data = encode_message(7, message)
        sender, decoded = decode_message(data)
        assert sender == 7, type(message).__name__
        assert decoded == message, type(message).__name__
        assert type(decoded) is type(message)


def test_encoding_is_deterministic(samples):
    for message in samples["messages"]:
        assert encode_message(3, message) == encode_message(3, message)


def test_encoded_size_matches_actual_bytes(samples):
    for message in samples["messages"]:
        assert encoded_size(message) == len(encode_message(2, message))


def test_billed_size_is_the_framed_encoding(samples):
    network = Network(Scheduler(seed=1))
    for message in samples["messages"]:
        framed = FRAME_HEADER_SIZE + len(encode_message(7, message))
        assert billed_size(message, network) == framed, type(message).__name__
    assert network.untyped_messages == 0


def test_encoded_size_refuses_unknown_types():
    with pytest.raises(EncodeError, match="no codec entry"):
        encoded_size(object())


def test_envelope_equals_modeled_overhead(samples):
    # The codec envelope is exactly MESSAGE_OVERHEAD bytes.
    vote = next(m for m in samples["messages"] if isinstance(m, Vote))
    body = len(encode_message(0, vote)) - MESSAGE_OVERHEAD
    assert body > 0
    data = encode_message(0, vote)
    assert data[0] == WIRE_VERSION
    # sender occupies bytes 2..3 (i16 big-endian)
    assert int.from_bytes(data[2:4], "big", signed=True) == 0


def test_sender_range_round_trips(samples):
    vote = next(m for m in samples["messages"] if isinstance(m, Vote))
    for sender in (0, 1, 127, 32767, -1):
        assert decode_message(encode_message(sender, vote))[0] == sender


def test_decoded_blocks_preserve_content_hash(samples):
    from repro.types.messages import BlockResponse

    data = encode_message(1, BlockResponse(block=samples["block"]))
    _, decoded = decode_message(data)
    assert decoded.block.id == samples["block"].id


# ----------------------------------------------------------------------
# Hardening: every malformation raises DecodeError, nothing else
# ----------------------------------------------------------------------
def test_unknown_type_tag_rejected(samples):
    data = bytearray(encode_message(0, samples["messages"][0]))
    data[1] = 0xFE  # no table entry
    with pytest.raises(DecodeError, match="unknown message type tag"):
        decode_message(bytes(data))


def test_wrong_version_rejected(samples):
    data = bytearray(encode_message(0, samples["messages"][0]))
    data[0] = WIRE_VERSION + 1
    with pytest.raises(DecodeError, match="version"):
        decode_message(bytes(data))


def test_empty_and_tiny_inputs_rejected():
    for data in (b"", b"\x01", b"\x01\x02\x00"):
        with pytest.raises(DecodeError):
            decode_message(data)


def test_trailing_bytes_rejected(samples):
    data = encode_message(0, samples["messages"][0])
    with pytest.raises(DecodeError, match="trailing"):
        decode_message(data + b"\x00")


def test_nonzero_reserved_padding_rejected(samples):
    data = bytearray(encode_message(0, samples["messages"][0]))
    data[5] = 0xAA  # inside the 4-byte reserved envelope slot
    with pytest.raises(DecodeError):
        decode_message(bytes(data))


def test_every_strict_prefix_rejected(samples):
    """Truncation anywhere raises DecodeError (never a wrong object)."""
    vote = next(m for m in samples["messages"] if isinstance(m, Vote))
    data = encode_message(0, vote)
    for cut in range(len(data)):
        with pytest.raises(DecodeError):
            decode_message(data[:cut])


def test_block_id_tamper_rejected(samples):
    from repro.types.messages import BlockResponse

    data = bytearray(encode_message(0, BlockResponse(block=samples["block"])))
    # The shipped block id starts right after the envelope + block tag.
    data[MESSAGE_OVERHEAD + 1] ^= 0xFF
    with pytest.raises(DecodeError, match="block id"):
        decode_message(bytes(data))


def test_constructor_validation_surfaces_as_decode_error(samples):
    """An endorsement whose inner views disagree is a wire-format error."""
    from repro.types.messages import PacemakerTimeout

    message = next(
        m
        for m in samples["messages"]
        if isinstance(m, PacemakerTimeout) and type(m.qc_high).__name__ != "QC"
    )
    data = bytearray(encode_message(0, message))
    # Corrupting bytes inside the endorsed certificate (view numbers) must
    # yield DecodeError, never a bare ValueError from __post_init__.
    for offset in range(MESSAGE_OVERHEAD, len(data)):
        mutated = bytearray(data)
        mutated[offset] ^= 0x01
        try:
            decode_message(bytes(mutated))
        except DecodeError:
            pass  # expected for most offsets
        except Exception as exc:  # pragma: no cover - the failure we guard
            pytest.fail(f"offset {offset} raised {type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# Canonical signer tuples and the shared empty batch
# ----------------------------------------------------------------------
def _ftc_message(signers):
    from repro.crypto.threshold import ThresholdSignature
    from repro.types.certificates import FallbackTC
    from repro.types.messages import FallbackTCMessage

    signature = ThresholdSignature(epoch=3, tag="ab" * 16, signers=signers)
    return FallbackTCMessage(ftc=FallbackTC(view=2, signature=signature))


#: A three-signer list on the wire: u16 count, then u16 per signer.
_SIGNERS_012 = b"\x00\x03\x00\x00\x00\x01\x00\x02"


def test_signers_in_any_order_canonicalise():
    messages = [_ftc_message(order) for order in ([2, 0, 1], (1, 2, 0), {0, 1, 2})]
    assert {m.ftc.signature.signers for m in messages} == {(0, 1, 2)}
    encodings = {encode_message(0, m) for m in messages}
    assert len(encodings) == 1
    assert all(m == messages[0] and hash(m) == hash(messages[0]) for m in messages)

    # Only the sorted form is accepted on the wire: unsorted signers would
    # decode to the same object but re-encode to other bytes.
    [data] = encodings
    assert data.count(_SIGNERS_012) == 1
    shuffled = data.replace(_SIGNERS_012, b"\x00\x03\x00\x02\x00\x00\x00\x01")
    with pytest.raises(DecodeError, match="out of order"):
        decode_message(shuffled)


def test_duplicate_signers_on_the_wire_rejected():
    data = encode_message(0, _ftc_message((0, 1, 2)))
    duplicated = data.replace(_SIGNERS_012, b"\x00\x03\x00\x01\x00\x01\x00\x02")
    with pytest.raises(DecodeError, match="duplicate signer"):
        decode_message(duplicated)


def test_empty_batch_decodes_to_the_shared_instance(samples):
    from repro.types.blocks import Block
    from repro.types.messages import Proposal
    from repro.types.transactions import EMPTY_BATCH, Batch

    block = samples["block"]
    for batch in (EMPTY_BATCH, Batch.of([])):
        empty = Block(qc=block.qc, round=9, view=1, batch=batch, author=1)
        data = encode_message(0, Proposal(block=empty))
        _, decoded = decode_message(data)
        assert decoded.block.batch is EMPTY_BATCH
        assert decoded.block.id == empty.id
        assert encode_message(0, decoded) == data


def test_unencodable_message_raises_encode_error():
    class Mystery:
        pass

    with pytest.raises(EncodeError, match="no codec entry"):
        encode_message(0, Mystery())
