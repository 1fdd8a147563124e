"""Wire subsystem: deterministic binary codec + length-prefixed framing.

``repro.wire.codec`` turns every protocol message (and the certificates,
blocks and transactions inside them) into canonical versioned bytes and
back; ``repro.wire.framing`` delimits those byte strings on a stream
transport.  The live runtime (`repro.runtime.live`) ships codec output over
real TCP sockets.  The simulator never encodes: it bills each message at
``FRAME_HEADER_SIZE + encoded_size(message)``, which the codec table
computes without encoding and which equals the framed bytes live mode
ships.
"""

from repro.wire.codec import (
    CodecError,
    DecodeError,
    EncodeError,
    WIRE_VERSION,
    decode_message,
    encode_message,
    encoded_size,
)
from repro.wire.framing import (
    FRAME_HEADER_SIZE,
    MAX_FRAME_SIZE,
    FrameDecoder,
    FrameError,
    encode_frame,
)

__all__ = [
    "CodecError",
    "DecodeError",
    "EncodeError",
    "WIRE_VERSION",
    "decode_message",
    "encode_message",
    "encoded_size",
    "FRAME_HEADER_SIZE",
    "MAX_FRAME_SIZE",
    "FrameDecoder",
    "FrameError",
    "encode_frame",
]
