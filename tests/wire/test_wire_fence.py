"""Byte fence: the codec's exact output over real protocol traffic.

Runs the four tier-1 fingerprint scenarios at seed 1 with every network
send recorded, then feeds one SHA-256 with the encoding of each recorded
message (a multicast counts once) followed by every shared wire sample.
The pinned digest changes only if some message encodes to different bytes,
so any rewrite of the codec that keeps this test green keeps the wire
format byte-identical.  Each recorded message must also round-trip, and
the size the simulator billed it must be its framed encoding.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from repro.net.network import Network, billed_size
from repro.net.reliable import ReliableNetwork
from repro.sim.scheduler import Scheduler
from repro.types.messages import FallbackProposal, Proposal
from repro.wire.codec import (
    DIGEST_WIRE_SIZE,
    MESSAGE_OVERHEAD,
    SIGNATURE_WIRE_SIZE,
    DecodeError,
    decode_message,
    encode_message,
)
from repro.wire.framing import FRAME_HEADER_SIZE

_BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

from bench_simcore import run_scenario  # noqa: E402

SCENARIOS = ("fallback-n4", "lossy20-n4", "steady-n4", "steady-n16")

#: SHA-256 over every encoding above.  It moves when the codec changes
#: (a wire-format change: bump ``WIRE_VERSION`` and re-record) or when the
#: scenarios send other messages (a protocol change, with ``repro.wire``
#: untouched and the same message count).
FENCE_DIGEST = "4cf83bb1b5b317602dc46fc8934c01f061395409d3fd48531d25e274c2dc74fa"


@pytest.fixture(scope="module")
def sent() -> list[tuple[int, object]]:
    """Every wire send of the four scenarios at seed 1, each kept once."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        sent = _record_sends(monkeypatch)
        for name in SCENARIOS:
            run_scenario(name, seed=1)
    return sent


def _record_sends(monkeypatch) -> list[tuple[int, object]]:
    """Wrap ``send`` on both network classes; keep each wire send once.

    Self-deliveries never reach the wire, and skipping them also keeps a
    reliable network's self-send (which goes through the base class) from
    being recorded twice.
    """
    sent: list[tuple[int, object]] = []

    for cls in (Network, ReliableNetwork):
        original = cls.__dict__["send"]

        def send(self, sender, receiver, message, _original=original):
            if receiver != sender:
                last = sent[-1] if sent else None
                if last is None or last[0] != sender or last[1] is not message:
                    sent.append((sender, message))
            _original(self, sender, receiver, message)

        monkeypatch.setattr(cls, "send", send)
    return sent


def test_encoded_bytes_match_the_pinned_digest(sent, samples):
    digest = hashlib.sha256()
    for sender, message in sent:
        data = encode_message(sender, message)
        assert decode_message(data) == (sender, message)
        digest.update(data)
    for message in samples["messages"]:
        digest.update(encode_message(7, message))
    assert len(sent) > 10_000
    assert digest.hexdigest() == FENCE_DIGEST


def test_billed_size_is_the_framed_encoding_of_every_fence_message(sent):
    network = Network(Scheduler(seed=1))
    for sender, message in sent:
        framed = FRAME_HEADER_SIZE + len(encode_message(sender, message))
        assert billed_size(message, network) == framed, type(message).__name__
    assert network.untyped_messages == 0


def _presence_flag_offsets(samples) -> list[tuple[bytes, int]]:
    """Each optional field's presence flag in a sample that sets it.

    A block proposal's ``qc`` flag follows the envelope, the author
    signature slot, the block tag, the block id and the block's four
    fixed-width header fields; a fallback proposal's ``ftc`` flag is where
    the same proposal without its f-TC ends with a 0.
    """
    proposal, fallback = (
        next(m for m in samples["messages"] if test(m))
        for test in (
            lambda m: isinstance(m, Proposal) and m.block.qc is not None,
            lambda m: isinstance(m, FallbackProposal) and m.ftc is not None,
        )
    )
    qc_flag = MESSAGE_OVERHEAD + SIGNATURE_WIRE_SIZE + 1 + DIGEST_WIRE_SIZE + 4 * 8
    without_ftc = encode_message(7, FallbackProposal(fblock=fallback.fblock))
    return [
        (encode_message(7, proposal), qc_flag),
        (encode_message(7, fallback), len(without_ftc) - 1),
    ]


def test_presence_flags_other_than_0_or_1_are_rejected(samples):
    """One message, one encoding: a flag of 2..255 would decode to the same
    message as a flag of 1 and so give it 255 more wire forms."""
    for data, offset in _presence_flag_offsets(samples):
        assert data[offset] == 1
        decode_message(data)
        for flag in range(2, 256):
            forged = data[:offset] + bytes([flag]) + data[offset + 1:]
            with pytest.raises(DecodeError, match="presence flag"):
                decode_message(forged)
