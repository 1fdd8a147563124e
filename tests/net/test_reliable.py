"""Tests for the reliable-channel layer over a lossy transport."""

import pytest

from repro.net.conditions import SynchronousDelay
from repro.net.loss import IIDLoss, LossModel, NoLoss
from repro.net.reliable import (
    AckPacket,
    ChannelConfig,
    DataPacket,
    ReliableNetwork,
)
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler
from repro.types.messages import BlockRequest
from repro.wire.codec import encoded_size
from repro.wire.framing import FRAME_HEADER_SIZE


class Sink(Process):
    def __init__(self, process_id, scheduler):
        super().__init__(process_id, scheduler)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


class ScriptedLoss(LossModel):
    """Drops the Nth, N+1th, ... transmissions on a link (0-indexed),
    delivering everything else exactly once.  Deterministic by design."""

    def __init__(self, drop_indices):
        self.drop_indices = set(drop_indices)
        self.count = 0

    def copies(self, sender, receiver, message, now, rng):
        index = self.count
        self.count += 1
        return 0 if index in self.drop_indices else 1


def build(n=2, seed=1, loss=None, channel=None, delta=1.0):
    scheduler = Scheduler(seed=seed)
    network = ReliableNetwork(
        scheduler,
        SynchronousDelay(delta=delta, min_delay=0.1),
        loss_model=loss,
        channel=channel,
    )
    sinks = [Sink(i, scheduler) for i in range(n)]
    for sink in sinks:
        network.register(sink)
    return scheduler, network, sinks


def payloads(sink):
    return [m for _, m in sink.received]


# ----------------------------------------------------------------------
# Framing and transparency
# ----------------------------------------------------------------------
def test_receiver_sees_raw_payload_not_the_frame():
    scheduler, network, sinks = build()
    network.send(0, 1, "hello")
    scheduler.run(until=5.0)
    assert sinks[1].received == [(0, "hello")]


def test_lossless_delivery_is_exactly_once():
    scheduler, network, sinks = build(loss=NoLoss())
    for i in range(20):
        network.send(0, 1, f"m{i}")
    scheduler.run(until=50.0)
    # Arrival order is delay-dependent; delivery is exactly-once, not FIFO.
    assert sorted(payloads(sinks[1]), key=lambda m: int(m[1:])) == [
        f"m{i}" for i in range(20)
    ]
    assert network.retransmissions == 0
    assert network.duplicates_suppressed == 0


def test_self_delivery_bypasses_the_channel():
    scheduler, network, sinks = build()
    network.send(0, 0, "me")
    scheduler.run(until=1.0)
    assert sinks[0].received == [(0, "me")]
    assert network.acks_sent == 0


def test_wire_sizes_of_frames():
    packet = DataPacket(seq=3, payload="x")
    assert packet.wire_size() == 8 + 64  # header + untyped default
    request = BlockRequest(block_id="ab" * 16)
    framed = DataPacket(seq=3, payload=request)
    assert framed.wire_size() == 8 + FRAME_HEADER_SIZE + encoded_size(request)
    ack = AckPacket(cumulative=5, selective=(7, 9))
    assert ack.wire_size() == 32 + 2 * 4


# ----------------------------------------------------------------------
# Retransmission
# ----------------------------------------------------------------------
def test_dropped_packet_is_retransmitted_and_delivered():
    scheduler, network, sinks = build(
        loss=ScriptedLoss({0}),  # lose only the first transmission
        channel=ChannelConfig(initial_rto=2.0, jitter=0.0),
    )
    network.send(0, 1, "persist")
    scheduler.run(until=30.0)
    assert payloads(sinks[1]) == ["persist"]
    assert network.retransmissions >= 1
    assert network.unacked_count(0, 1) == 0  # eventually acked


def test_retransmission_uses_exponential_backoff():
    times = []

    scheduler, network, sinks = build(
        loss=IIDLoss(drop=1.0 - 1e-12),  # everything is lost
        channel=ChannelConfig(initial_rto=1.0, backoff=2.0, jitter=0.0, max_attempts=4),
    )
    network.add_channel_hook(
        lambda kind, s, r, p, t: times.append(t) if kind == "retransmit" else None
    )
    network.send(0, 1, "doomed")
    scheduler.run(until=200.0)
    # Retransmits at RTO 1, 2, 4, 8 after each prior attempt.
    assert times == [1.0, 3.0, 7.0, 15.0]
    assert network.packets_abandoned == 1
    assert network.unacked_count(0, 1) == 0


def test_acked_packet_is_not_retransmitted():
    scheduler, network, sinks = build(
        loss=NoLoss(), channel=ChannelConfig(initial_rto=50.0, max_rto=50.0, jitter=0.0)
    )
    network.send(0, 1, "quick")
    scheduler.run(until=10.0)  # delivered and acked well before the RTO
    assert network.unacked_count(0, 1) == 0
    scheduler.run(until=200.0)
    assert network.retransmissions == 0


def test_max_rto_caps_backoff():
    config = ChannelConfig(initial_rto=1.0, backoff=10.0, max_rto=5.0, jitter=0.0)
    assert config.rto_for_attempt(0) == 1.0
    assert config.rto_for_attempt(1) == 5.0
    assert config.rto_for_attempt(5) == 5.0


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(initial_rto=0.0)
    with pytest.raises(ValueError):
        ChannelConfig(backoff=0.5)
    with pytest.raises(ValueError):
        ChannelConfig(max_rto=1.0, initial_rto=2.0)
    with pytest.raises(ValueError):
        ChannelConfig(max_attempts=0)
    with pytest.raises(ValueError):
        ChannelConfig(window=0)


# ----------------------------------------------------------------------
# Deduplication
# ----------------------------------------------------------------------
def test_transport_duplicates_reach_the_process_once():
    scheduler, network, sinks = build(
        loss=IIDLoss(duplicate=1.0 - 1e-12, max_copies=3)
    )
    network.send(0, 1, "once")
    scheduler.run(until=30.0)
    assert payloads(sinks[1]) == ["once"]
    assert network.duplicates_suppressed == 2


def test_spurious_retransmission_is_suppressed():
    """A slow ack triggers a retransmit; the receiver must not deliver the
    packet twice."""
    scheduler, network, sinks = build(
        loss=NoLoss(),
        # RTO below the minimum round trip (2 x min_delay = 0.2):
        # a spurious retransmit is guaranteed.
        channel=ChannelConfig(initial_rto=0.15, jitter=0.0),
        delta=1.0,
    )
    network.send(0, 1, "slow-ack")
    scheduler.run(until=30.0)
    assert payloads(sinks[1]) == ["slow-ack"]
    assert network.retransmissions >= 1
    assert network.duplicates_suppressed >= 1


def test_reordered_delivery_is_preserved_not_resequenced():
    """The channel restores reliability, not FIFO: the protocol tolerates
    reordering (the paper's model), so deliveries stay in arrival order."""
    scheduler, network, sinks = build(
        seed=13,
        loss=ScriptedLoss({0}),  # first packet's first copy lost
        channel=ChannelConfig(initial_rto=5.0, jitter=0.0),
    )
    network.send(0, 1, "a")  # lost, retransmitted at ~5
    network.send(0, 1, "b")  # delivered at ~1
    scheduler.run(until=60.0)
    assert sorted(payloads(sinks[1])) == ["a", "b"]
    assert payloads(sinks[1])[0] == "b"  # arrival order, no head-of-line block


def test_selective_acks_prevent_spurious_retransmits_of_reordered_packets():
    """With out-of-order arrivals, the cumulative ack lags; the selective
    list must still confirm the later packets."""
    scheduler, network, sinks = build(
        loss=ScriptedLoss({0}),
        channel=ChannelConfig(
            initial_rto=100.0, max_rto=100.0, jitter=0.0, max_selective=8
        ),
    )
    for i in range(5):
        network.send(0, 1, f"m{i}")
    scheduler.run(until=50.0)  # m0 lost until RTO 100; m1..m4 delivered, acked
    # Only m0 may remain unacked; m1..m4 were selectively acked.
    assert network.unacked_count(0, 1) == 1


# ----------------------------------------------------------------------
# Crash semantics
# ----------------------------------------------------------------------
def test_crashed_receiver_gets_no_delivery_and_no_ack():
    scheduler, network, sinks = build(
        loss=NoLoss(), channel=ChannelConfig(initial_rto=2.0, jitter=0.0, max_attempts=3)
    )
    sinks[1].crash()
    network.send(0, 1, "void")
    scheduler.run(until=100.0)
    assert sinks[1].received == []
    assert network.acks_sent == 0
    assert network.retransmissions == 3  # kept retrying into the void
    assert network.packets_abandoned == 1


def test_recovered_receiver_gets_the_retransmission():
    scheduler, network, sinks = build(
        loss=NoLoss(), channel=ChannelConfig(initial_rto=2.0, jitter=0.0)
    )
    sinks[1].crash()
    network.send(0, 1, "patience")
    scheduler.run(until=3.0)
    assert sinks[1].received == []
    sinks[1].crashed = False  # recover the host
    scheduler.run(until=60.0)
    assert payloads(sinks[1]) == ["patience"]


def test_crashed_sender_stops_retransmitting():
    scheduler, network, sinks = build(
        loss=IIDLoss(drop=1.0 - 1e-12),
        channel=ChannelConfig(initial_rto=2.0, jitter=0.0, max_attempts=10),
    )
    network.send(0, 1, "orphan")
    scheduler.run(until=3.0)
    sinks[0].crash()
    scheduler.run(until=100.0)
    assert network.retransmissions <= 1  # at most the pre-crash attempt
    assert network.packets_abandoned == 1


# ----------------------------------------------------------------------
# Bounded buffers
# ----------------------------------------------------------------------
def test_sender_buffer_bound_abandons_oldest():
    scheduler, network, sinks = build(
        loss=IIDLoss(drop=1.0 - 1e-12),
        channel=ChannelConfig(
            initial_rto=1000.0, max_rto=1000.0, jitter=0.0, max_unacked=5
        ),
    )
    for i in range(8):
        network.send(0, 1, f"m{i}")
    assert network.unacked_count(0, 1) == 5
    assert network.packets_abandoned == 3


def test_receiver_window_bound_advances_the_floor():
    scheduler, network, sinks = build(
        loss=ScriptedLoss({0}),  # seq 0 lost: everything after buffers
        channel=ChannelConfig(
            initial_rto=10_000.0, max_rto=10_000.0, jitter=0.0, window=4
        ),
    )
    for i in range(8):
        network.send(0, 1, f"m{i}")
    scheduler.run(until=100.0)
    assert network.window_evictions > 0
    # All arrived packets were still delivered exactly once.
    assert sorted(payloads(sinks[1])) == [f"m{i}" for i in range(1, 8)]


# ----------------------------------------------------------------------
# Hooks and metrics separation
# ----------------------------------------------------------------------
def test_send_hooks_see_only_first_transmissions():
    seen = []
    scheduler, network, sinks = build(
        loss=ScriptedLoss({0}), channel=ChannelConfig(initial_rto=2.0, jitter=0.0)
    )
    network.add_send_hook(lambda s, r, m, t, d: seen.append(m))
    network.send(0, 1, "counted-once")
    scheduler.run(until=60.0)
    assert len(seen) == 1  # retransmits and acks invisible to send hooks
    assert isinstance(seen[0], DataPacket)
    assert seen[0].payload == "counted-once"
    assert network.retransmissions >= 1
    assert network.acks_sent >= 1


def test_channel_hooks_report_every_overhead_kind():
    kinds = set()
    scheduler, network, sinks = build(
        loss=ScriptedLoss({0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}),
        channel=ChannelConfig(initial_rto=1.0, jitter=0.0, max_attempts=2),
    )
    network.add_channel_hook(lambda kind, s, r, p, t: kinds.add(kind))
    network.send(0, 1, "a")  # first copy lost -> retransmits -> abandoned
    network.send(0, 1, "b")  # delivered -> ack; its retransmit duplicates
    scheduler.run(until=200.0)
    assert "retransmit" in kinds
    assert "ack" in kinds
    assert "abandon" in kinds


def test_channel_summary_mentions_all_counters():
    _, network, _ = build()
    summary = network.channel_summary()
    for key in ("retransmissions", "acks", "duplicates_suppressed", "abandoned"):
        assert key in summary


def test_determinism_same_seed_same_channel_behavior():
    def run(seed):
        scheduler, network, sinks = build(
            n=3, seed=seed, loss=IIDLoss(drop=0.3, duplicate=0.1)
        )
        for i in range(30):
            network.send(i % 2, 2, f"m{i}")
        scheduler.run(until=500.0)
        return (
            payloads(sinks[2]),
            network.retransmissions,
            network.acks_sent,
            network.duplicates_suppressed,
        )

    assert run(21) == run(21)
    assert run(21) != run(22)
