"""Tests for the simulated network."""

import pytest

from repro.net.conditions import SynchronousDelay
from repro.net.network import UNTYPED_WIRE_SIZE, Network, billed_size
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler
from repro.types.messages import BlockRequest
from repro.wire.codec import encode_message
from repro.wire.framing import FRAME_HEADER_SIZE


class Sink(Process):
    def __init__(self, process_id, scheduler):
        super().__init__(process_id, scheduler)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message, self.now))


def build(n=3, seed=1, delta=1.0):
    scheduler = Scheduler(seed=seed)
    network = Network(scheduler, SynchronousDelay(delta=delta, min_delay=0.1))
    sinks = [Sink(i, scheduler) for i in range(n)]
    for sink in sinks:
        network.register(sink)
    return scheduler, network, sinks


def test_send_delivers_with_delay():
    scheduler, network, sinks = build()
    network.send(0, 1, "hello")
    scheduler.run()
    assert len(sinks[1].received) == 1
    sender, message, at = sinks[1].received[0]
    assert (sender, message) == (0, "hello")
    assert 0.1 <= at <= 1.0


def test_multicast_reaches_everyone_including_self():
    scheduler, network, sinks = build(n=4)
    network.multicast(2, "ping")
    scheduler.run()
    for sink in sinks:
        assert [m for _, m, _ in sink.received] == ["ping"]


def test_multicast_exclude_self():
    scheduler, network, sinks = build(n=3)
    network.multicast(0, "ping", include_self=False)
    scheduler.run()
    assert sinks[0].received == []
    assert len(sinks[1].received) == 1


def test_self_delivery_not_counted_as_traffic():
    scheduler, network, sinks = build(n=3)
    network.multicast(0, "ping")
    scheduler.run()
    assert network.messages_sent == 2  # self-delivery excluded


def test_unknown_receiver_raises():
    _, network, _ = build(n=2)
    with pytest.raises(KeyError):
        network.send(0, 9, "x")


def test_duplicate_registration_rejected():
    scheduler, network, sinks = build(n=2)
    with pytest.raises(ValueError):
        network.register(Sink(0, scheduler))


def test_send_hooks_observe_traffic():
    scheduler, network, _ = build(n=3)
    seen = []
    network.add_send_hook(lambda s, r, m, t, d: seen.append((s, r, m)))
    network.multicast(1, "x")
    scheduler.run()
    assert sorted(seen) == [(1, 0, "x"), (1, 2, "x")]


def test_bytes_accounting_uses_wire_size():
    message = BlockRequest(block_id="ab" * 16)
    scheduler, network, _ = build(n=2)
    seen = []
    network.add_send_hook(lambda s, r, m, t, size: seen.append(size))
    network.send(0, 1, message)
    framed = FRAME_HEADER_SIZE + len(encode_message(0, message))
    assert network.bytes_sent == framed
    assert seen == [framed]  # hooks get the size the network billed


def test_default_size_for_untyped_messages():
    scheduler, network, _ = build(n=2)
    network.send(0, 1, "plain")
    assert network.bytes_sent == UNTYPED_WIRE_SIZE == 64


def test_network_falls_back_to_default_for_unknown_types():
    net = Network(Scheduler(seed=1))

    class Opaque:
        pass

    assert billed_size(Opaque(), net) == 64
    assert net.untyped_messages == 1
    assert billed_size(Opaque()) == 64
    assert net.untyped_messages == 1


def test_network_bills_codec_messages_without_counting_them_untyped():
    net = Network(Scheduler(seed=1))
    message = BlockRequest(block_id="ab" * 16)
    assert billed_size(message, net) == FRAME_HEADER_SIZE + len(
        encode_message(3, message)
    )
    assert net.untyped_messages == 0


def test_determinism_same_seed_same_delivery_times():
    def run(seed):
        scheduler, network, sinks = build(n=3, seed=seed)
        for i in range(10):
            network.multicast(0, f"m{i}")
        scheduler.run()
        return [(s, m, t) for sink in sinks for (s, m, t) in sink.received]

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_swap_delay_model_mid_run():
    scheduler, network, sinks = build(n=2)
    network.send(0, 1, "fast")
    scheduler.run()
    network.set_delay_model(SynchronousDelay(delta=50.0, min_delay=40.0))
    network.send(0, 1, "slow")
    start = scheduler.now
    scheduler.run()
    _, _, at = sinks[1].received[-1]
    assert at - start >= 40.0


def test_crashed_process_receives_nothing():
    scheduler, network, sinks = build(n=2)
    sinks[1].crash()
    network.send(0, 1, "x")
    scheduler.run()
    assert sinks[1].received == []
