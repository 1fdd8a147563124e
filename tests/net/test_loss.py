"""Tests for the loss-model hierarchy and its Network integration."""

import random

import pytest

from repro.net.conditions import SynchronousDelay
from repro.net.loss import (
    BurstLoss,
    IIDLoss,
    NoLoss,
    PartitionLoss,
    ScheduledLoss,
    TargetedLoss,
)
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler
from repro.types.messages import BlockRequest


class Sink(Process):
    def __init__(self, process_id, scheduler):
        super().__init__(process_id, scheduler)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


def build(n=3, seed=1, loss=None):
    scheduler = Scheduler(seed=seed)
    network = Network(
        scheduler, SynchronousDelay(delta=1.0, min_delay=0.1), loss_model=loss
    )
    sinks = [Sink(i, scheduler) for i in range(n)]
    for sink in sinks:
        network.register(sink)
    return scheduler, network, sinks


# ----------------------------------------------------------------------
# Model unit tests (driven with a local RNG, no network)
# ----------------------------------------------------------------------
def test_no_loss_consumes_no_randomness():
    rng = random.Random(0)
    state = rng.getstate()
    assert NoLoss().copies(0, 1, "m", 0.0, rng) == 1
    assert rng.getstate() == state


def test_iid_loss_rates_are_roughly_honored():
    model = IIDLoss(drop=0.3, duplicate=0.2)
    rng = random.Random(42)
    counts = [model.copies(0, 1, "m", 0.0, rng) for _ in range(20_000)]
    drop_rate = counts.count(0) / len(counts)
    assert 0.27 < drop_rate < 0.33
    survivors = [c for c in counts if c > 0]
    dup_rate = sum(1 for c in survivors if c > 1) / len(survivors)
    assert 0.17 < dup_rate < 0.23
    assert max(counts) <= 3  # max_copies cap


def test_iid_loss_validates_probabilities():
    with pytest.raises(ValueError):
        IIDLoss(drop=1.0)
    with pytest.raises(ValueError):
        IIDLoss(duplicate=-0.1)
    with pytest.raises(ValueError):
        IIDLoss(max_copies=0)


def test_burst_loss_produces_consecutive_drops():
    model = BurstLoss(p_enter_bad=0.05, p_exit_bad=0.2, good_drop=0.0, bad_drop=1.0)
    rng = random.Random(7)
    outcomes = [model.copies(0, 1, "m", 0.0, rng) for _ in range(5_000)]
    # Compute run lengths of drops: burstiness means mean run length > 1.
    runs, current = [], 0
    for outcome in outcomes:
        if outcome == 0:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    assert runs, "bad state never entered"
    assert sum(runs) / len(runs) > 2.0  # mean burst ~ 1/p_exit = 5


def test_burst_loss_state_is_per_link():
    model = BurstLoss(p_enter_bad=1.0, p_exit_bad=0.01, bad_drop=1.0)
    rng = random.Random(1)
    model.copies(0, 1, "m", 0.0, rng)  # link (0,1) enters bad
    assert (0, 1) in model._bad_links
    assert (1, 0) not in model._bad_links


def test_burst_loss_requires_bursts_to_end():
    with pytest.raises(ValueError):
        BurstLoss(p_exit_bad=0.0)


def test_targeted_loss_is_per_direction():
    model = TargetedLoss(IIDLoss(drop=1.0 - 1e-12), links=[(0, 1)])
    rng = random.Random(3)
    assert model.copies(0, 1, "m", 0.0, rng) == 0  # targeted direction
    assert model.copies(1, 0, "m", 0.0, rng) == 1  # reverse untouched
    assert model.copies(0, 2, "m", 0.0, rng) == 1


def test_targeted_loss_by_sender_receiver_and_predicate():
    lossy = IIDLoss(drop=1.0 - 1e-12)
    rng = random.Random(3)
    by_sender = TargetedLoss(lossy, senders=[2])
    assert by_sender.copies(2, 0, "m", 0.0, rng) == 0
    assert by_sender.copies(0, 2, "m", 0.0, rng) == 1
    by_receiver = TargetedLoss(lossy, receivers=[2])
    assert by_receiver.copies(0, 2, "m", 0.0, rng) == 0
    by_predicate = TargetedLoss(lossy, predicate=lambda s, r: s + r == 5)
    assert by_predicate.copies(2, 3, "m", 0.0, rng) == 0
    assert by_predicate.copies(2, 2, "m", 0.0, rng) == 1


def test_targeted_loss_requires_a_selector():
    with pytest.raises(ValueError):
        TargetedLoss(IIDLoss(drop=0.5))


def test_partition_loss_drops_cross_group_only():
    model = PartitionLoss([[0, 1], [2, 3]])
    rng = random.Random(5)
    assert model.copies(0, 1, "m", 0.0, rng) == 1
    assert model.copies(0, 2, "m", 0.0, rng) == 0
    assert model.copies(3, 2, "m", 0.0, rng) == 1


def test_partition_loss_composes_with_base():
    model = PartitionLoss([[0, 1], [2, 3]], base=IIDLoss(drop=1.0 - 1e-12))
    rng = random.Random(5)
    assert model.copies(0, 1, "m", 0.0, rng) == 0  # base loss inside the group


def test_partition_loss_rejects_overlapping_groups():
    with pytest.raises(ValueError):
        PartitionLoss([[0, 1], [1, 2]])


def test_scheduled_loss_switches_phases():
    model = ScheduledLoss([(0.0, NoLoss()), (10.0, IIDLoss(drop=1.0 - 1e-12))])
    rng = random.Random(9)
    assert model.copies(0, 1, "m", 5.0, rng) == 1
    assert model.copies(0, 1, "m", 15.0, rng) == 0


def test_scheduled_loss_must_start_at_zero():
    with pytest.raises(ValueError):
        ScheduledLoss([(5.0, NoLoss())])
    with pytest.raises(ValueError):
        ScheduledLoss([])


# ----------------------------------------------------------------------
# Network integration
# ----------------------------------------------------------------------
def test_network_drops_messages_and_counts_them():
    scheduler, network, sinks = build(loss=IIDLoss(drop=1.0 - 1e-12))
    for _ in range(10):
        network.send(0, 1, "x")
    scheduler.run()
    assert sinks[1].received == []
    assert network.messages_dropped == 10
    assert network.messages_sent == 10  # billed even when dropped


def test_network_duplicates_messages_and_counts_them():
    scheduler, network, sinks = build(
        loss=IIDLoss(duplicate=1.0 - 1e-12, max_copies=2)
    )
    network.send(0, 1, "x")
    scheduler.run()
    assert len(sinks[1].received) == 2
    assert network.duplicates_injected == 1
    assert network.messages_sent == 1  # one send, two deliveries


def test_duplicate_copies_get_independent_delays():
    received_times = []

    class TimedSink(Sink):
        def on_message(self, sender, message):
            received_times.append(self.now)

    scheduler = Scheduler(seed=4)
    network = Network(
        scheduler,
        SynchronousDelay(delta=10.0, min_delay=0.1),
        loss_model=IIDLoss(duplicate=1.0 - 1e-12, max_copies=3),
    )
    for i in range(2):
        network.register(TimedSink(i, scheduler))
    network.send(0, 1, "x")
    scheduler.run()
    assert len(received_times) == 3
    assert len(set(received_times)) == 3  # independently drawn delays


def test_self_delivery_is_never_lossy():
    scheduler, network, sinks = build(loss=IIDLoss(drop=1.0 - 1e-12))
    network.send(1, 1, "self")
    scheduler.run()
    assert sinks[1].received == [(1, "self")]
    assert network.messages_dropped == 0


def test_loss_draws_do_not_perturb_delay_draws():
    """The loss model uses its own RNG stream, so enabling total loss must
    not change the delays drawn for other (non-lossy) traffic."""

    def probe_arrival(loss):
        arrivals = []

        class TimedSink(Sink):
            def on_message(self, sender, message):
                arrivals.append((message, self.now))

        scheduler = Scheduler(seed=11)
        network = Network(
            scheduler,
            SynchronousDelay(delta=1.0, min_delay=0.1),
            loss_model=TargetedLoss(loss, links=[(0, 2)]) if loss else None,
        )
        for i in range(3):
            network.register(TimedSink(i, scheduler))
        network.send(0, 2, "victim")  # lossy link (or not)
        network.send(0, 1, "probe")
        scheduler.run()
        return [(m, t) for m, t in arrivals if m == "probe"]

    assert probe_arrival(None) == probe_arrival(IIDLoss(drop=1.0 - 1e-12))


def test_untyped_message_counter():
    scheduler, network, _ = build()
    network.send(0, 1, BlockRequest(block_id="ab" * 16))
    assert network.untyped_messages == 0
    network.send(0, 1, "untyped")
    network.send(0, 1, b"also untyped")
    assert network.untyped_messages == 2


def test_set_loss_model_mid_run():
    scheduler, network, sinks = build()
    network.send(0, 1, "clean")
    scheduler.run()
    network.set_loss_model(IIDLoss(drop=1.0 - 1e-12))
    network.send(0, 1, "lost")
    scheduler.run()
    assert [m for _, m in sinks[1].received] == ["clean"]
