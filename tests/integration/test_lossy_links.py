"""Acceptance tests: the protocol over a genuinely lossy transport.

The paper's proofs assume reliable links; these tests withdraw that
assumption at the transport (20% i.i.d. drop, 5% duplication, bursts,
scripted crash/recover) and check that the reliable-channel layer restores
enough of it for the protocol to stay safe and live — and that with the
loss machinery disabled, the simulation is event-identical to the seed.
"""

import pytest

from repro.analysis.safety import assert_cluster_safety, check_cluster_safety
from repro.core.config import ProtocolConfig, ProtocolVariant
from repro.faults import FaultSchedule, crash, recover
from repro.net.loss import BurstLoss, IIDLoss, NoLoss
from repro.net.reliable import ReliableNetwork
from repro.runtime.cluster import ClusterBuilder
from repro.storage.durable import RecoveringReplica

#: The ISSUE acceptance bar: 20% drop + 5% duplication + a crash/recover.
ACCEPTANCE_LOSS = IIDLoss(drop=0.2, duplicate=0.05)


def build_acceptance(seed=7):
    schedule = FaultSchedule().at(40.0, crash(2)).at(90.0, recover(2))
    return (
        ClusterBuilder(n=4, seed=seed)
        .with_loss_model(ACCEPTANCE_LOSS)
        .with_fault_schedule(schedule)
        .with_honest_factory(2, RecoveringReplica.factory())
        .build()
    )


def test_commits_thirty_blocks_under_loss_duplication_and_a_crash():
    cluster = build_acceptance()
    result = cluster.run_until_commits(30, until=5_000.0)
    assert result.decisions >= 30
    assert_cluster_safety(cluster.honest_replicas())
    assert cluster.fault_log == [(40.0, "crash(2)"), (90.0, "recover(2)")]
    assert cluster.replicas[2].recovered
    # The channel actually worked for its living.
    assert cluster.metrics.retransmissions > 0
    assert cluster.metrics.duplicates_suppressed > 0
    assert cluster.metrics.acks > 0
    # Every message in these suites models its wire size.
    assert cluster.network.untyped_messages == 0


def test_acceptance_run_is_deterministic():
    def run():
        cluster = build_acceptance()
        result = cluster.run_until_commits(30, until=5_000.0)
        return (
            result.stopped_at,
            result.decisions,
            cluster.metrics.honest_messages,
            cluster.metrics.honest_bytes,
            cluster.metrics.retransmissions,
            cluster.metrics.acks,
            cluster.metrics.duplicates_suppressed,
            cluster.network.messages_dropped,
        )

    assert run() == run()


def test_disabled_loss_model_matches_seed_traffic_exactly():
    """`NoLoss` (and the loss plumbing generally) must not change a single
    delay draw: per-decision message and byte counts equal the default
    build's, event for event."""

    def traffic(builder):
        cluster = builder.build()
        cluster.run_until_commits(10, until=2_000.0)
        return (
            cluster.scheduler.now,
            cluster.metrics.decisions(),
            cluster.metrics.honest_messages,
            cluster.metrics.honest_bytes,
            dict(cluster.metrics.message_counts),
        )

    default = traffic(ClusterBuilder(n=4, seed=42))
    explicit_noloss = traffic(
        ClusterBuilder(n=4, seed=42).with_loss_model(NoLoss(), reliable=False)
    )
    assert default == explicit_noloss


def test_lossy_transport_without_channels_still_safe():
    """Raw 10% loss exposed to the replicas: liveness may suffer, but the
    safety argument never relied on reliable delivery."""
    cluster = (
        ClusterBuilder(n=4, seed=19)
        .with_loss_model(IIDLoss(drop=0.1), reliable=False)
        .build()
    )
    cluster.run(until=600.0)
    assert not isinstance(cluster.network, ReliableNetwork)
    violations = check_cluster_safety(cluster.honest_replicas())
    assert not violations, "; ".join(str(v) for v in violations[:3])


def test_burst_loss_with_reliable_channels_stays_live():
    cluster = (
        ClusterBuilder(n=4, seed=29)
        .with_loss_model(BurstLoss(p_enter_bad=0.05, p_exit_bad=0.25, bad_drop=0.9))
        .build()
    )
    result = cluster.run_until_commits(15, until=5_000.0)
    assert result.decisions >= 15
    assert_cluster_safety(cluster.honest_replicas())


@pytest.mark.parametrize(
    "variant", [ProtocolVariant.FALLBACK_3CHAIN, ProtocolVariant.FALLBACK_2CHAIN]
)
def test_acceptance_bar_holds_for_both_fallback_variants(variant):
    schedule = FaultSchedule().at(40.0, crash(2)).at(90.0, recover(2))
    config = ProtocolConfig(n=4, variant=variant)
    cluster = (
        ClusterBuilder(config=config, seed=7)
        .with_loss_model(ACCEPTANCE_LOSS)
        .with_fault_schedule(schedule)
        .with_honest_factory(2, RecoveringReplica.factory())
        .build()
    )
    result = cluster.run_until_commits(30, until=5_000.0)
    assert result.decisions >= 30
    assert_cluster_safety(cluster.honest_replicas())


def test_channel_overhead_is_separated_from_goodput():
    """Retransmissions and acks must not inflate the protocol's
    messages-per-decision accounting."""
    lossless = ClusterBuilder(n=4, seed=31).build()
    lossless.run_until_commits(10, until=2_000.0)
    lossy = (
        ClusterBuilder(n=4, seed=31)
        .with_loss_model(IIDLoss(drop=0.2))
        .build()
    )
    lossy.run_until_commits(10, until=5_000.0)
    assert lossy.metrics.retransmissions > 0
    assert lossy.metrics.acks > 0
    # Overhead lives in its own counters: the per-type goodput counts only
    # ever contain protocol message names, never channel frame types.
    assert "AckPacket" not in lossy.metrics.message_counts
    assert "DataPacket" not in lossy.metrics.message_counts
    summary = lossy.metrics.summary()
    assert "retransmissions:" in summary
    assert "duplicates suppressed:" in summary
    assert "ack overhead:" in summary


def test_clients_confirm_over_a_lossy_transport():
    cluster = (
        ClusterBuilder(n=4, seed=5)
        .with_loss_model(IIDLoss(drop=0.15))
        .with_preload(0)
        .with_clients(1, total=5, outstanding=2)
        .build()
    )
    cluster.run(until=2_000.0, stop_when=lambda: cluster.total_confirmations() >= 5)
    assert cluster.total_confirmations() >= 5
    assert cluster.network.untyped_messages == 0
    assert_cluster_safety(cluster.honest_replicas())


@pytest.mark.parametrize(
    "loss",
    [
        NoLoss(),
        IIDLoss(drop=0.1, duplicate=0.05),
        IIDLoss(drop=0.2, duplicate=0.05),
        IIDLoss(drop=0.3, duplicate=0.05),
        BurstLoss(p_enter_bad=0.05, p_exit_bad=0.25, bad_drop=0.9),
    ],
    ids=["none", "iid-0.1", "iid-0.2", "iid-0.3", "burst"],
)
def test_goodput_vs_loss_model(loss):
    """The loss-rate sweep: 300 s over the reliable channels at each point
    commits, stays safe, and bills channel frames only to their own
    counters, never to the protocol's per-type message counts."""
    cluster = (
        ClusterBuilder(n=4, seed=15).with_preload(10_000).with_loss_model(loss).build()
    )
    cluster.run(until=300.0)
    metrics = cluster.metrics
    assert metrics.decisions() > 0
    assert_cluster_safety(cluster.honest_replicas())
    assert cluster.network.untyped_messages == 0
    assert "DataPacket" not in metrics.message_counts
    assert "AckPacket" not in metrics.message_counts
    if not isinstance(loss, NoLoss):
        assert metrics.retransmissions > 0
