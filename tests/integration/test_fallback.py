"""Integration: the asynchronous fallback (Figures 2-4 behaviour).

Runs clusters under adversarial networks and checks the paper's claims:
liveness under asynchrony (Theorem 8), quadratic-but-bounded cost
(Theorem 9), safety throughout (Theorem 6), and the DiemBFT baseline's
liveness failure.  Lemma 7's per-fallback commit probability is claim E4
in ``test_claims.py``.
"""

from repro.analysis.safety import assert_cluster_safety
from repro.core.config import ProtocolConfig, ProtocolVariant
from repro.experiments.scenarios import leader_attack_factory
from repro.net.conditions import (
    AsynchronousDelay,
    NetworkSchedule,
    PartialSynchronyDelay,
    PartitionDelay,
    SynchronousDelay,
)
from repro.runtime.cluster import ClusterBuilder


def attack_cluster(n=4, seed=1, variant=ProtocolVariant.FALLBACK_3CHAIN, **kwargs):
    config = ProtocolConfig(n=n, variant=variant, **kwargs)
    return (
        ClusterBuilder(config=config, seed=seed)
        .with_delay_model_factory(leader_attack_factory())
        .build()
    )


def test_live_under_leader_targeting_asynchrony():
    cluster = attack_cluster()
    result = cluster.run_until_commits(10, until=50_000)
    assert result.decisions >= 10
    assert cluster.metrics.fallback_count() >= 1
    assert_cluster_safety(cluster.honest_replicas())


def test_views_advance_through_fallbacks():
    cluster = attack_cluster()
    cluster.run_until_commits(10, until=50_000)
    assert max(replica.v_cur for replica in cluster.honest_replicas()) >= 1


def test_fallback_blocks_get_committed():
    cluster = attack_cluster()
    result = cluster.run_until_commits(12, until=50_000)
    chain = result.committed_chain()
    from repro.types.blocks import FallbackBlock

    assert any(isinstance(block, FallbackBlock) for block in chain)


def test_every_fallback_exits():
    """Lemma 7 first half: entered fallbacks eventually finish."""
    cluster = attack_cluster(seed=5)
    cluster.run_until_commits(10, until=50_000)
    cluster.run(until=cluster.scheduler.now + 200)
    entered = {
        (event.replica, event.view)
        for event in cluster.metrics.fallback_events
        if event.kind == "entered"
    }
    exited_views = {
        event.view for event in cluster.metrics.fallback_events if event.kind == "exited"
    }
    last_view = max(view for _, view in entered)
    for _, view in entered:
        # Every entered view other than possibly the in-flight last one exits.
        if view < last_view:
            assert view in exited_views


def test_diembft_baseline_not_live_under_attack():
    cluster = attack_cluster(variant=ProtocolVariant.DIEMBFT)
    result = cluster.run(until=3_000)
    assert result.decisions == 0
    # It is not silent — it burns quadratic timeout traffic while stuck.
    assert cluster.metrics.phase_messages()["view_change"] > 0


def test_fallback_cost_is_quadratic_not_worse():
    costs = {}
    for n in (4, 7, 13):
        cluster = attack_cluster(n=n, seed=2)
        cluster.run_until_commits(8, until=80_000)
        costs[n] = cluster.metrics.messages_per_decision()
        assert costs[n] is not None
    # Between n and n^2.5 per decision.
    for n, cost in costs.items():
        assert n <= cost <= 10 * n**2


def test_random_heavy_tail_asynchrony():
    """Untargeted asynchrony: timeouts fire, fallback keeps things live."""
    config = ProtocolConfig(n=4, round_timeout=2.0)
    cluster = (
        ClusterBuilder(config=config, seed=7)
        .with_delay_model(AsynchronousDelay(base_delay=0.5, tail_scale=8.0))
        .build()
    )
    result = cluster.run_until_commits(10, until=100_000)
    assert result.decisions >= 10
    assert_cluster_safety(cluster.honest_replicas())


def test_partial_synchrony_recovers_after_gst():
    model = PartialSynchronyDelay(
        gst=120.0,
        before=AsynchronousDelay(base_delay=10.0, tail_scale=20.0),
        after=SynchronousDelay(delta=1.0),
    )
    cluster = ClusterBuilder(n=4, seed=3).with_delay_model(model).build()
    cluster.run(until=400.0)
    post_gst_commits = [
        event for event in cluster.metrics.commits if event.time > 120.0
    ]
    assert post_gst_commits, "no commits after GST"
    assert_cluster_safety(cluster.honest_replicas())


def test_network_degradation_and_recovery():
    """The paper's motivating story: sync -> async -> sync."""
    schedule = NetworkSchedule(
        [
            (0.0, SynchronousDelay(delta=1.0)),
            (60.0, AsynchronousDelay(base_delay=15.0, tail_scale=30.0, max_delay=100.0)),
            (260.0, SynchronousDelay(delta=1.0)),
        ]
    )
    cluster = ClusterBuilder(n=4, seed=4).with_delay_model(schedule).build()
    cluster.run(until=600.0)
    commits = cluster.metrics.commits
    assert any(event.time < 60.0 for event in commits), "no commits pre-degradation"
    # Messages already in flight when the network heals keep their (bounded)
    # adversarial delays, so recovery completes within max_delay of healing.
    assert any(event.time > 370.0 for event in commits), "no commits after recovery"
    assert_cluster_safety(cluster.honest_replicas())


def test_partition_heals_and_protocol_continues():
    model = PartitionDelay(groups=[[0, 1], [2, 3]], heal_time=60.0)
    cluster = ClusterBuilder(n=4, seed=5).with_delay_model(model).build()
    cluster.run(until=300.0)
    post_heal = [event for event in cluster.metrics.commits if event.time > 60.0]
    assert post_heal
    assert_cluster_safety(cluster.honest_replicas())


def test_two_chain_variant_under_attack():
    cluster = attack_cluster(variant=ProtocolVariant.FALLBACK_2CHAIN, seed=6)
    result = cluster.run_until_commits(10, until=80_000)
    assert result.decisions >= 10
    assert_cluster_safety(cluster.honest_replicas())


def test_always_fallback_baseline_live_everywhere():
    for delay_model in (SynchronousDelay(), AsynchronousDelay(base_delay=1.0, tail_scale=3.0)):
        config = ProtocolConfig(n=4, variant=ProtocolVariant.ALWAYS_FALLBACK)
        cluster = (
            ClusterBuilder(config=config, seed=8)
            .with_delay_model(delay_model)
            .build()
        )
        result = cluster.run_until_commits(8, until=100_000)
        assert result.decisions >= 8
        assert_cluster_safety(cluster.honest_replicas())


def test_always_fallback_quadratic_even_under_synchrony():
    config = ProtocolConfig(n=7, variant=ProtocolVariant.ALWAYS_FALLBACK)
    cluster = ClusterBuilder(config=config, seed=8).build()
    cluster.run_until_commits(10, until=100_000)
    per_decision = cluster.metrics.messages_per_decision()
    assert per_decision is not None
    assert per_decision > 2 * 7  # clearly superlinear at n=7


def test_adoption_optimization_keeps_safety():
    config = ProtocolConfig(n=4, fallback_adoption=True)
    cluster = (
        ClusterBuilder(config=config, seed=9)
        .with_delay_model_factory(leader_attack_factory())
        .build()
    )
    result = cluster.run_until_commits(10, until=80_000)
    assert result.decisions >= 10
    assert_cluster_safety(cluster.honest_replicas())
