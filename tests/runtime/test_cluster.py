"""Tests for cluster construction and running."""

import pytest

from repro.core.config import ProtocolConfig, ProtocolVariant
from repro.core.replica import Replica
from repro.faults import SilentReplica, byzantine
from repro.ledger.ledger import KVStateMachine
from repro.net.conditions import SynchronousDelay
from repro.runtime.cluster import ClusterBuilder
from repro.traffic.admission import AdmissionController
from repro.traffic.loadgen import OpenLoopGenerator, UniformArrivals
from repro.types.transactions import make_transaction


def test_build_wires_everything():
    cluster = ClusterBuilder(n=4, seed=1).build()
    assert len(cluster.replicas) == 4
    assert len(cluster.mempools) == 4
    assert cluster.honest_ids == [0, 1, 2, 3]
    assert all(isinstance(r, Replica) for r in cluster.replicas)
    assert cluster.network.process_ids() == [0, 1, 2, 3]


def test_byzantine_wiring():
    cluster = (
        ClusterBuilder(n=4, seed=1)
        .with_byzantine(2, byzantine(SilentReplica))
        .build()
    )
    assert cluster.byzantine_ids == [2]
    assert cluster.honest_ids == [0, 1, 3]
    assert isinstance(cluster.replicas[2], SilentReplica)
    assert len(cluster.honest_replicas()) == 3


def test_run_until_commits_stops_early():
    cluster = ClusterBuilder(n=4, seed=1).build()
    result = cluster.run_until_commits(5, until=10_000)
    assert 5 <= result.decisions <= 10
    assert result.stopped_at < 10_000


def test_run_until_commits_everywhere():
    cluster = ClusterBuilder(n=4, seed=1).build()
    cluster.run_until_commits(5, until=10_000, everywhere=True)
    assert cluster.metrics.min_honest_height() >= 5


def test_start_is_idempotent():
    cluster = ClusterBuilder(n=4, seed=1).build()
    cluster.start()
    cluster.start()
    result = cluster.run(until=30.0)
    assert result.decisions > 0


def test_current_leaders_oracle():
    cluster = ClusterBuilder(n=4, seed=1).build()
    assert cluster.current_leaders() == {0}  # all replicas in round 1
    cluster.run(until=40.0)
    assert cluster.current_leaders() <= set(range(4))


def test_submit_reaches_all_mempools():
    cluster = ClusterBuilder(n=4, seed=1).with_preload(0).build()
    tx = make_transaction(0, client=9)
    cluster.submit(tx)
    assert all(len(pool) == 1 for pool in cluster.mempools)


def test_change_network_mid_run():
    cluster = ClusterBuilder(n=4, seed=1).build()
    cluster.run(until=20.0)
    before = cluster.metrics.decisions()
    cluster.change_network(SynchronousDelay(delta=0.2, min_delay=0.1))
    cluster.run(until=40.0)
    assert cluster.metrics.decisions() > before


def test_preload_fills_mempools_before_replicas_start():
    cluster = ClusterBuilder(n=4, seed=1).with_preload(3).build()
    sizes = []
    first = cluster.replicas[0]
    first.on_start = lambda: sizes.extend(len(pool) for pool in cluster.mempools)
    cluster.start()
    assert sizes == [3, 3, 3, 3]


def test_generator_attaches_to_built_cluster():
    cluster = ClusterBuilder(n=4, seed=1).with_preload(0).build()
    generator = OpenLoopGenerator(
        UniformArrivals(10.0),
        AdmissionController(cluster.mempools).offer,
        max_count=3,
    )
    generator.start(cluster.scheduler)
    cluster.run_until_commits(5, until=1_000)
    committed = cluster.honest_replicas()[0].ledger.committed_transactions()
    assert [tx.tx_id for tx in committed] == ["tx-0-0", "tx-0-1", "tx-0-2"]


def test_state_machine_factory():
    cluster = (
        ClusterBuilder(n=4, seed=1).with_state_machine(KVStateMachine).build()
    )
    cluster.run_until_commits(5, until=1_000)
    machine = cluster.honest_replicas()[0].ledger.state_machine
    assert isinstance(machine, KVStateMachine)
    assert machine.data  # default workload issues "set" commands


def test_committed_chain_accessor():
    cluster = ClusterBuilder(n=4, seed=1).build()
    result = cluster.run_until_commits(5, until=1_000)
    chain = result.committed_chain()
    assert len(chain) >= 5
    chain_specific = result.committed_chain(1)
    assert chain_specific[0].id == chain[0].id


def test_byzantine_id_bounds():
    builder = ClusterBuilder(n=4, seed=1)
    with pytest.raises(ValueError):
        builder.with_byzantine(7, byzantine(SilentReplica))


def test_n_and_matching_config_coexist():
    config = ProtocolConfig(n=7)
    cluster = ClusterBuilder(n=7, seed=1, config=config).build()
    assert cluster.config is config
    assert len(cluster.replicas) == 7


def test_conflicting_n_and_config_raise():
    with pytest.raises(ValueError, match="conflicting cluster sizes"):
        ClusterBuilder(n=4, seed=1, config=ProtocolConfig(n=7))


def test_config_alone_sets_the_size():
    cluster = ClusterBuilder(seed=1, config=ProtocolConfig(n=7)).build()
    assert len(cluster.replicas) == 7


def test_default_size_without_n_or_config():
    cluster = ClusterBuilder(seed=1).build()
    assert len(cluster.replicas) == 4


def test_honest_factory_replica_stays_honest():
    from repro.storage.durable import DurableReplica

    cluster = (
        ClusterBuilder(n=4, seed=1)
        .with_honest_factory(2, DurableReplica)
        .build()
    )
    assert isinstance(cluster.replicas[2], DurableReplica)
    assert cluster.honest_ids == [0, 1, 2, 3]
    assert 2 in cluster.metrics.honest_ids


def test_honest_factory_and_byzantine_are_mutually_exclusive():
    from repro.storage.durable import DurableReplica

    builder = ClusterBuilder(n=4, seed=1).with_byzantine(1, byzantine(SilentReplica))
    with pytest.raises(ValueError, match="already Byzantine"):
        builder.with_honest_factory(1, DurableReplica)
    builder = ClusterBuilder(n=4, seed=1).with_honest_factory(1, DurableReplica)
    with pytest.raises(ValueError, match="honest factory"):
        builder.with_byzantine(1, byzantine(SilentReplica))
    with pytest.raises(ValueError):
        ClusterBuilder(n=4, seed=1).with_honest_factory(9, DurableReplica)


def test_reliable_channels_only_when_requested():
    from repro.net.loss import IIDLoss
    from repro.net.reliable import ChannelConfig, ReliableNetwork

    plain = ClusterBuilder(n=4, seed=1).build()
    assert not isinstance(plain.network, ReliableNetwork)
    lossy = ClusterBuilder(n=4, seed=1).with_loss_model(IIDLoss(drop=0.1)).build()
    assert isinstance(lossy.network, ReliableNetwork)
    raw = (
        ClusterBuilder(n=4, seed=1)
        .with_loss_model(IIDLoss(drop=0.1), reliable=False)
        .build()
    )
    assert not isinstance(raw.network, ReliableNetwork)
    forced = (
        ClusterBuilder(n=4, seed=1)
        .with_reliable_channels(ChannelConfig(initial_rto=7.0))
        .build()
    )
    assert isinstance(forced.network, ReliableNetwork)
    assert forced.network.channel.initial_rto == 7.0


def test_variant_builder_shortcut():
    cluster = (
        ClusterBuilder(n=4, seed=1)
        .with_variant(ProtocolVariant.DIEMBFT)
        .build()
    )
    assert cluster.config.variant == ProtocolVariant.DIEMBFT
    assert cluster.replicas[0].pacemaker is not None
    assert cluster.replicas[0].fallback is None
