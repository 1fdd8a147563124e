"""Integration: external validity (validated BFT SMR, paper §2).

With a validity predicate configured, honest replicas propose only valid
transactions and never vote for blocks carrying invalid ones, so only
externally valid transactions commit — even when a Byzantine leader tries
to smuggle invalid payloads in.
"""

from repro.analysis.safety import assert_cluster_safety
from repro.core.config import ProtocolConfig
from repro.core.replica import Replica
from repro.experiments.scenarios import leader_attack_factory
from repro.runtime.cluster import ClusterBuilder
from repro.traffic.admission import AdmissionController
from repro.traffic.loadgen import preload
from repro.types.blocks import Block
from repro.types.messages import Proposal
from repro.types.transactions import Batch, make_transaction


def valid_tx(tx) -> bool:
    return not tx.payload.startswith("invalid")


class InvalidPayloadLeader(Replica):
    """Byzantine leader proposing batches of externally invalid payloads."""

    def maybe_propose(self) -> None:
        if self.fallback_mode or self.schedule.leader(self.r_cur) != self.process_id:
            return
        key = (self.v_cur, self.r_cur)
        if key in self._proposed:
            return
        self._proposed.add(key)
        batch = Batch.of(
            [make_transaction(self.r_cur, client=66, payload="invalid command")]
        )
        block = Block(
            qc=self.qc_high, round=self.r_cur, view=self.v_cur,
            batch=batch, author=self.process_id,
        )
        self.store.add(block)
        self.network.multicast(self.process_id, Proposal(block))


def build_with_mixed_backlog(builder):
    """Build with a 100-transaction backlog, every third one invalid."""
    cluster = builder.with_preload(0).build()
    preload(
        AdmissionController(cluster.mempools).offer,
        100,
        cluster.scheduler.now,
        payload=lambda index: (
            f"invalid {index}" if index % 3 == 0 else f"set key-{index} v{index}"
        ),
    )
    return cluster


def test_invalid_transactions_never_commit():
    config = ProtocolConfig(n=4, validity_predicate=valid_tx)
    cluster = build_with_mixed_backlog(ClusterBuilder(config=config, seed=41))
    cluster.run_until_commits(15, until=20_000)
    committed = [
        tx
        for replica in cluster.honest_replicas()
        for tx in replica.ledger.committed_transactions()
    ]
    assert committed, "nothing committed at all"
    assert all(valid_tx(tx) for tx in committed)
    assert_cluster_safety(cluster.honest_replicas())


def test_byzantine_leader_with_invalid_payloads_is_voted_down():
    config = ProtocolConfig(n=4, validity_predicate=valid_tx)
    cluster = (
        ClusterBuilder(config=config, seed=43)
        .with_byzantine(0, lambda *a, **k: InvalidPayloadLeader(*a, **k))
        .build()
    )
    result = cluster.run_until_commits(12, until=30_000)
    assert result.decisions >= 12  # liveness survives (fallback skips it)
    for replica in cluster.honest_replicas():
        for tx in replica.ledger.committed_transactions():
            assert valid_tx(tx), "an invalid transaction was committed"
    assert cluster.metrics.fallback_count() >= 1  # its rounds timed out
    assert_cluster_safety(cluster.honest_replicas())


def test_validity_enforced_on_fallback_chains_too():
    config = ProtocolConfig(n=4, validity_predicate=valid_tx)
    cluster = build_with_mixed_backlog(
        ClusterBuilder(config=config, seed=47).with_delay_model_factory(
            leader_attack_factory()
        )
    )
    cluster.run_until_commits(6, until=60_000)
    committed = [
        tx
        for replica in cluster.honest_replicas()
        for tx in replica.ledger.committed_transactions()
    ]
    assert all(valid_tx(tx) for tx in committed)
    assert_cluster_safety(cluster.honest_replicas())


def test_no_predicate_means_everything_commits():
    cluster = build_with_mixed_backlog(ClusterBuilder(n=4, seed=41))
    cluster.run_until_commits(15, until=20_000)
    committed = cluster.honest_replicas()[0].ledger.committed_transactions()
    assert any(tx.payload.startswith("invalid") for tx in committed)


def test_next_valid_batch_drops_garbage():
    config = ProtocolConfig(n=4, batch_size=3, validity_predicate=valid_tx)
    cluster = ClusterBuilder(config=config, seed=1).with_preload(0).build()
    replica = cluster.replicas[0]
    for index in range(6):
        replica.mempool.submit(
            make_transaction(index, payload="invalid x" if index < 4 else f"ok {index}")
        )
    batch = replica.next_valid_batch(replica.qc_high)
    assert [tx.payload for tx in batch] == ["ok 4", "ok 5"]
    assert len(replica.mempool) == 2  # the garbage is gone for good
