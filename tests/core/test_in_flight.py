"""In-flight exclusion: a proposal skips what the chain it extends carries.

A transaction stays in every pool until it commits.  A leader's batch
therefore leaves out the transactions of the uncommitted blocks between
its parent certificate's block and the committed prefix: those commit
exactly when the new block does.  Only ancestors count, so a transaction
whose block is abandoned is proposed again; and the ledger still applies
each transaction once, whatever a Byzantine leader repeats.
"""

from collections import Counter

import pytest

from repro.analysis.safety import assert_cluster_safety
from repro.core.config import ProtocolVariant
from repro.core.replica import Replica
from repro.experiments.scenarios import build_cluster, leader_attack_factory
from repro.mempool.mempool import Mempool
from repro.net.conditions import SynchronousDelay
from repro.net.loss import LossModel
from repro.runtime.cluster import ClusterBuilder
from repro.types.messages import FallbackProposal, Proposal
from repro.types.transactions import make_transaction


def blocks_per_transaction(replica):
    """How many blocks of ``replica``'s committed chain carry each tx id."""
    return Counter(
        transaction.tx_id
        for block in replica.ledger.committed_blocks()
        for transaction in block.batch
    )


def commit_times(cluster):
    return [(e.replica, e.position, e.time) for e in cluster.metrics.commits]


def preloaded_run():
    cluster = build_cluster("fallback-3chain", 4, seed=1, preload=2000)
    cluster.run(until=150.0)
    return cluster


def test_no_transaction_is_committed_in_two_blocks(monkeypatch):
    cluster = preloaded_run()
    for replica in cluster.honest_replicas():
        carried = blocks_per_transaction(replica)
        assert carried and max(carried.values()) == 1
    commits = commit_times(cluster)

    # The same run with every proposal re-carrying the pool's head: the
    # chain commits the same blocks at the same times, only fuller of
    # repeats.  Exclusion changes what a block carries, not when it commits.
    next_batch = Mempool.next_batch
    monkeypatch.setattr(Mempool, "next_batch", lambda self, skip=(): next_batch(self))
    repeating = preloaded_run()
    assert commit_times(repeating) == commits
    assert max(blocks_per_transaction(repeating.replicas[0]).values()) > 1


class DropFirstCarrier(LossModel):
    """Drops every copy of the first proposal that carries ``transaction``."""

    def __init__(self, transaction):
        self.transaction = transaction
        self.block = None

    def copies(self, sender, receiver, message, now, rng):
        if isinstance(message, Proposal) and self.transaction in message.block.batch:
            if self.block is None:
                self.block = message.block
            if message.block is self.block:
                return 0
        return 1


VARIANTS = (
    ProtocolVariant.FALLBACK_3CHAIN,
    ProtocolVariant.FALLBACK_2CHAIN,
    ProtocolVariant.DIEMBFT,
)


@pytest.mark.parametrize("variant", VARIANTS, ids=[v.value for v in VARIANTS])
def test_a_transaction_of_an_abandoned_block_is_proposed_again(variant):
    transaction = make_transaction(0, client=1)
    drop = DropFirstCarrier(transaction)
    cluster = (
        ClusterBuilder(n=4, seed=1)
        .with_variant(variant)
        .with_delay_model(SynchronousDelay(delta=1.0))
        .with_loss_model(drop, reliable=False)
        .with_preload(0)
        .build()
    )
    cluster.run(until=20.0)
    cluster.submit(transaction)
    cluster.run(until=21.0)
    abandoned = drop.block
    assert abandoned is not None, "the first carrier was proposed and dropped"
    # Its leader holds the abandoned block, but no block it extends next
    # descends from it: the transaction is not in flight there.
    leader = cluster.replicas[abandoned.author]
    assert leader.store.get(abandoned.id) is abandoned
    assert transaction in leader.next_valid_batch(leader.qc_high)
    cluster.run(until=60.0)
    for replica in cluster.honest_replicas():
        assert not replica.ledger.is_committed(abandoned.id)
        _, block_id = replica.ledger.commit_location(transaction.tx_id)
        assert block_id != abandoned.id
    assert_cluster_safety(cluster.honest_replicas())


def test_an_f_block_skips_what_its_f_chain_ancestors_carry():
    cluster = build_cluster(
        "fallback-3chain",
        4,
        seed=1,
        preload=2000,
        delay_factory=leader_attack_factory(),
    )
    fblocks = {}
    cluster.network.add_send_hook(
        lambda sender, receiver, message, time, delay: fblocks.setdefault(
            message.fblock.id, message.fblock
        )
        if isinstance(message, FallbackProposal)
        else None
    )
    cluster.run_until_commits(20, until=50_000.0)
    extending = [block for block in fblocks.values() if block.height > 1]
    assert extending and all(len(block.batch) for block in extending)
    for block in extending:
        carried = {transaction.tx_id for transaction in block.batch}
        ancestor = fblocks[block.qc.block_id]
        while True:
            assert carried.isdisjoint(tx.tx_id for tx in ancestor.batch)
            if ancestor.height == 1:
                break
            ancestor = fblocks[ancestor.qc.block_id]
    assert_cluster_safety(cluster.honest_replicas())


class DuplicatingLeader(Replica):
    """Byzantine: every batch re-carries the pool's head, in flight or not."""

    def next_valid_batch(self, parent):
        return self.mempool.next_batch()


def test_a_duplicating_leader_is_absorbed_by_exactly_once_execution():
    cluster = (
        ClusterBuilder(n=4, seed=1)
        .with_byzantine(0, DuplicatingLeader)
        .with_preload(2000)
        .build()
    )
    cluster.run(until=150.0)
    for replica in cluster.honest_replicas():
        carried = blocks_per_transaction(replica)
        assert max(carried.values()) > 1, "the leader's repeats were committed"
        applied = [tx.tx_id for tx in replica.ledger.committed_transactions()]
        assert sorted(applied) == sorted(carried)
    assert_cluster_safety(cluster.honest_replicas())
