"""Idle pacing: a leader with nothing to carry or commit waits, briefly.

An idle leader holds its proposal back until its pool turns non-empty or
half a round timeout has passed since it voted for the block it extends.
The wait must never look like a fault: an idle cluster under synchrony
sees no round timeout and no fallback, and a transaction offered to it is
proposed at once rather than after the wait.
"""

import math

import pytest

from repro.core.config import ProtocolConfig, ProtocolVariant
from repro.core.replica import PACE_TIMER
from repro.net.conditions import SynchronousDelay
from repro.runtime.cluster import ClusterBuilder
from repro.types.messages import Proposal
from repro.types.transactions import make_transaction

VARIANTS = (
    ProtocolVariant.FALLBACK_3CHAIN,
    ProtocolVariant.FALLBACK_2CHAIN,
    ProtocolVariant.DIEMBFT,
)
CASES = [(n, variant) for n in (4, 7) for variant in VARIANTS]
IDS = [f"n{n}-{variant.value}" for n, variant in CASES]


def idle_cluster(n, variant, seed=1, round_timeout=5.0):
    return (
        ClusterBuilder(seed=seed, config=ProtocolConfig(n, round_timeout=round_timeout))
        .with_variant(variant)
        .with_delay_model(SynchronousDelay(delta=1.0))
        .with_preload(0)
        .build()
    )


@pytest.mark.parametrize("n, variant", CASES, ids=IDS)
def test_idle_cluster_paces_without_timeouts(n, variant):
    until = 300.0
    cluster = idle_cluster(n, variant)
    cluster.run(until=until)
    metrics = cluster.metrics
    assert metrics.timeouts == []
    assert metrics.fallback_count() == 0
    half_timeout = cluster.setup.config.round_timeout / 2
    bound = math.ceil(until / half_timeout) + 3
    for replica in cluster.honest_replicas():
        blocks = replica.ledger.committed_blocks()[1:]  # past genesis
        assert blocks, "an idle cluster still commits (empty) blocks"
        assert all(len(block.batch) == 0 for block in blocks)
        assert len(blocks) <= bound


@pytest.mark.parametrize("n, variant", CASES, ids=IDS)
def test_offered_transaction_is_proposed_at_once(n, variant):
    cluster = idle_cluster(n, variant)
    cluster.run(until=50.0)
    replicas = cluster.honest_replicas()
    cluster.scheduler.run(
        stop_when=lambda: any(r.timer_active(PACE_TIMER) for r in replicas),
        check_every=1,
    )
    offered_at = cluster.scheduler.now
    transaction = make_transaction(0, client=1, submitted_at=offered_at)
    proposed_at = []
    cluster.network.add_send_hook(
        lambda sender, receiver, message, time, delay: proposed_at.append(time)
        if isinstance(message, Proposal) and transaction in message.block.batch
        else None
    )
    cluster.submit(transaction)
    cluster.run(until=offered_at + 2 * cluster.setup.config.round_timeout)
    assert proposed_at and proposed_at[0] == offered_at
    assert cluster.metrics.timeouts == []
    for replica in replicas:
        assert replica.ledger.is_committed_transaction(transaction.tx_id)


@pytest.mark.parametrize("variant", VARIANTS, ids=[v.value for v in VARIANTS])
def test_every_replica_commits_within_two_delays_of_the_first(variant):
    """Advance Round precedes Commit in ``process_certificate``.

    The leader that forms the committing QC proposes while its pool still
    holds the transaction, so that QC reaches the other replicas in its
    proposal at once.  Were it to commit first, its pool and chain would
    look idle, it would wait, and the others would commit only after it.
    With a 20 s round timeout that wait lasts at least 10 s less two
    message delays, far outside the bound.
    """
    cluster = idle_cluster(4, variant, round_timeout=20.0)
    cluster.run(until=50.0)
    offered_at = cluster.scheduler.now
    transaction = make_transaction(0, client=1, submitted_at=offered_at)
    cluster.submit(transaction)
    cluster.run(until=offered_at + 2 * cluster.setup.config.round_timeout)
    committed_at = []
    for replica in cluster.honest_replicas():
        position, _ = replica.ledger.commit_location(transaction.tx_id)
        committed_at.append(replica.ledger.record_at(position).committed_at)
    delta = cluster.network.delay_model.delta
    assert max(committed_at) - min(committed_at) <= 2 * delta
