"""Tests for closed-loop load wiring through commit notifications."""

from repro.runtime.cluster import ClusterBuilder
from repro.traffic.admission import AdmissionController
from repro.traffic.loadgen import ClosedLoopGenerator


def build(outstanding=10, seed=121):
    cluster = ClusterBuilder(n=4, seed=seed).with_preload(0).build()
    generator = ClosedLoopGenerator(
        outstanding, AdmissionController(cluster.mempools).offer
    )
    cluster.metrics.commit_listeners.append(generator.notify_committed)
    generator.start(cluster.scheduler)
    return cluster, generator


def test_closed_loop_replenishes_through_commits():
    cluster, generator = build(outstanding=10)
    cluster.run_until_commits(10, until=10_000)
    committed = len(cluster.honest_replicas()[0].ledger.committed_transactions())
    # Every committed transaction triggered a replacement submission.
    assert len(generator.submitted) >= 10 + committed - 10  # initial + refills
    assert len(generator.submitted) > generator.outstanding


def test_outstanding_stays_bounded():
    cluster, generator = build(outstanding=5)
    cluster.run_until_commits(20, until=10_000)
    mempool = cluster.mempools[0]
    # In a quiesced moment, pending = submitted - committed <= outstanding + batch in flight.
    cluster.run(until=cluster.scheduler.now + 30)
    assert len(mempool) <= generator.outstanding + cluster.config.batch_size


def test_each_commit_notifies_once():
    cluster, generator = build(outstanding=4)
    cluster.run_until_commits(10, until=10_000)
    tx_ids = [tx.tx_id for tx in generator.submitted]
    assert len(tx_ids) == len(set(tx_ids))  # no duplicate replacements
