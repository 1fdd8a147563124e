"""Tests for the metrics collector."""

from repro.ledger.blockstore import BlockStore
from repro.ledger.ledger import CommitRecord
from repro.net.network import UNTYPED_WIRE_SIZE, billed_size
from repro.runtime.metrics import MetricsCollector
from repro.types.blocks import Block, FallbackBlock
from repro.types.certificates import genesis_qc
from repro.types.messages import BlockRequest
from repro.types.transactions import Batch, make_transaction


def make_metrics(honest=(0, 1, 2)):
    return MetricsCollector(honest_ids=honest)


def commit_record(round_=1, view=0, position=0, fallback=False, txs=()):
    store = BlockStore()
    qc = genesis_qc(store.genesis.id)
    batch = Batch.of(txs)
    if fallback:
        block = FallbackBlock(qc=qc, round=round_, view=view, height=1, proposer=0,
                              batch=batch)
    else:
        block = Block(qc=qc, round=round_, view=view, batch=batch, author=0)
    return CommitRecord(block=block, position=position, committed_at=0.0)


def test_honest_only_message_accounting():
    metrics = make_metrics(honest=(0, 1))
    message = BlockRequest(block_id="ab" * 16)
    size = billed_size(message)
    metrics.on_send(0, 1, message, 0.0, size)  # honest: billed as charged
    metrics.on_send(5, 1, message, 0.0, size)  # Byzantine sender: ignored
    assert metrics.honest_messages == 1
    assert metrics.honest_bytes == size
    assert metrics.message_bytes == {"BlockRequest": size}
    assert metrics.encoded_bytes == 0  # nothing went through a transport


def test_decisions_uses_max_honest_height():
    metrics = make_metrics()
    metrics.on_commit(0, commit_record(position=0), 1.0)
    metrics.on_commit(0, commit_record(position=1, round_=2), 1.5)
    metrics.on_commit(1, commit_record(position=0), 2.0)
    assert metrics.decisions() == 2
    assert metrics.min_honest_height() == 0  # replica 2 committed nothing


def test_min_honest_height_needs_everyone():
    metrics = make_metrics(honest=(0, 1))
    metrics.on_commit(0, commit_record(position=3, round_=4), 1.0)
    assert metrics.min_honest_height() == 0
    metrics.on_commit(1, commit_record(position=1, round_=2), 1.0)
    assert metrics.min_honest_height() == 2


def test_per_decision_costs():
    metrics = make_metrics()
    assert metrics.messages_per_decision() is None
    metrics.on_send(0, 1, "m", 0.0, UNTYPED_WIRE_SIZE)
    metrics.on_send(0, 2, "m", 0.0, UNTYPED_WIRE_SIZE)
    metrics.on_commit(0, commit_record(), 1.0)
    assert metrics.messages_per_decision() == 2.0
    assert metrics.bytes_per_decision() == 128.0


def test_phase_classification():
    metrics = make_metrics()
    from repro.types.messages import BlockRequest, FallbackTimeout, Proposal, Vote

    metrics.message_counts.update({"Proposal": 3, "Vote": 9, "FallbackTimeout": 4,
                                   "BlockRequest": 1, "Mystery": 2})
    phases = metrics.phase_messages()
    assert phases == {"steady": 12, "view_change": 4, "sync": 1, "other": 2}


def test_commit_event_captures_block_facts():
    metrics = make_metrics()
    txs = [make_transaction(0, submitted_at=1.0)]
    metrics.on_commit(0, commit_record(fallback=True, txs=txs), 5.0)
    [event] = metrics.commits
    assert event.fallback_block
    assert event.batch_size == 1
    assert event.tx_latencies == [4.0]
    assert metrics.commit_latencies() == [4.0]


def test_fallback_event_tracking():
    metrics = make_metrics()
    metrics.on_fallback_entered(0, 0, 1.0)
    metrics.on_fallback_entered(1, 0, 1.1)
    metrics.on_fallback_entered(0, 1, 9.0)
    metrics.on_fallback_exited(0, 0, 2, 5.0)
    assert metrics.fallback_count() == 2  # distinct views entered


def test_commits_at_filters_by_replica():
    metrics = make_metrics()
    metrics.on_commit(0, commit_record(position=0), 1.0)
    metrics.on_commit(1, commit_record(position=0), 1.0)
    assert len(metrics.commits_at(0)) == 1


def test_summary_renders():
    metrics = make_metrics()
    metrics.on_commit(0, commit_record(), 1.0)
    text = metrics.summary()
    assert "decisions: 1" in text
    assert "messages/decision" in text
