"""Tests for the mempool."""

import pytest

from repro.mempool.mempool import Mempool
from repro.types.transactions import EMPTY_BATCH, make_transaction


def test_submit_and_len():
    pool = Mempool(batch_size=5)
    pool.submit(make_transaction(0))
    pool.submit(make_transaction(1))
    assert len(pool) == 2
    assert pool.submitted_count == 2


def test_submit_idempotent():
    pool = Mempool()
    tx = make_transaction(0)
    pool.submit(tx)
    pool.submit(tx)
    assert len(pool) == 1
    assert pool.submitted_count == 1


def test_next_batch_respects_size_and_order():
    pool = Mempool(batch_size=2)
    txs = [make_transaction(i) for i in range(5)]
    pool.submit_all(txs)
    batch = pool.next_batch()
    assert [tx.tx_id for tx in batch] == ["tx-0-0", "tx-0-1"]


def test_next_batch_does_not_remove():
    pool = Mempool(batch_size=2)
    pool.submit_all(make_transaction(i) for i in range(3))
    pool.next_batch()
    assert len(pool) == 3  # only commits remove transactions


def test_mark_committed_removes():
    pool = Mempool(batch_size=10)
    txs = [make_transaction(i) for i in range(4)]
    pool.submit_all(txs)
    dropped = pool.mark_committed(txs[:2])
    assert dropped == 2
    assert [tx.tx_id for tx in pool.pending()] == ["tx-0-2", "tx-0-3"]
    # Committing unknown transactions is harmless.
    assert pool.mark_committed([make_transaction(99)]) == 0


def test_recommit_after_failed_proposal():
    """A batch proposed by a failed leader stays available for the next."""
    pool = Mempool(batch_size=2)
    pool.submit_all(make_transaction(i) for i in range(2))
    first = pool.next_batch()
    second = pool.next_batch()
    assert list(first) == list(second)


def test_negative_batch_size_rejected():
    with pytest.raises(ValueError):
        Mempool(batch_size=-1)


def test_empty_pool_batch():
    pool = Mempool()
    assert pool.next_batch() is EMPTY_BATCH
    pool.submit(make_transaction(0))
    pool.mark_committed(pool.next_batch())
    assert pool.next_batch() is EMPTY_BATCH
