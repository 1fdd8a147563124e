"""Tests for transactions and batches."""

from repro.client.client import ClientRequest
from repro.types.blocks import Block
from repro.types.messages import BlockResponse
from repro.types.transactions import (
    EMPTY_BATCH,
    Batch,
    Transaction,
    make_transaction,
)
from repro.wire.codec import MESSAGE_OVERHEAD, encoded_size


def _block_bytes(batch):
    return encoded_size(BlockResponse(Block(qc=None, round=0, view=0, batch=batch)))


def test_make_transaction_defaults():
    tx = make_transaction(3, client=1)
    assert tx.tx_id == "tx-1-3"
    assert tx.payload == "cmd:3"
    assert tx.client == 1


def test_transaction_wire_size():
    # Its id (u16-prefixed), client, payload size and submit time, then the
    # payload (u16-prefixed) padded out to payload_size bytes.
    tx = Transaction(tx_id="t", payload_size=100)
    assert encoded_size(ClientRequest(tx)) == MESSAGE_OVERHEAD + 3 + 24 + 2 + 100


def test_batch_digest_depends_on_order_and_content():
    a, b = make_transaction(1), make_transaction(2)
    assert Batch.of([a, b]).digest != Batch.of([b, a]).digest
    assert Batch.of([a]).digest != Batch.of([b]).digest
    assert Batch.of([a, b]).digest == Batch.of([a, b]).digest


def test_batch_len_iter_and_size():
    txs = [make_transaction(i, payload_size=10) for i in range(3)]
    batch = Batch.of(txs)
    assert len(batch) == 3
    assert list(batch) == txs
    # A u16 count, then each transaction: "tx-0-i" is 2 + 6 bytes.
    assert _block_bytes(batch) - _block_bytes(EMPTY_BATCH) == 3 * (8 + 24 + 2 + 10)


def test_empty_batch():
    assert len(EMPTY_BATCH) == 0
    # Envelope, block tag, id, round/view/author/reserve, absent-qc flag,
    # and the batch's u16 count alone.
    assert _block_bytes(EMPTY_BATCH) == MESSAGE_OVERHEAD + 1 + 32 + 4 * 8 + 1 + 2
    assert EMPTY_BATCH.digest == Batch().digest
