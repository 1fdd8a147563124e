"""Tests for block types and id computation."""

import pytest

from repro.types.blocks import Block, FallbackBlock, genesis_block, is_fallback
from repro.types.certificates import Rank, genesis_qc
from repro.types.messages import BlockResponse
from repro.types.transactions import Batch, make_transaction
from repro.wire.codec import encoded_size

from tests.types.test_certificates import make_fqc, make_qc


def test_genesis_block_properties():
    genesis = genesis_block()
    assert genesis.is_genesis
    assert genesis.round == 0
    assert genesis.view == 0
    assert genesis.parent_id is None
    assert genesis_block().id == genesis.id  # deterministic


def test_block_id_depends_on_content():
    qc = make_qc()
    base = Block(qc=qc, round=2, view=0, author=1)
    assert base.id == Block(qc=qc, round=2, view=0, author=1).id
    assert base.id != Block(qc=qc, round=3, view=0, author=1).id
    assert base.id != Block(qc=qc, round=2, view=1, author=1).id
    assert base.id != Block(qc=qc, round=2, view=0, author=2).id


def test_block_id_depends_on_batch():
    qc = make_qc()
    batch = Batch.of([make_transaction(0)])
    assert Block(qc=qc, round=2, view=0, batch=batch).id != Block(qc=qc, round=2, view=0).id


def test_block_id_depends_on_parent_cert_not_signers():
    """Same logical parent => same id (threshold sigs are payload-unique)."""
    qc_a = make_qc(round_=1, view=0, block_id="parent")
    qc_b = make_qc(round_=1, view=0, block_id="parent")
    assert Block(qc=qc_a, round=2, view=0).id == Block(qc=qc_b, round=2, view=0).id


def test_block_parent_and_rank():
    qc = make_qc(round_=1, view=0, block_id="parent")
    block = Block(qc=qc, round=2, view=0)
    assert block.parent_id == "parent"
    assert block.rank == Rank(0, False, 2)
    assert not block.is_genesis


def test_fallback_block_fields_and_id():
    fqc = make_fqc(round_=5, view=1, height=1, proposer=2, block_id="f1")
    fb = FallbackBlock(qc=fqc, round=6, view=1, height=2, proposer=2)
    assert fb.parent_id == "f1"
    assert fb.height == 2
    assert is_fallback(fb)
    assert not is_fallback(genesis_block())
    twin = FallbackBlock(qc=fqc, round=6, view=1, height=2, proposer=2)
    assert fb.id == twin.id
    other_proposer = FallbackBlock(qc=fqc, round=6, view=1, height=2, proposer=3)
    assert fb.id != other_proposer.id


def test_fallback_block_height_validation():
    qc = make_qc()
    with pytest.raises(ValueError):
        FallbackBlock(qc=qc, round=1, view=0, height=0, proposer=0)


def test_equivocating_blocks_have_distinct_ids():
    """Two different batches for the same (round, view) => different ids."""
    qc = make_qc()
    block_a = Block(qc=qc, round=2, view=0, batch=Batch.of([make_transaction(1)]), author=0)
    block_b = Block(qc=qc, round=2, view=0, batch=Batch.of([make_transaction(2)]), author=0)
    assert block_a.id != block_b.id


def test_wire_size_includes_batch():
    qc = make_qc()
    empty = Block(qc=qc, round=2, view=0)
    loaded = Block(qc=qc, round=2, view=0, batch=Batch.of([make_transaction(0, payload_size=500)]))
    # The payload slot, plus the id "tx-0-0" (2 + 6), three numbers and the
    # payload's length prefix.
    size = encoded_size(BlockResponse(loaded))
    assert size == encoded_size(BlockResponse(empty)) + 500 + 8 + 24 + 2


def test_genesis_qc_points_to_genesis():
    genesis = genesis_block()
    qc = genesis_qc(genesis.id)
    assert qc.block_id == genesis.id
    child = Block(qc=qc, round=1, view=0)
    assert child.parent_id == genesis.id


def test_repr_is_compact():
    genesis = genesis_block()
    assert "r=0" in repr(genesis)
    fqc = make_fqc(proposer=1)
    fb = FallbackBlock(qc=fqc, round=3, view=1, height=2, proposer=1)
    assert "h=2" in repr(fb)
