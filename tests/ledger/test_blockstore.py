"""Tests for the block store."""

from repro.ledger.blockstore import BlockStore
from repro.types.blocks import Block
from repro.types.certificates import genesis_qc

from tests.types.test_certificates import make_qc


def chain_of(store, length, view=0):
    """Build a linear chain of certified blocks on top of genesis."""
    blocks = []
    parent_qc = genesis_qc(store.genesis.id)
    for round_number in range(1, length + 1):
        block = Block(qc=parent_qc, round=round_number, view=view, author=0)
        store.add(block)
        blocks.append(block)
        parent_qc = make_qc(round_=round_number, view=view, block_id=block.id)
    return blocks


def test_genesis_present():
    store = BlockStore()
    assert store.genesis.id in store
    assert len(store) == 1


def test_add_and_get():
    store = BlockStore()
    [block] = chain_of(store, 1)
    assert store.get(block.id) is block
    assert store.require(block.id) is block
    assert block.id in store


def test_duplicate_add_is_noop():
    store = BlockStore()
    [block] = chain_of(store, 1)
    assert not store.add(block)
    assert len(store) == 2  # genesis + block


def test_require_missing_raises():
    store = BlockStore()
    try:
        store.require("nope")
        assert False
    except KeyError:
        pass


def test_parent_walk():
    store = BlockStore()
    blocks = chain_of(store, 3)
    assert store.parent(blocks[2]) is blocks[1]
    assert store.parent(blocks[0]) is store.genesis
    assert store.parent(store.genesis) is None


def test_ancestors():
    store = BlockStore()
    blocks = chain_of(store, 3)
    ancestors = list(store.ancestors(blocks[2]))
    assert ancestors == [blocks[1], blocks[0], store.genesis]
    with_self = list(store.ancestors(blocks[2], include_self=True))
    assert with_self[0] is blocks[2]


def test_chain_to():
    store = BlockStore()
    blocks = chain_of(store, 3)
    suffix = store.chain_to(blocks[2], store.genesis.id)
    assert suffix == blocks
    partial = store.chain_to(blocks[2], blocks[0].id)
    assert partial == blocks[1:]
    assert store.chain_to(blocks[2], blocks[2].id) == []


def test_chain_to_unrelated_returns_none():
    store = BlockStore()
    blocks = chain_of(store, 2)
    # A block on a different branch not extending blocks[1].
    fork = Block(qc=genesis_qc(store.genesis.id), round=1, view=1, author=1)
    store.add(fork)
    assert store.chain_to(fork, blocks[1].id) is None


def test_ancestors_stop_at_gap():
    store = BlockStore()
    dangling_qc = make_qc(round_=5, view=0, block_id="unknown-block")
    orphan = Block(qc=dangling_qc, round=6, view=0, author=0)
    store.add(orphan)
    assert list(store.ancestors(orphan)) == []
