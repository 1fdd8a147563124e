"""What a committed decision leaves behind: per-decision value types stay
slotted, and their memo slots stay out of equality.

Every decision keeps a block (with the certificate for its parent) in each
replica's ledger for the ledger's lifetime, so each ``__dict__`` or memo
object on these types is paid once per committed block per replica, and
the collector walks it on every full collection.
"""

import gc

import pytest

from repro import ClusterBuilder
from repro.crypto.threshold import ThresholdSignatureShare
from repro.ledger.ledger import CommitRecord
from repro.runtime.metrics import CommitEvent
from repro.types.blocks import Block, FallbackBlock
from repro.types.certificates import (
    CoinQC,
    EndorsedFallbackQC,
    FallbackTC,
    Rank,
    TimeoutCertificate,
)
from repro.types.messages import BlockResponse
from repro.types.transactions import Batch, Transaction, make_transaction
from repro.wire.codec import encoded_size

from tests.types.test_certificates import make_fqc, make_qc

#: GC-tracked objects one committed block keeps reachable from one
#: replica's ledger, transactions excluded: its CommitRecord, the Block,
#: the QC for its parent, that QC's ThresholdSignature and the Batch.
#: (Signer tuples, digests and ints are not tracked by the collector.)
MAX_TRACKED_PER_BLOCK = 5.0


def _instances():
    qc = make_qc()
    fqc = make_fqc()
    coin_qc = CoinQC(view=fqc.view, leader=fqc.proposer, proof_tag="proof")
    batch = Batch.of([make_transaction(0)])
    block = Block(qc=qc, round=2, view=0, batch=batch, author=0)
    return [
        block,
        FallbackBlock(qc=qc, round=2, view=1, height=1, proposer=0),
        qc,
        fqc,
        EndorsedFallbackQC(fqc=fqc, coin_qc=coin_qc),
        coin_qc,
        TimeoutCertificate(round=1, signature=qc.signature),
        FallbackTC(view=1, signature=qc.signature),
        Rank(1, False, 2),
        qc.signature,
        ThresholdSignatureShare(signer=0, epoch=0, tag="tag"),
        batch.transactions[0],
        batch,
        CommitRecord(block=block, position=0, committed_at=0.0),
        CommitEvent(
            replica=0, position=0, round=2, view=0, time=0.0,
            fallback_block=False, batch=batch,
        ),
    ]


@pytest.mark.parametrize("instance", _instances(), ids=lambda obj: type(obj).__name__)
def test_value_type_has_no_instance_dict(instance):
    assert not hasattr(instance, "__dict__")


def test_memo_slots_take_no_part_in_equality():
    left, right = make_qc(round_=4), make_qc(round_=4)
    assert left.digest  # fills the memo on one side only
    assert left == right and hash(left) == hash(right)

    first, second = (
        Block(qc=qc, round=5, view=0, batch=Batch.of([make_transaction(1)]), author=1)
        for qc in (left, right)
    )
    assert encoded_size(BlockResponse(first)) > 0  # fills one side's size memo
    assert first._encoded_size is not None and second._encoded_size is None
    assert first.id == second.id
    assert first == second and hash(first) == hash(second)


def _tracked_per_block(records):
    """GC-tracked objects reachable from ``records``, per record.

    The walk stops at types (every instance refers to its class) and at
    transactions and the tuples that hold them, which the workload sizes.
    """
    gc.collect()  # untracks tuples that hold only untracked objects
    seen: set[int] = set()
    tracked = 0
    stack = list(records)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, Transaction)):
            continue
        seen.add(id(obj))
        if type(obj) is tuple and obj and isinstance(obj[0], Transaction):
            continue
        tracked += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return tracked / len(records)


def test_committed_block_stays_within_its_object_budget():
    cluster = ClusterBuilder(n=4, seed=0).build()
    cluster.run(until=60.0)
    records = cluster.honest_replicas()[0].ledger.records
    assert len(records) >= 20
    assert _tracked_per_block(records) <= MAX_TRACKED_PER_BLOCK
