"""Unit-level tests driving single replicas through handcrafted messages."""

import pytest

from repro.core.config import ProtocolConfig
from repro.runtime.cluster import ClusterBuilder
from repro.types.blocks import Block
from repro.types.certificates import genesis_qc
from repro.types.messages import (
    BlockRequest,
    BlockResponse,
    FallbackTimeout,
    Proposal,
    Vote,
)

from tests.core.conftest import build_certified_chain


@pytest.fixture
def cluster():
    built = ClusterBuilder(n=4, seed=1).with_preload(50).build()
    # Do not start: tests drive replicas by hand.
    return built


def replica(cluster, i=0):
    return cluster.replicas[i]


def test_proposal_with_wrong_author_ignored(cluster):
    target = replica(cluster, 1)
    block = Block(qc=genesis_qc(target.store.genesis.id), round=1, view=0, author=0)
    # Claimed author 0 but sent by 2 (authenticated channel exposes this).
    target.deliver(2, Proposal(block))
    assert target.safety.r_vote == 0
    assert block.id not in target.store


def test_proposal_from_non_leader_ignored(cluster):
    target = replica(cluster, 1)
    # Replica 2 is not the leader of round 1 (leader(1..4) = 0).
    block = Block(qc=genesis_qc(target.store.genesis.id), round=1, view=0, author=2)
    target.deliver(2, Proposal(block))
    assert target.safety.r_vote == 0


def test_valid_proposal_triggers_vote_to_next_leader(cluster):
    target = replica(cluster, 1)
    leader_round_2 = target.schedule.leader(2)
    block = Block(qc=genesis_qc(target.store.genesis.id), round=1, view=0, author=0)
    target.deliver(0, Proposal(block))
    cluster.scheduler.drain()
    assert target.safety.r_vote == 1
    # The vote landed at the next leader's accumulator.
    next_leader = replica(cluster, leader_round_2)
    key = ("vote", block.id, 1, 0)
    assert key in next_leader._vote_shares or key in next_leader._formed_qcs


def test_duplicate_proposal_voted_once(cluster):
    target = replica(cluster, 1)
    block = Block(qc=genesis_qc(target.store.genesis.id), round=1, view=0, author=0)
    target.deliver(0, Proposal(block))
    votes_before = target.safety.r_vote
    target.deliver(0, Proposal(block))
    assert target.safety.r_vote == votes_before == 1


def test_vote_share_sender_mismatch_rejected(cluster):
    leader = replica(cluster, 0)
    block = Block(qc=genesis_qc(leader.store.genesis.id), round=4, view=0, author=0)
    leader.store.add(block)
    share = cluster.setup.quorum_scheme.sign_share(
        cluster.setup.registry.key_pair(1), ("vote", block.id, 4, 0)
    )
    vote = Vote(block_id=block.id, round=4, view=0, share=share)
    leader.deliver(2, vote)  # share signed by 1, delivered by 2
    assert ("vote", block.id, 4, 0) not in leader._vote_shares


def test_quorum_of_votes_forms_qc_and_advances(cluster):
    leader = replica(cluster, 0)
    block = Block(qc=genesis_qc(leader.store.genesis.id), round=1, view=0, author=0)
    leader.store.add(block)
    for voter in range(3):
        share = cluster.setup.quorum_scheme.sign_share(
            cluster.setup.registry.key_pair(voter), ("vote", block.id, 1, 0)
        )
        leader.deliver(voter, Vote(block_id=block.id, round=1, view=0, share=share))
    assert leader.r_cur == 2
    assert leader.qc_high.round == 1
    assert leader.qc_high.block_id == block.id


def test_two_votes_do_not_form_qc(cluster):
    leader = replica(cluster, 0)
    block = Block(qc=genesis_qc(leader.store.genesis.id), round=1, view=0, author=0)
    leader.store.add(block)
    for voter in range(2):
        share = cluster.setup.quorum_scheme.sign_share(
            cluster.setup.registry.key_pair(voter), ("vote", block.id, 1, 0)
        )
        leader.deliver(voter, Vote(block_id=block.id, round=1, view=0, share=share))
    assert leader.r_cur == 1
    assert leader.qc_high.round == 0


def test_missing_block_triggers_sync_request(cluster):
    target = replica(cluster, 1)
    source = replica(cluster, 0)
    blocks, qcs = build_certified_chain(cluster.setup, source.store, 3)
    # Target learns the head QC via a timeout message without the blocks.
    share = cluster.setup.quorum_scheme.sign_share(
        cluster.setup.registry.key_pair(0), ("ftimeout", 0)
    )
    target.deliver(0, FallbackTimeout(view=0, share=share, qc_high=qcs[2]))
    assert target.qc_high.round == 3
    assert blocks[2].id in target._requested_blocks
    cluster.scheduler.run(
        max_events=1_000_000, stop_when=lambda: target.ledger.height >= 1
    )
    # Replica 0 (the chain author / likely holder) answered; commits flowed.
    assert target.ledger.height >= 1


def test_block_request_answered_only_if_known(cluster):
    holder = replica(cluster, 0)
    asker = replica(cluster, 1)
    blocks, _ = build_certified_chain(cluster.setup, holder.store, 1)
    holder.deliver(1, BlockRequest(block_id=blocks[0].id))
    holder.deliver(1, BlockRequest(block_id="unknown"))
    cluster.scheduler.drain()
    assert blocks[0].id in asker.store
    assert "unknown" not in asker.store


def test_block_response_with_invalid_qc_rejected(cluster):
    target = replica(cluster, 1)
    from repro.types.certificates import QC
    from repro.crypto.threshold import ThresholdSignature

    bogus_qc = QC(block_id="x", round=3, view=0,
                  signature=ThresholdSignature(epoch=0, tag="bad", signers=frozenset()))
    bogus_block = Block(qc=bogus_qc, round=4, view=0, author=0)
    target.deliver(0, BlockResponse(block=bogus_block))
    assert bogus_block.id not in target.store


def test_crypto_context_ownership_enforced(cluster):
    config = ProtocolConfig(n=4)
    with pytest.raises(ValueError):
        from repro.core.replica import Replica

        Replica(
            0,
            config,
            cluster.setup.context_for(1),  # wrong key
            cluster.network,
            cluster.scheduler,
        )


def test_observer_defaults_are_noops():
    from repro.core.replica import ReplicaObserver

    observer = ReplicaObserver()
    observer.on_commit(0, None, 0.0)
    observer.on_round_entered(0, 1, 0.0)
    observer.on_timeout(0, 0, 1, 0.0)
    observer.on_fallback_entered(0, 0, 0.0)
    observer.on_fallback_exited(0, 0, 1, 0.0)
    observer.on_proposal(0, None, 0.0)
