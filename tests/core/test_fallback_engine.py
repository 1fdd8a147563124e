"""Unit tests for the fallback engine, driven message by message."""

import pytest

from repro.core.config import ProtocolConfig
from repro.runtime.cluster import ClusterBuilder
from repro.types.blocks import FallbackBlock
from repro.types.certificates import FallbackTC
from repro.types.messages import (
    CoinQCMessage,
    CoinShareMessage,
    FallbackProposal,
    FallbackQCMessage,
    FallbackTimeout,
)

from tests.core.conftest import build_fallback_chain, make_real_fqc


@pytest.fixture
def cluster():
    return ClusterBuilder(n=4, seed=2).with_preload(20).build()


def make_ftc(cluster, view=0):
    scheme = cluster.setup.quorum_scheme
    payload = ("ftimeout", view)
    shares = [scheme.sign_share(cluster.setup.registry.key_pair(i), payload)
              for i in range(3)]
    return FallbackTC(view=view, signature=scheme.combine(shares, payload))


def timeout_from(cluster, sender, view=0):
    scheme = cluster.setup.quorum_scheme
    share = scheme.sign_share(cluster.setup.registry.key_pair(sender), ("ftimeout", view))
    qc_high = cluster.replicas[sender].qc_high
    return FallbackTimeout(view=view, share=share, qc_high=qc_high)


def test_local_timeout_sets_fallback_mode_and_multicasts(cluster):
    replica = cluster.replicas[0]
    replica.fallback.on_local_timeout()
    assert replica.fallback_mode
    sent = cluster.metrics.message_counts.get("FallbackTimeout", 0)
    assert sent == 3  # n-1 network sends (self-delivery free)


def test_timeout_is_sent_once_per_view(cluster):
    replica = cluster.replicas[0]
    replica.fallback.on_local_timeout()
    replica.fallback.on_local_timeout()
    assert cluster.metrics.message_counts["FallbackTimeout"] == 3


def test_quorum_of_timeouts_enters_fallback(cluster):
    replica = cluster.replicas[0]
    for sender in (1, 2):
        replica.deliver(sender, timeout_from(cluster, sender))
    assert replica.fallback.entered_view == -1
    replica.deliver(3, timeout_from(cluster, 3))
    assert replica.fallback.entered_view == 0
    assert replica.fallback_mode
    assert replica.v_cur == 0
    # Entering proposed the height-1 f-block.
    assert (0, 1) in replica.fallback._own_blocks


def test_ftc_alone_enters_fallback(cluster):
    replica = cluster.replicas[1]
    ftc = make_ftc(cluster)
    replica.fallback.maybe_enter_fallback(ftc)
    assert replica.fallback.entered_view == 0
    # Re-entry for the same view must be a no-op (vote maps not reset).
    state = replica.safety.fallback_votes
    replica.fallback.maybe_enter_fallback(ftc)
    assert replica.safety.fallback_votes is state


def test_stale_ftc_ignored(cluster):
    replica = cluster.replicas[1]
    replica.v_cur = 2
    replica.fallback.maybe_enter_fallback(make_ftc(cluster, view=1))
    assert replica.fallback.entered_view == -1
    assert not replica.fallback_mode


def test_height1_proposal_gets_vote(cluster):
    proposer, voter = cluster.replicas[0], cluster.replicas[1]
    ftc = make_ftc(cluster)
    voter.fallback.maybe_enter_fallback(ftc)
    fblock = FallbackBlock(
        qc=proposer.qc_high, round=1, view=0, height=1, proposer=0,
    )
    voter.deliver(0, FallbackProposal(fblock=fblock, ftc=ftc))
    votes = voter.safety.fallback_votes
    assert votes.voted_height(0) == 1
    assert votes.voted_round(0) == 1


def test_height1_without_ftc_rejected(cluster):
    voter = cluster.replicas[1]
    voter.fallback.maybe_enter_fallback(make_ftc(cluster))
    fblock = FallbackBlock(qc=voter.qc_high, round=1, view=0, height=1, proposer=0)
    voter.deliver(0, FallbackProposal(fblock=fblock, ftc=None))
    assert voter.safety.fallback_votes.voted_height(0) == 0


def test_proposer_field_must_match_sender(cluster):
    voter = cluster.replicas[1]
    ftc = make_ftc(cluster)
    voter.fallback.maybe_enter_fallback(ftc)
    fblock = FallbackBlock(qc=voter.qc_high, round=1, view=0, height=1, proposer=0)
    voter.deliver(2, FallbackProposal(fblock=fblock, ftc=ftc))  # sent by 2
    assert voter.safety.fallback_votes.voted_height(0) == 0


def test_full_fallback_round_trip_commits(cluster):
    """Drive all four replicas through a complete fallback by scheduler."""
    for replica in cluster.replicas:
        replica.fallback.on_local_timeout()

    def exited_and_committed():
        return (
            all(not r.fallback_mode and r.v_cur == 1 for r in cluster.replicas)
            and cluster.metrics.decisions() >= 1
        )

    cluster.scheduler.run(max_events=500_000, stop_when=exited_and_committed)
    # Everyone exited into view 1 and someone committed the endorsed chain
    # (probability over the coin is 1 here because all four chains complete).
    for replica in cluster.replicas:
        assert not replica.fallback_mode
        assert replica.v_cur == 1
    assert cluster.metrics.decisions() >= 1
    assert cluster.metrics.fallback_count() == 1


def test_top_height_fqc_broadcast_counts_completions(cluster):
    replica = cluster.replicas[0]
    replica.fallback.maybe_enter_fallback(make_ftc(cluster))
    base = replica.qc_high
    completions = 0
    for proposer in range(1, 4):
        fblocks, fqcs = build_fallback_chain(
            cluster.setup, replica.store, view=0, proposer=proposer, base_qc=base
        )
        replica.deliver(proposer, FallbackQCMessage(fqc=fqcs[2]))
        completions += 1
        if completions < 3:
            assert 0 not in replica.fallback._coin_share_sent
    assert 0 in replica.fallback._coin_share_sent


def test_non_top_fqc_message_ignored_for_completion(cluster):
    replica = cluster.replicas[0]
    replica.fallback.maybe_enter_fallback(make_ftc(cluster))
    fblocks, fqcs = build_fallback_chain(
        cluster.setup, replica.store, view=0, proposer=1, base_qc=replica.qc_high
    )
    replica.deliver(1, FallbackQCMessage(fqc=fqcs[0]))  # height 1
    assert replica.fallback._completed.get(0, set()) == set()


def test_coin_shares_reveal_and_exit(cluster):
    replica = cluster.replicas[0]
    replica.fallback.maybe_enter_fallback(make_ftc(cluster))
    for sender in (1, 2):
        share = cluster.setup.coin.share(cluster.setup.registry.key_pair(sender), 0)
        replica.deliver(sender, CoinShareMessage(share=share))
    assert not replica.fallback_mode
    assert replica.v_cur == 1
    assert 0 in replica.fallback.coin_qcs


def test_coin_qc_message_exits_fallback(cluster):
    replica = cluster.replicas[0]
    replica.fallback.maybe_enter_fallback(make_ftc(cluster))
    coin = cluster.setup.coin
    view = 0
    coin_qc_value = coin._value(view)
    from repro.types.certificates import CoinQC

    coin_qc = CoinQC(view=view, leader=coin_qc_value,
                     proof_tag=coin.leader_proof_tag(view))
    replica.deliver(2, CoinQCMessage(coin_qc=coin_qc))
    assert not replica.fallback_mode
    assert replica.v_cur == 1
    # Duplicate coin-QC delivery is idempotent.
    replica.deliver(3, CoinQCMessage(coin_qc=coin_qc))
    assert replica.v_cur == 1


def test_forged_coin_qc_rejected(cluster):
    replica = cluster.replicas[0]
    replica.fallback.maybe_enter_fallback(make_ftc(cluster))
    from repro.types.certificates import CoinQC

    fake = CoinQC(view=0, leader=1, proof_tag="not-the-real-proof")
    replica.deliver(2, CoinQCMessage(coin_qc=fake))
    assert replica.fallback_mode  # still inside


def test_endorsed_chain_commit_on_exit(cluster):
    """If the elected leader's full chain is known at exit, it commits."""
    replica = cluster.replicas[0]
    replica.fallback.maybe_enter_fallback(make_ftc(cluster))
    coin = cluster.setup.coin
    leader = coin._value(0)
    base = replica.qc_high
    fblocks, fqcs = build_fallback_chain(
        cluster.setup, replica.store, view=0, proposer=leader, base_qc=base
    )
    for fqc in fqcs:
        replica.fallback.record_fqc(fqc)
    from repro.types.certificates import CoinQC

    coin_qc = CoinQC(view=0, leader=leader, proof_tag=coin.leader_proof_tag(0))
    replica.fallback.exit_fallback(coin_qc)
    assert replica.ledger.height >= 1
    committed = replica.ledger.committed_blocks()
    assert committed[0].id == fblocks[0].id
    # qc_high is the endorsed top f-QC; r_vote adopted from the leader map.
    assert replica.qc_high.rank.endorsed
    assert replica.qc_high.round == fblocks[2].round


def test_adoption_extends_foreign_chain():
    config = ProtocolConfig(n=4, fallback_adoption=True)
    cluster = ClusterBuilder(config=config, seed=3).with_preload(20).build()
    replica = cluster.replicas[0]
    scheme = cluster.setup.quorum_scheme
    payload = ("ftimeout", 0)
    shares = [scheme.sign_share(cluster.setup.registry.key_pair(i), payload)
              for i in range(3)]
    ftc = FallbackTC(view=0, signature=scheme.combine(shares, payload))
    replica.fallback.maybe_enter_fallback(ftc)
    # A foreign certified height-1 f-block appears before our own certifies.
    foreign = FallbackBlock(qc=replica.qc_high, round=1, view=0, height=1, proposer=2)
    replica.store.add(foreign)
    fqc = make_real_fqc(cluster.setup, foreign)
    replica.fallback.record_fqc(fqc)
    own_h2 = replica.fallback._own_blocks.get((0, 2))
    assert own_h2 is not None
    assert own_h2.parent_id == foreign.id  # adopted, not waiting for our h1
