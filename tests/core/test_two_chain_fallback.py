"""Section 4 specifics: the 2-chain variant's fallback under a 1-chain lock.

The paper: "with 2-chain commit and 1-chain lock, only one honest replica
may have the highest QC among all honest replicas when entering the
asynchronous fallback.  Then only the fallback-chain proposed by h will get
2f+1 votes...  A straightforward solution is to allow replicas to adopt
f-chains from other replicas."  These tests construct that exact situation
deterministically and verify that adoption restores liveness.
"""

from repro.core.config import ProtocolConfig, ProtocolVariant
from repro.runtime.cluster import ClusterBuilder

from tests.core.conftest import build_certified_chain


def build_cluster(adoption: bool, seed=151):
    config = ProtocolConfig(
        n=4,
        variant=ProtocolVariant.FALLBACK_2CHAIN,
        fallback_adoption=adoption,
    )
    return ClusterBuilder(config=config, seed=seed).with_preload(50).build()


def lopsided_locks(cluster):
    """Give replica 0 a QC one round higher than everyone else sees.

    Under the 1-chain lock, replica 0 locks at round 2 while replicas 1-3
    lock at round 1 — the Section 4 scenario where only chains built on
    replica 0's qc_high can gather votes from replica 0.
    """
    blocks, qcs = build_certified_chain(cluster.setup, cluster.replicas[0].store, 2)
    for replica in cluster.replicas:
        for block in blocks:
            replica.store.add(block)
    # Everyone sees the round-1 QC...
    for replica in cluster.replicas:
        replica.process_certificate(qcs[0])
    # ...but only replica 0 sees the round-2 QC.
    cluster.replicas[0].process_certificate(qcs[1])
    assert cluster.replicas[0].safety.rank_lock.round == 2
    assert all(
        cluster.replicas[i].safety.rank_lock.round == 1 for i in (1, 2, 3)
    )
    return qcs


def enter_all(cluster, resolved=None):
    """Time out every replica and run until ``resolved()`` holds.

    Without a predicate the run drains the event queue (the deadlock case,
    where the fallback never resolves).
    """
    for replica in cluster.replicas:
        replica.fallback.on_local_timeout()
    cluster.scheduler.run(max_events=500_000, stop_when=resolved)


def test_without_adoption_the_one_chain_lock_deadlocks():
    """The Section 4 hazard, reproduced deterministically.

    Timeout messages carry replica 0's high QC; under the **1-chain lock**
    every recipient immediately locks on it, so height-1 f-blocks proposed
    (a beat earlier) on the stale QC can never gather votes.  Here only the
    chains of the replicas that saw the high QC *before* proposing (0 and
    one lucky other) complete — fewer than 2f+1 — so the election never
    triggers and the fallback never ends.  This is exactly why the paper
    says adoption is needed for the 2-chain variant, and why
    ``ProtocolConfig.adoption_enabled`` defaults to True for it.
    """
    cluster = build_cluster(adoption=False)
    lopsided_locks(cluster)
    enter_all(cluster)
    stuck = [replica for replica in cluster.replicas if replica.fallback_mode]
    assert stuck, "expected the documented Section 4 deadlock"
    completed_chains = {
        proposer
        for replica in cluster.replicas
        for (_view, proposer, height) in replica.fallback.fqcs
        if height == 2
    }
    assert len(completed_chains) < cluster.config.quorum_size
    # Safety is never in question — only progress.
    from repro.analysis.safety import assert_cluster_safety

    assert_cluster_safety(cluster.honest_replicas())


def test_fallback_completes_with_adoption():
    cluster = build_cluster(adoption=True)
    lopsided_locks(cluster)
    enter_all(
        cluster,
        lambda: all(
            not replica.fallback_mode and replica.v_cur == 1
            for replica in cluster.replicas
        ),
    )
    for replica in cluster.replicas:
        assert not replica.fallback_mode
        assert replica.v_cur == 1
    # Progress: someone committed the endorsed 2-chain (probability 1 here
    # if all chains completed; at least the protocol moved on).
    from repro.analysis.safety import assert_cluster_safety

    assert_cluster_safety(cluster.honest_replicas())


def test_two_chain_fallback_chains_have_two_heights():
    cluster = build_cluster(adoption=True)
    lopsided_locks(cluster)
    enter_all(
        cluster,
        lambda: any(
            height == 2
            for replica in cluster.replicas
            for (_view, _proposer, height) in replica.fallback.fqcs
        ),
    )
    heights = {
        height
        for replica in cluster.replicas
        for (_view, _proposer, height) in replica.fallback.fqcs
    }
    assert heights <= {1, 2}
    assert 2 in heights


def test_endorsed_two_chain_commits_at_exit():
    """When the elected leader's 2-height chain is fully known, exiting
    commits its height-1 block (the 2-chain commit rule)."""
    commits_seen = 0
    for seed in range(6):
        cluster = build_cluster(adoption=True, seed=160 + seed)
        lopsided_locks(cluster)
        enter_all(cluster, lambda: cluster.metrics.decisions() > 0)
        if cluster.metrics.decisions() > 0:
            commits_seen += 1
    # Per Lemma 7's logic the per-fallback commit probability is ~2f+1/n;
    # over 6 independent fallbacks, at least one commit is overwhelming.
    assert commits_seen >= 1
