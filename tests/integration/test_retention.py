"""What a decision leaves behind is bounded or shared, with nothing lost.

- The verdict caches keep two bounded generations; at the sizes dealt they
  serve every hit an unbounded cache would.
- A leader's vote accumulators and formed-QC marks are pruned with the
  round horizon, and late votes below it form no QC.
- Commit events share the committed batch; their latencies equal the
  values an eager per-event copy recorded.
- The ledger's tx index stores positions only; ``commit_location`` still
  answers the first commit's (position, block id).
"""

from __future__ import annotations

import sys
from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

from bench_simcore import SCENARIOS  # noqa: E402

from repro.core import context  # noqa: E402
from repro.crypto.verdicts import GENERATION_SIZE, VerdictCache  # noqa: E402
from repro.experiments.scenarios import (  # noqa: E402
    build_cluster,
    leader_attack_factory,
)
from repro.types.messages import Vote  # noqa: E402


class _UnboundedCache(VerdictCache):
    def __init__(self, enabled: bool = True) -> None:
        super().__init__(enabled=enabled, max_entries=1 << 40)


def _attack_n16():
    cluster = build_cluster(
        "fallback-3chain", 16, seed=1, delay_factory=leader_attack_factory()
    )
    cluster.run_until_commits(100, until=400_000.0)
    return cluster


def _fallback_n4():
    builder, commits, until = SCENARIOS["fallback-n4"]
    cluster = builder(1)
    cluster.run_until_commits(commits, until=until)
    return cluster


def _hits_and_misses(cluster) -> dict[str, tuple[int, int]]:
    metrics = cluster.metrics
    return {
        name: (counters["hits"], counters["misses"])
        for name, counters in (
            ("cert_cache", metrics.cert_cache_counters()),
            ("share_pool", metrics.share_pool_counters()),
        )
    }


def _bounded_and_unbounded(run, monkeypatch):
    bounded = run()
    with monkeypatch.context() as patch:
        patch.setattr(context, "VerdictCache", _UnboundedCache)
        unbounded = run()
    return bounded, unbounded


def test_generations_lose_no_hit_in_fallback_n4(monkeypatch):
    bounded, unbounded = _bounded_and_unbounded(_fallback_n4, monkeypatch)
    assert _hits_and_misses(bounded) == _hits_and_misses(unbounded)


def test_generations_lose_no_hit_under_n16_attack(monkeypatch):
    bounded, unbounded = _bounded_and_unbounded(_attack_n16, monkeypatch)
    assert _hits_and_misses(bounded) == _hits_and_misses(unbounded)
    pool = bounded.metrics.share_pool_counters()
    # Long enough that a whole generation was dropped.
    assert pool["misses"] > 2 * GENERATION_SIZE
    assert pool["entries"] <= 2 * GENERATION_SIZE


def test_vote_state_stays_bounded_over_200_rounds():
    cluster = build_cluster("fallback-3chain", 4, seed=1)
    peak = 0

    def sample(replica: int, round_number: int, now: float) -> None:
        nonlocal peak
        peak = max(peak, max(len(r._vote_shares) for r in cluster.replicas))

    cluster.metrics.round_entry_listeners.append(sample)
    cluster.run_until_commits(200, until=100_000.0)
    assert min(r.r_cur for r in cluster.replicas) > 200
    assert peak <= 4


def test_late_votes_below_the_horizon_form_no_qc():
    cluster = build_cluster("fallback-3chain", 4, seed=1)
    cluster.run_until_commits(20, until=100_000.0)
    old = cluster.replicas[0].ledger.records[0].block
    # A replica that never aggregated this round, so nothing was formed.
    collector = cluster.replicas[0].schedule.leader(old.round + 1)
    replica = cluster.replicas[(collector + 1) % 4]
    assert old.round < replica._vote_horizon()
    formed = []
    replica.process_certificate = formed.append
    payload = ("vote", old.id, old.round, old.view)
    for voter in range(cluster.config.quorum_size):
        share = cluster.setup.quorum_scheme.sign_share(
            cluster.setup.registry.key_pair(voter), payload
        )
        replica.deliver(
            voter, Vote(block_id=old.id, round=old.round, view=old.view, share=share)
        )
    assert formed == []
    assert payload not in replica._vote_shares


def test_commit_latencies_equal_eager_values():
    cluster = _fallback_n4()
    metrics = cluster.metrics
    eager = [
        event.time - tx.submitted_at
        for event in metrics.commits
        if event.replica in metrics.honest_ids
        for tx in event.batch
    ]
    assert eager
    assert metrics.commit_latencies() == eager
    for event in metrics.commits:
        assert event.batch_size == len(event.tx_latencies)


def test_commit_location_matches_first_commit_index():
    cluster = _fallback_n4()
    for replica in cluster.replicas:
        ledger = replica.ledger
        first: dict[str, tuple[int, str]] = {}
        for record in ledger.records:
            for tx in record.block.batch:
                first.setdefault(tx.tx_id, (record.position, record.block.id))
        assert first
        for tx_id, location in first.items():
            assert ledger.commit_location(tx_id) == location
