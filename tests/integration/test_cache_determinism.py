"""Caches must be invisible: cached and bypass runs are event-identical.

The verified-certificate cache is a pure-function table of verification
verdicts; enabling it must not change a single protocol decision.  These
tests run the same seeded cluster with the cache engaged and bypassed, and
require identical commit traces and metrics counters.
"""

from repro.experiments.scenarios import leader_attack_factory
from repro.runtime.cluster import Cluster, ClusterBuilder
from repro.protocols.presets import preset


def _commit_trace(cluster: Cluster) -> list[tuple]:
    return [
        (
            event.replica,
            event.position,
            event.round,
            event.view,
            event.fallback_block,
            event.batch_size,
            event.time,
        )
        for event in cluster.metrics.commits
    ]


def _counters(cluster: Cluster) -> dict:
    metrics = cluster.metrics
    return {
        "decisions": metrics.decisions(),
        "honest_messages": metrics.honest_messages,
        "honest_bytes": metrics.honest_bytes,
        "message_counts": dict(metrics.message_counts),
        "message_bytes": dict(metrics.message_bytes),
        "proposals": metrics.proposals,
        "fallbacks": metrics.fallback_count(),
        "timeouts": len(metrics.timeouts),
        "round_entries": len(metrics.round_entries),
    }


def _run_steady(seed: int, cert_cache: bool) -> Cluster:
    config = preset("fallback-3chain").config(4)
    cluster = (
        ClusterBuilder(config=config, seed=seed)
        .with_cert_cache(cert_cache)
        .with_preload(500)
        .build()
    )
    cluster.run_until_commits(30, until=20_000)
    return cluster


def test_steady_run_identical_with_and_without_cert_cache():
    for seed in (1, 2, 3):
        cached = _run_steady(seed, cert_cache=True)
        bypass = _run_steady(seed, cert_cache=False)
        assert _commit_trace(cached) == _commit_trace(bypass)
        assert _counters(cached) == _counters(bypass)
        # The cached run actually exercised the cache...
        assert cached.metrics.cert_cache_counters()["hits"] > 0
        # ...and the bypass run recorded nothing.
        assert bypass.metrics.cert_cache_counters() == {
            "hits": 0,
            "misses": 0,
            "entries": 0,
            "invalidations": 0,
        }


def test_fallback_run_identical_with_and_without_cert_cache():
    """Forced-fallback path: coin QCs, f-QCs and f-TCs all flow through the
    cache; leader election must still come out identical."""
    config = preset("fallback-3chain").config(4)

    def run(cert_cache: bool) -> Cluster:
        cluster = (
            ClusterBuilder(config=config, seed=2)
            .with_cert_cache(cert_cache)
            .with_delay_model_factory(leader_attack_factory())
            .with_preload(500)
            .build()
        )
        cluster.run_until_commits(5, until=100_000)
        return cluster

    cached = run(True)
    bypass = run(False)
    assert _commit_trace(cached) == _commit_trace(bypass)
    assert _counters(cached) == _counters(bypass)
    assert cached.metrics.fallback_count() > 0
    assert cached.metrics.cert_cache_counters()["hits"] > 0
