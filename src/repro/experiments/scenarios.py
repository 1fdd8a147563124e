"""Canonical experiment scenarios.

Every benchmark and example builds its runs through these helpers, so "run
protocol P at size n under network N" means the same thing everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from repro.core.config import ProtocolConfig
from repro.net.conditions import DelayModel, LeaderTargetingAdversary, SynchronousDelay
from repro.protocols.presets import preset
from repro.runtime.cluster import Cluster, ClusterBuilder, RunResult
from repro.runtime.parallel import run_seed_sweep

#: Attack delay used by the leader-targeting asynchronous adversary.  Far
#: beyond the default 5s round timeout, so targeted rounds always fail.
ATTACK_DELAY = 60.0


def leader_attack_factory(
    attack_delay: float = ATTACK_DELAY,
) -> Callable[[Cluster], DelayModel]:
    """Delay-model factory wiring the adversary to the cluster's leader
    oracle (the adversary always knows the current leaders)."""

    def factory(cluster: Cluster) -> DelayModel:
        return LeaderTargetingAdversary(
            targets=cluster.current_leaders, attack_delay=attack_delay
        )

    return factory


def build_cluster(
    protocol: str,
    n: int,
    seed: int = 0,
    delay_model: Optional[DelayModel] = None,
    delay_factory: Optional[Callable[[Cluster], DelayModel]] = None,
    config: Optional[ProtocolConfig] = None,
    preload: int = 10_000,
) -> Cluster:
    """Build a cluster for a named protocol preset."""
    if config is None:
        config = preset(protocol).config(n)
    builder = ClusterBuilder(config=config, seed=seed).with_preload(preload)
    if delay_factory is not None:
        builder.with_delay_model_factory(delay_factory)
    else:
        builder.with_delay_model(delay_model or SynchronousDelay())
    return builder.build()


@dataclass
class ScenarioResult:
    """Uniform result record for table-producing experiments."""

    protocol: str
    n: int
    network: str
    decisions: int
    messages_per_decision: Optional[float]
    bytes_per_decision: Optional[float]
    fallbacks: int
    duration: float

    @property
    def live(self) -> bool:
        return self.decisions > 0


def run_sync(
    protocol: str,
    n: int,
    seed: int = 0,
    target_commits: int = 50,
    until: float = 20_000.0,
) -> ScenarioResult:
    """Synchronous network, honest replicas — the paper's fast-path cell."""
    cluster = build_cluster(protocol, n, seed=seed)
    result = cluster.run_until_commits(target_commits, until=until)
    return _summarize(protocol, n, "sync", cluster, result)


def run_async_attack(
    protocol: str,
    n: int,
    seed: int = 0,
    target_commits: int = 10,
    until: float = 50_000.0,
) -> ScenarioResult:
    """Leader-targeting asynchronous adversary — the paper's bad-network cell.

    The run also stops at ``until`` even with zero commits, which is how the
    DiemBFT baseline's liveness failure is recorded.
    """
    cluster = build_cluster(protocol, n, seed=seed, delay_factory=leader_attack_factory())
    result = cluster.run_until_commits(target_commits, until=until)
    return _summarize(protocol, n, "async(leader-attack)", cluster, result)


def sweep_sync(
    protocol: str,
    n: int,
    seeds: Sequence[int],
    target_commits: int = 50,
    until: float = 20_000.0,
    processes: Optional[int] = None,
) -> list[ScenarioResult]:
    """:func:`run_sync` over many seeds, one worker process per core.

    Each seed is an independent deterministic run, so the sweep returns
    exactly what a serial loop would — just faster on multicore hosts.
    """
    task = partial(
        _run_sync_seed, protocol, n, target_commits=target_commits, until=until
    )
    return run_seed_sweep(task, seeds, processes=processes)


def _run_sync_seed(
    protocol: str, n: int, seed: int, target_commits: int, until: float
) -> ScenarioResult:
    # Module-level so functools.partial over it pickles into fork workers.
    return run_sync(protocol, n, seed=seed, target_commits=target_commits, until=until)


def _summarize(
    protocol: str, n: int, network: str, cluster: Cluster, result: RunResult
) -> ScenarioResult:
    metrics = cluster.metrics
    return ScenarioResult(
        protocol=protocol,
        n=n,
        network=network,
        decisions=metrics.decisions(),
        messages_per_decision=metrics.messages_per_decision(),
        bytes_per_decision=metrics.bytes_per_decision(),
        fallbacks=metrics.fallback_count(),
        duration=result.stopped_at,
    )
