"""Reusable experiment scenarios shared by examples and benchmarks."""

from repro.experiments.scenarios import (
    build_cluster,
    leader_attack_factory,
    run_async_attack,
    run_sync,
)

__all__ = [
    "build_cluster",
    "leader_attack_factory",
    "run_async_attack",
    "run_sync",
]
