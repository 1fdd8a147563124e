#!/usr/bin/env python3
"""Simulator-core benchmark: events/sec and wall-clock for canonical scenarios.

This is the perf baseline for the discrete-event engine and crypto layer —
it measures how fast the *simulator* runs, independent of the protocol
numbers the other benches reproduce.  Scenarios:

- ``steady-n4`` / ``steady-n16`` / ``steady-n64`` / ``steady-n256``: the
  linear fast path under synchrony, up to the scale targets.
- ``fallback-n4`` / ``fallback-n64``: the leader-targeting adversary forces
  the asynchronous fallback every view, exercising the quadratic machinery.
- ``lossy20-n4``: 20% IID loss under reliable channels (retransmission,
  acks and dedup dominate the event count).

Every scenario reports a determinism fingerprint — a digest of the commit
trace plus the protocol counters — so a perf change that perturbs protocol
behaviour is caught by ``--check-determinism`` (two runs, same seed) and by
comparing fingerprints across commits (same seed, same scenario).

Run directly::

    PYTHONPATH=src python benchmarks/bench_simcore.py --scenario steady-n4 \
        --check-determinism

or through :mod:`benchmarks.run_benchmarks`, which runs the canonical set
and records the trajectory in ``BENCH_simcore.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Optional

# Allow running as a plain script from the repo root without installing.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments.scenarios import build_cluster, leader_attack_factory
from repro.net.loss import IIDLoss
from repro.protocols.presets import preset
from repro.runtime.cluster import Cluster, ClusterBuilder


# ----------------------------------------------------------------------
# Scenario definitions
# ----------------------------------------------------------------------
def _build_steady(n: int, seed: int) -> Cluster:
    return build_cluster("fallback-3chain", n, seed=seed)


def _build_fallback(n: int, seed: int) -> Cluster:
    """Leader-targeting adversary: every round times out into the fallback."""
    return build_cluster(
        "fallback-3chain", n, seed=seed, delay_factory=leader_attack_factory()
    )


def _build_lossy(n: int, seed: int, rate: float = 0.2) -> Cluster:
    config = preset("fallback-3chain").config(n)
    return (
        ClusterBuilder(config=config, seed=seed)
        .with_loss_model(IIDLoss(rate))
        .with_preload(10_000)
        .build()
    )


#: name -> (builder, default target commits, default time bound)
SCENARIOS = {
    "steady-n4": (lambda seed: _build_steady(4, seed), 1000, 100_000.0),
    "steady-n16": (lambda seed: _build_steady(16, seed), 400, 100_000.0),
    "steady-n64": (lambda seed: _build_steady(64, seed), 100, 100_000.0),
    "steady-n256": (lambda seed: _build_steady(256, seed), 20, 100_000.0),
    "fallback-n4": (lambda seed: _build_fallback(4, seed), 100, 400_000.0),
    "fallback-n64": (lambda seed: _build_fallback(64, seed), 10, 400_000.0),
    "lossy20-n4": (lambda seed: _build_lossy(4, seed), 400, 100_000.0),
}


# ----------------------------------------------------------------------
# Fingerprinting (determinism checks)
# ----------------------------------------------------------------------
def commit_trace(cluster: Cluster) -> list[tuple]:
    """Event-for-event commit trace: who committed what, when."""
    return [
        (
            event.replica,
            event.position,
            event.round,
            event.view,
            event.fallback_block,
            event.batch_size,
            repr(event.time),
        )
        for event in cluster.metrics.commits
    ]


def protocol_counters(cluster: Cluster) -> dict:
    """The MetricsCollector protocol counters a perf change must not move."""
    metrics = cluster.metrics
    return {
        "decisions": metrics.decisions(),
        "honest_messages": metrics.honest_messages,
        "honest_bytes": metrics.honest_bytes,
        "message_counts": dict(sorted(metrics.message_counts.items())),
        "message_bytes": dict(sorted(metrics.message_bytes.items())),
        "proposals": metrics.proposals,
        "fallbacks": metrics.fallback_count(),
        "timeouts": len(metrics.timeouts),
        "round_entries": len(metrics.round_entries),
        "retransmissions": metrics.retransmissions,
        "acks": metrics.acks,
        "duplicates_suppressed": metrics.duplicates_suppressed,
    }


def fingerprint(cluster: Cluster) -> str:
    """Stable digest of the commit trace + protocol counters."""
    blob = json.dumps(
        {"trace": commit_trace(cluster), "counters": protocol_counters(cluster)},
        sort_keys=True,
    ).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def run_scenario(
    name: str,
    seed: int = 1,
    target_commits: Optional[int] = None,
    max_events: Optional[int] = None,
    until: Optional[float] = None,
) -> dict:
    """Run one scenario; return timing, throughput and fingerprint."""
    try:
        builder, default_commits, default_until = SCENARIOS[name]
    except KeyError:
        raise SystemExit(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    cluster = builder(seed)
    wall_start = time.perf_counter()
    result = cluster.run_until_commits(
        target_commits if target_commits is not None else default_commits,
        until=until if until is not None else default_until,
        max_events=max_events if max_events is not None else 20_000_000,
    )
    wall = time.perf_counter() - wall_start
    events = cluster.scheduler.events_processed
    return {
        "scenario": name,
        "seed": seed,
        "decisions": result.decisions,
        "sim_time": result.stopped_at,
        "events": events,
        "wall_seconds": round(wall, 4),
        "events_per_sec": round(events / wall, 1) if wall > 0 else None,
        "fingerprint": fingerprint(cluster),
        "counters": protocol_counters(cluster),
        # Cache stats ride outside the fingerprint: they are new keys a
        # perf change may move, while the fingerprint must stay fixed.
        "cert_cache": cluster.metrics.cert_cache_counters(),
        "share_pool": cluster.metrics.share_pool_counters(),
    }


def check_determinism(name: str, seed: int, **kwargs) -> dict:
    """Run a scenario twice with the same seed; identical fingerprints."""
    first = run_scenario(name, seed=seed, **kwargs)
    second = run_scenario(name, seed=seed, **kwargs)
    if first["fingerprint"] != second["fingerprint"]:
        raise SystemExit(
            f"DETERMINISM VIOLATION in {name} seed={seed}: "
            f"{first['fingerprint']} != {second['fingerprint']}"
        )
    if first["counters"] != second["counters"]:
        raise SystemExit(
            f"DETERMINISM VIOLATION in {name} seed={seed}: counters differ"
        )
    first["determinism"] = "ok"
    return first


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        action="append",
        choices=sorted(SCENARIOS),
        help="scenario to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--target-commits", type=int, default=None)
    parser.add_argument("--max-events", type=int, default=None)
    parser.add_argument(
        "--check-determinism",
        action="store_true",
        help="run each scenario twice and require identical fingerprints",
    )
    parser.add_argument("--json", type=Path, default=None, help="write results here")
    args = parser.parse_args(argv)

    names = args.scenario or sorted(SCENARIOS)
    results = []
    for name in names:
        kwargs = dict(
            target_commits=args.target_commits, max_events=args.max_events
        )
        if args.check_determinism:
            entry = check_determinism(name, args.seed, **kwargs)
        else:
            entry = run_scenario(name, seed=args.seed, **kwargs)
        results.append(entry)
        print(
            f"{name:<14} seed={entry['seed']} decisions={entry['decisions']:<5} "
            f"events={entry['events']:<8} wall={entry['wall_seconds']:.3f}s "
            f"events/sec={entry['events_per_sec']:,.0f} "
            f"fp={entry['fingerprint'][:12]}"
            + (" determinism=ok" if entry.get("determinism") else "")
        )
    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
