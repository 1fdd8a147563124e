"""Scale tests (n >= 64): liveness and determinism at the scale targets.

Marked ``scale`` and excluded from tier-1 (see pyproject addopts); the CI
``scale-smoke`` job runs them with ``-m scale``.  They assert the two
properties the n-scaling work must preserve:

- the simulator stays *live* at n=64 within a bounded wall/sim-time budget
  (the pre-refactor hot paths made n=64 runs minutes long);
- determinism holds at scale: two runs with one seed produce the same
  commit trace and protocol counters;
- the bounded verdict caches lose no hit at n=64, where a fallback view
  verifies the most distinct shares.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

from bench_simcore import fingerprint, protocol_counters, run_scenario  # noqa: E402

from repro.experiments.scenarios import (  # noqa: E402
    build_cluster,
    leader_attack_factory,
)

pytestmark = pytest.mark.scale


def _run_steady_n64(seed: int):
    cluster = build_cluster("fallback-3chain", 64, seed=seed)
    cluster.run_until_commits(100, until=100_000.0)
    return cluster


def test_steady_n64_live_and_deterministic():
    first = _run_steady_n64(seed=3)
    assert first.metrics.decisions() >= 100
    # No fallback should trigger on the synchronous steady path.
    assert first.metrics.fallback_count() == 0
    second = _run_steady_n64(seed=3)
    assert fingerprint(first) == fingerprint(second)
    assert protocol_counters(first) == protocol_counters(second)


def test_fallback_n64_progresses_under_attack():
    cluster = build_cluster(
        "fallback-3chain", 64, seed=3, delay_factory=leader_attack_factory()
    )
    cluster.run_until_commits(5, until=400_000.0)
    metrics = cluster.metrics
    assert metrics.decisions() >= 5
    assert metrics.fallback_count() >= 1
    # Per-decision cost must be quadratic-ish, not worse: at n=64 the
    # view-change machinery dominates, but a super-quadratic regression
    # (e.g. re-broadcast loops) would blow far past this ceiling.
    assert metrics.messages_per_decision() < 64 * 64 * 16


def test_steady_n256_commits():
    cluster = build_cluster("fallback-3chain", 256, seed=3)
    cluster.run_until_commits(10, until=100_000.0)
    assert cluster.metrics.decisions() >= 10


def test_fallback_n64_verdict_caches_keep_every_hit():
    """Hit/miss counts of an unbounded cache, recorded before the caches
    were bounded: a generation size too small for n=64 loses pool hits."""
    result = run_scenario("fallback-n64", seed=1)
    assert {k: result["cert_cache"][k] for k in ("hits", "misses")} == {
        "hits": 91_795,
        "misses": 969,
    }
    assert {k: result["share_pool"][k] for k in ("hits", "misses")} == {
        "hits": 72_712,
        "misses": 47_013,
    }
