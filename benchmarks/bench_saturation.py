#!/usr/bin/env python3
"""E14 — saturation: max sustainable throughput and the latency knee.

Binary-searches the max sustainable offered rate (goodput >= 95% of
offered) for each canonical traffic scenario — steady state at n in
{4, 16, 64}, a 20%-loss network, and the leader-targeting asynchronous
adversary (fallback-heavy) — plus one **live wall-clock** probe ladder over
real localhost TCP, and an adaptive-vs-fixed batching comparison at the
steady-n4 knee.  Results append to ``BENCH_traffic.json`` at the repo root
(one history entry per invocation, like the other BENCH files).

Usage::

    PYTHONPATH=src python benchmarks/bench_saturation.py --label "my change"
    PYTHONPATH=src python benchmarks/bench_saturation.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_saturation.py --no-live
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time
from pathlib import Path
from typing import Optional

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from run_benchmarks import git_commit  # noqa: E402

from repro.traffic.saturation import (  # noqa: E402
    compare_batching,
    default_scenarios,
    find_knee,
)

RESULTS_PATH = _REPO_ROOT / "BENCH_traffic.json"

#: Live probe ladder: wall-clock rates tried lowest-first; the knee is the
#: highest sustainable one.  Kept coarse — every probe costs real seconds.
LIVE_RATES = (50.0, 200.0, 800.0)


def run_live_ladder(
    rates=LIVE_RATES,
    duration: float = 4.0,
    drain: float = 8.0,
    seed: int = 1,
) -> dict:
    """Wall-clock open-loop probes over real TCP (n=4, 1s round timeout)."""
    from repro.runtime.live import LiveCluster

    probes = []
    knee_rate = 0.0
    knee: Optional[dict] = None
    for rate in rates:
        cluster = LiveCluster(n=4, seed=seed, round_timeout=1.0, preload=0)
        result = cluster.run_open_loop(
            rate, duration, drain=drain, mempool_capacity=1600, loadgen_seed=seed
        )
        result["sustainable"] = result["goodput_ratio"] >= 0.95
        probes.append(result)
        print(
            f"  live rate={rate:>6g}/s goodput={result['goodput']:.1f} "
            f"ratio={result['goodput_ratio']:.3f} "
            f"p50={result['latency']['p50']} rejects={result['rejected']} "
            f"consistent={result['ledgers_consistent']}"
        )
        if result["sustainable"] and result["ledgers_consistent"]:
            knee_rate, knee = rate, result
    return {
        "scenario": {"name": "live-n4", "n": 4, "network": "tcp-localhost"},
        "max_sustainable_rate": knee_rate,
        "knee": knee,
        "curve": probes,
    }


def run_traffic_bench(
    seed: int = 1,
    duration: float = 120.0,
    drain: float = 60.0,
    include_live: bool = True,
    live_duration: float = 4.0,
    sizes: Optional[list[str]] = None,
) -> dict:
    scenarios = default_scenarios()
    if sizes:
        scenarios = {name: scenarios[name] for name in sizes}
    report: dict = {"scenarios": {}}
    for name, scenario in scenarios.items():
        start = time.perf_counter()
        result = find_knee(scenario, duration=duration, drain=drain, seed=seed)
        report["scenarios"][name] = result.to_json()
        knee = result.knee
        print(
            f"{name:<12} knee={result.knee_rate:>7g}/s "
            f"goodput={knee.goodput if knee else 0:>7.1f} "
            f"p50={knee.latency.p50 if knee else None} "
            f"p99={knee.latency.p99 if knee else None} "
            f"probes={len(result.curve)} "
            f"wall={time.perf_counter() - start:.1f}s"
        )
    if "steady-n4" in report["scenarios"]:
        knee_rate = report["scenarios"]["steady-n4"]["max_sustainable_rate"]
        comparison = compare_batching(
            default_scenarios()["steady-n4"], knee_rate,
            duration=duration, drain=drain, seed=seed,
        )
        report["batching_comparison"] = comparison
        print(
            f"adaptive vs fixed at {knee_rate:g}/s: adaptive committed "
            f"{comparison['adaptive']['committed']}, best fixed "
            f"(batch={comparison['best_fixed_size']}) committed "
            f"{comparison['fixed'][str(comparison['best_fixed_size'])]['committed']}"
            f" -> matches={comparison['adaptive_matches_best_fixed']}"
        )
    if include_live:
        print("live-n4 ladder:")
        report["scenarios"]["live-n4"] = run_live_ladder(
            duration=live_duration, seed=seed
        )
    return report


def load_history(path: Path = RESULTS_PATH) -> list[dict]:
    if path.exists():
        return json.loads(path.read_text())
    return []


def append_entry(entry: dict, path: Path = RESULTS_PATH) -> None:
    history = load_history(path)
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="entry label")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--drain", type=float, default=60.0)
    parser.add_argument("--no-live", action="store_true",
                        help="skip the wall-clock TCP scenario")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced budget (shorter probes, no n=64): the CI smoke",
    )
    parser.add_argument("--no-record", action="store_true",
                        help="print results without touching BENCH_traffic.json")
    args = parser.parse_args(argv)

    kwargs: dict = {
        "seed": args.seed,
        "duration": args.duration,
        "drain": args.drain,
        "include_live": not args.no_live,
    }
    if args.quick:
        kwargs.update(
            duration=40.0, drain=30.0, live_duration=2.0,
            sizes=["steady-n4", "steady-n16", "lossy20-n4", "fallback-n4"],
        )
    results = run_traffic_bench(**kwargs)

    entry = {
        "label": args.label or ("quick" if args.quick else "run"),
        "commit": git_commit(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "quick": args.quick,
        "results": results,
    }
    if args.no_record:
        print("(--no-record: not writing BENCH_traffic.json)")
        return 0
    append_entry(entry)
    print(f"recorded entry in {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
