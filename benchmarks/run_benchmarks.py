#!/usr/bin/env python3
"""Benchmark driver: run the canonical simulator scenarios and track the
throughput trajectory in ``BENCH_simcore.json`` at the repo root.

Each invocation appends one entry — ``{label, commit, timestamp, results}``
— so the file accumulates a perf history across commits.  Two extra checks
gate every recorded run:

- **determinism**: each scenario runs twice with the same seed and must
  produce identical fingerprints (see :mod:`benchmarks.bench_simcore`);
- **parallel sweep**: an 8-seed sweep through
  :func:`repro.runtime.parallel.run_seed_sweep` must match the serial loop
  result-for-result.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --label "my change"
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick   # smoke only
    PYTHONPATH=src python benchmarks/run_benchmarks.py --profile # cProfile
    PYTHONPATH=src python benchmarks/run_benchmarks.py \
        --import-results old.json --label baseline --commit abc1234
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path
from typing import Optional

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

sys.path.insert(0, str(_REPO_ROOT / "benchmarks"))

from bench_simcore import SCENARIOS, check_determinism, run_scenario  # noqa: E402

from repro.experiments.scenarios import sweep_sync  # noqa: E402

RESULTS_PATH = _REPO_ROOT / "BENCH_simcore.json"
LIVE_RESULTS_PATH = _REPO_ROOT / "BENCH_live.json"

SWEEP_SEEDS = list(range(1, 9))


def git_commit(root: Path = _REPO_ROOT) -> str:
    """Short HEAD sha of ``root``, suffixed ``-dirty`` when a tracked file
    differs from HEAD (the record then does not describe that commit)."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip()

    try:
        head = git("rev-parse", "--short", "HEAD")
        if not head:
            return "unknown"
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return f"{head}-dirty" if dirty else head
    except OSError:
        return "unknown"


def load_history(path: Path = RESULTS_PATH) -> list[dict]:
    if path.exists():
        return json.loads(path.read_text())
    return []


def append_entry(entry: dict, path: Path = RESULTS_PATH) -> None:
    history = load_history(path)
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")


def run_live(args, timestamp: str) -> int:
    """Run the multi-process chaos benchmark into ``BENCH_live.json``.

    Wall-clock figures, not fingerprints: the entry records the host's
    actual throughput/latency/recovery numbers for this commit.
    """
    from bench_live import run_live_chaos

    results = run_live_chaos(
        n=args.live_n,
        kills=args.live_kills,
        target_commits=args.live_commits,
        duration=args.live_duration,
        seed=args.seed,
    )
    swarm = results.get("swarm") or {}
    print(
        f"live chaos: {results['commits']} commits in "
        f"{results['wall_seconds']:.1f}s, {results['kills_executed']} kills, "
        f"max recovery {results['recovery_seconds_max']}, "
        f"swarm p50 {swarm.get('latency_p50')}, "
        f"consistent={results['prefixes_consistent']}"
    )
    if not results["ok"]:
        print("LIVE CHAOS RUN FAILED (inconsistent prefixes, timeout, or "
              "commit target missed); not recording")
        return 2
    entry = {
        "label": args.label or "live",
        "commit": git_commit(),
        "timestamp": timestamp,
        "results": results,
    }
    if args.comment:
        entry["comment"] = args.comment
    append_entry(entry, LIVE_RESULTS_PATH)
    print(f"recorded entry in {LIVE_RESULTS_PATH}")
    return 0


def run_profile(scenario: str, seed: int, top: int = 25) -> int:
    """cProfile one scenario and print the hottest functions.

    Used to find the next hot path: run it before and after an
    optimization and compare the cumulative-time table.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    entry = run_scenario(scenario, seed=seed)
    profiler.disable()
    print(
        f"{scenario}: {entry['decisions']} decisions, {entry['events']} events "
        f"in {entry['wall_seconds']:.2f}s "
        f"({entry['events_per_sec']:,.0f} events/sec)\n"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)
    return 0


def check_parallel_sweep(processes: int = 2) -> dict:
    """Serial vs parallel 8-seed sweep must agree result-for-result."""
    serial = sweep_sync("fallback-3chain", 4, SWEEP_SEEDS, target_commits=20, processes=1)
    parallel = sweep_sync(
        "fallback-3chain", 4, SWEEP_SEEDS, target_commits=20, processes=processes
    )
    if serial != parallel:
        raise SystemExit(
            "PARALLEL SWEEP MISMATCH: parallel seed sweep differs from serial "
            f"(seeds {SWEEP_SEEDS})"
        )
    return {
        "seeds": SWEEP_SEEDS,
        "decisions": [result.decisions for result in serial],
        "parallel_matches_serial": True,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="entry label (e.g. the change)")
    parser.add_argument(
        "--comment",
        default=None,
        help="free-form note recorded on the entry (e.g. why a baseline "
             "was re-recorded)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="steady-n4 determinism smoke only; nothing is recorded",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the hottest scenario and print the top functions "
             "by cumulative time; nothing is recorded",
    )
    parser.add_argument(
        "--profile-scenario",
        default="fallback-n64",
        choices=sorted(SCENARIOS),
        help="scenario to profile (default: %(default)s, the hottest)",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        help="how many rows of the profile table to print",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="run the multi-process SIGKILL-chaos benchmark into "
             "BENCH_live.json instead of the simulator scenarios",
    )
    parser.add_argument(
        "--traffic",
        action="store_true",
        help="run the saturation-knee search into BENCH_traffic.json "
             "(see benchmarks/bench_saturation.py) instead of the "
             "simulator scenarios",
    )
    parser.add_argument("--live-n", type=int, default=4)
    parser.add_argument("--live-kills", type=int, default=2)
    parser.add_argument("--live-commits", type=int, default=20)
    parser.add_argument("--live-duration", type=float, default=90.0)
    parser.add_argument(
        "--skip-sweep-check",
        action="store_true",
        help="skip the parallel-vs-serial sweep verification",
    )
    parser.add_argument(
        "--import-results",
        type=Path,
        default=None,
        help="append a bench_simcore --json results file instead of running",
    )
    parser.add_argument("--commit", default=None, help="commit for --import-results")
    args = parser.parse_args(argv)

    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )

    if args.profile:
        return run_profile(args.profile_scenario, args.seed, args.profile_top)

    if args.live:
        return run_live(args, timestamp)

    if args.traffic:
        from bench_saturation import main as traffic_main

        forwarded = ["--seed", str(args.seed)]
        if args.label:
            forwarded += ["--label", args.label]
        return traffic_main(forwarded)

    if args.import_results is not None:
        entry = {
            "label": args.label or "imported",
            "commit": args.commit or "unknown",
            "timestamp": timestamp,
            "results": json.loads(args.import_results.read_text()),
        }
        if args.comment:
            entry["comment"] = args.comment
        append_entry(entry)
        print(f"imported {args.import_results} into {RESULTS_PATH}")
        return 0

    if args.quick:
        entry = check_determinism(
            "steady-n4", args.seed, target_commits=100, max_events=50_000
        )
        print(
            f"quick smoke ok: {entry['events']} events at "
            f"{entry['events_per_sec']:,.0f} events/sec, "
            f"fingerprint {entry['fingerprint']}"
        )
        return 0

    results = []
    for name in sorted(SCENARIOS):
        entry = check_determinism(name, args.seed)
        results.append(entry)
        print(
            f"{name:<14} events={entry['events']:<8} "
            f"wall={entry['wall_seconds']:.3f}s "
            f"events/sec={entry['events_per_sec']:,.0f} "
            f"fp={entry['fingerprint'][:12]} determinism=ok"
        )

    sweep = None
    if not args.skip_sweep_check:
        sweep = check_parallel_sweep()
        print(f"parallel sweep ok over seeds {sweep['seeds']}")

    entry = {
        "label": args.label or "run",
        "commit": git_commit(),
        "timestamp": timestamp,
        "results": results,
        "sweep_check": sweep,
    }
    if args.comment:
        entry["comment"] = args.comment
    append_entry(entry)
    print(f"recorded entry in {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
