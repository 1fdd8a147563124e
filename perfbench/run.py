"""Benchmark entry point: one workload, one seed, one fresh interpreter.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-open --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs the same workload and seed untraced in a child
interpreter (the reference for the tracing overhead), then runs it with
every layer function in ``layers.SPANS`` wrapped, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the run's details and machine fingerprint.  The exit
code is 1 when a correctness gate fails and 2 when the program is missing.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: What each workload imports before its first set-up (timed as set-up).
IMPORTS = {
    "live-open": ("repro.runtime.live", "repro.traffic.admission"),
    "live-durable": (
        "repro.runtime.replica_process",
        "repro.storage.journal",
        "repro.traffic.admission",
    ),
    "sim-fallback": (
        "repro.runtime.cluster",
        "repro.experiments.scenarios",
        "repro.traffic.saturation",
    ),
    "lint-tree": ("repro.lint",),
}

UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "commit_p50_ms": "ms",
    "commit_tail_ms": "ms",
    "success_ratio": "ratio",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def fingerprint() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # Seconds for a fixed pure-Python loop, timed after the workload: on a
    # shared host it tells a slower machine apart from a slower program.
    began = time.perf_counter()
    total = 0
    for value in range(2_000_000):
        total += value
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "speed_probe_s": time.perf_counter() - began,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def untraced_reference(args: argparse.Namespace) -> dict:
    """Run the same workload and seed untraced in a fresh interpreter."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    child = subprocess.run(command, capture_output=True, text=True, timeout=170)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"untraced reference run failed: {child.stderr[-2000:]}")
    return json.loads(lines[-2])["detail"]


def end_to_end(outcome, setup_s: float) -> tuple[dict[str, float], dict]:
    from stats import tail

    latencies = outcome.latencies_ms
    found = tail(latencies) if latencies else None
    if found is None:
        raise RuntimeError(f"too few samples for a tail: {len(latencies)}")
    tail_value, tail_percentile, beyond = found
    values = {
        "setup_s": setup_s,
        "run_s": outcome.run_s,
        "commit_p50_ms": statistics.median(latencies),
        "commit_tail_ms": tail_value,
        "success_ratio": outcome.succeeded / outcome.attempted,
        "cpu_ms_per_op": 1000.0 * outcome.cpu_s / max(1, outcome.succeeded),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    sample = {
        "samples": len(latencies),
        "tail_percentile": tail_percentile,
        "tail_samples_beyond": beyond,
    }
    return values, sample


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    began = STARTED
    reference = None
    if args.trace:
        reference = untraced_reference(args)
        began = time.perf_counter()

    import workloads

    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
    imports_s = time.perf_counter() - began

    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, work_dir
        )
        if tracer is not None:
            tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values, sample = end_to_end(outcome, imports_s + outcome.setup_s)
    cpu_per_unit = outcome.cpu_s / max(1, outcome.work_units)
    correct = all(outcome.gates.values())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": fingerprint(),
        "gates": outcome.gates,
        "imports_s": imports_s,
        "commit_latency": sample,
        "cpu_s_per_unit": cpu_per_unit,
        "end_to_end": values,
        **outcome.detail,
    }
    if reference is None:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    else:
        import layers

        overhead = cpu_per_unit / reference["cpu_s_per_unit"]
        correct = correct and all(reference["gates"].values())
        per_layer = layers.metrics(outcome.facts, overhead)
        metrics = {
            name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in per_layer.items()
        }
        detail["untraced_reference"] = reference
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.attempted - outcome.succeeded,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
