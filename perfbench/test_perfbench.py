"""Self-tests for the benchmark's helpers.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

The last test makes one short traced run per workload (under a minute in
all) and checks the per-layer cells predicted to read zero.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import layers  # noqa: E402
from schedule import DueTimeDriver, poisson_due_times  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from stats import tail  # noqa: E402
from workloads import prefix_consistent  # noqa: E402


# ----------------------------------------------------------------------
# Tail percentile: the highest with at least ten samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, percentile",
    [(1000, 99.0), (999, 90.0), (100, 90.0), (99, 75.0), (20, 50.0), (10000, 99.9)],
)
def test_tail_picks_highest_percentile_with_ten_beyond(count, percentile):
    values = [float(v) for v in range(1, count + 1)]
    value, chosen, beyond = tail(values)
    assert chosen == percentile
    assert beyond >= 10
    assert sum(1 for v in values if v > value) == beyond


def test_tail_needs_enough_samples():
    assert tail([1.0] * 19) is None


def test_tail_ignores_input_order():
    values = [float(v) for v in range(1000)]
    assert tail(values) == tail(list(reversed(values)))


# ----------------------------------------------------------------------
# Span self time: duration minus the child-covered interval
# ----------------------------------------------------------------------
def test_self_time_subtracts_union_of_children():
    spans = [
        Span(0, None, "outer", 0.0, 10.0),
        Span(1, 0, "child", 1.0, 3.0),
        Span(2, 0, "child", 2.0, 5.0),  # overlaps the first child
        Span(3, 2, "leaf", 2.5, 3.5),
        Span(4, 0, "child", 9.0, 12.0),  # runs past the parent's end
    ]
    times = self_times(spans)
    assert times["outer"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert times["leaf"] == pytest.approx(1.0)
    assert times["child"] == pytest.approx(2.0 + (3.0 - 1.0) + 3.0)


def test_tracer_self_time_matches_recorded_spans():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf() -> None:
        tracer.clock()

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer() -> None:
        tracer.clock()
        traced_leaf()
        traced_leaf()

    tracer.wrap("outer", outer)()
    recorded = self_times(tracer.spans)
    assert tracer.stats["leaf"][0] == 2 and tracer.stats["outer"][0] == 1
    for name in ("leaf", "outer"):
        assert tracer.stats[name][2] == pytest.approx(recorded[name])
    by_id = {span.span_id: span for span in tracer.spans}
    outer_span = next(s for s in tracer.spans if s.name == "outer")
    assert all(
        by_id[s.parent] is outer_span for s in tracer.spans if s.name == "leaf"
    )


def test_rebind_reaches_by_name_importers():
    from repro.runtime import live
    from repro.wire import codec

    tracer = Tracer()
    original = codec.encode_message
    tracer.patch_function(codec, "encode_message", "wire.encode")
    try:
        assert live.encode_message is codec.encode_message
        assert live.encode_message is not original
    finally:
        tracer.unpatch()
    assert live.encode_message is original


# ----------------------------------------------------------------------
# Due-time driver: lateness is measured against the schedule
# ----------------------------------------------------------------------
def test_driver_catches_up_after_a_stall():
    now = [0.0]
    offered: list[tuple[int, float]] = []

    async def sleep(delay: float) -> None:
        now[0] += delay

    def offer(index: int) -> None:
        offered.append((index, now[0]))
        if index == 1:
            now[0] += 0.5  # the system stalls the loop for half a second

    due = [0.0, 1.0, 1.2, 1.4, 3.0]
    driver = DueTimeDriver(due, offer, clock=lambda: now[0], sleep=sleep)
    asyncio.run(driver.run())
    assert [i for i, _ in offered] == [0, 1, 2, 3, 4]
    assert driver.lateness == pytest.approx([0.0, 0.0, 0.3, 0.1, 0.0])
    # Arrivals after the stall keep their own due times: no drift.
    assert offered[4][1] == pytest.approx(3.0)


def test_poisson_schedule_is_seeded_and_bounded():
    first = poisson_due_times(200.0, 1.0, 3.0, seed=7)
    assert first == poisson_due_times(200.0, 1.0, 3.0, seed=7)
    assert first != poisson_due_times(200.0, 1.0, 3.0, seed=8)
    assert all(1.0 < t < 3.0 for t in first)
    assert 300 < len(first) < 500


# ----------------------------------------------------------------------
# Gates and the fixed corpus
# ----------------------------------------------------------------------
def test_prefix_consistency_gate():
    assert prefix_consistent([["a", "b"], ["a"], ["a", "b", "c"]])
    assert not prefix_consistent([["a", "b"], ["a", "x"]])


def test_corpus_extracts_every_manifest_file(tmp_path):
    root = corpus.extract(tmp_path / "corpus")
    modules = sorted(root.rglob("*.py"))
    assert len(modules) == corpus.module_count()
    assert corpus.describe()["commit"].startswith("2c572ab")


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    result = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "live-open", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""


# ----------------------------------------------------------------------
# Zero-count predictions, one short traced run per workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["live-open", "live-durable", "sim-fallback", "lint-tree"])
def test_predicted_zero_cells_read_zero(workload):
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    output = json.loads(result.stdout.strip().splitlines()[-1])
    assert output["correct"]
    metrics = output["metrics"]
    assert set(metrics) == set(layers.UNITS)
    predicted = [
        name
        for name in metrics
        if workload in layers.PREDICTED_ZERO.get(name.split(".")[0], ())
    ]
    assert predicted
    nonzero = {name: metrics[name]["value"] for name in predicted if metrics[name]["value"]}
    assert not nonzero
