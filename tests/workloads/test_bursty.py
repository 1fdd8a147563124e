"""Bursty arrivals into mempools, and the cross-region example's Zipf keys."""

import importlib.util
import pathlib

import pytest

from repro.mempool.mempool import Mempool
from repro.sim.scheduler import Scheduler
from repro.traffic.admission import AdmissionController
from repro.traffic.loadgen import BurstArrivals, OpenLoopGenerator

EXAMPLE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "examples"
    / "cross_region_deployment.py"
)


def pools(n=2):
    return [Mempool(batch_size=10) for _ in range(n)]


def bursty(mempools, burst_size, period, bursts):
    return OpenLoopGenerator(
        BurstArrivals(burst_size, period, bursts=bursts),
        AdmissionController(mempools).offer,
    )


def zipf_payload(**kwargs):
    spec = importlib.util.spec_from_file_location("cross_region_deployment", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.zipf_payload(**kwargs)


def test_bursts_arrive_on_schedule():
    mempools = pools()
    scheduler = Scheduler(seed=1)
    generator = bursty(mempools, burst_size=5, period=10.0, bursts=3)
    generator.start(scheduler)
    assert len(generator.submitted) == 5  # first burst at t=0
    scheduler.run(until=10.5)
    assert len(generator.submitted) == 10
    scheduler.run(until=100.0)
    assert len(generator.submitted) == 15  # capped at `bursts`
    for pool in mempools:
        assert len(pool) == 15


def test_burst_timestamps_cluster():
    scheduler = Scheduler(seed=1)
    generator = bursty(pools(), burst_size=4, period=7.0, bursts=2)
    generator.start(scheduler)
    scheduler.run(until=20.0)
    times = sorted({tx.submitted_at for tx in generator.submitted})
    assert times == [0.0, 7.0]


def test_burst_timing_is_deterministic():
    """Two identical runs produce identical ids AND identical timestamps."""

    def run():
        scheduler = Scheduler(seed=5)
        generator = bursty(pools(), burst_size=6, period=3.5, bursts=4)
        generator.start(scheduler)
        scheduler.run(until=50.0)
        return [(tx.tx_id, tx.submitted_at) for tx in generator.submitted]

    assert run() == run()


def test_bursty_validation():
    with pytest.raises(ValueError):
        BurstArrivals(0, 5.0)
    with pytest.raises(ValueError):
        BurstArrivals(3, 0.0)
    with pytest.raises(ValueError):
        BurstArrivals(3, 5.0, bursts=0)


def test_skewed_keys_are_skewed():
    payload = zipf_payload(keys=32, seed=3)
    counts = {}
    for index in range(2000):
        key = payload(index).split()[1]
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    # Head keys dominate tail keys by a wide margin (Zipf-ish).
    assert ranked[0] > 4 * ranked[-1]
    assert len(counts) > 10  # but the tail is still exercised


def test_skewed_workload_is_deterministic():
    first, second = zipf_payload(seed=9), zipf_payload(seed=9)
    assert [first(i) for i in range(50)] == [second(i) for i in range(50)]


def test_skewed_payloads_are_kv_commands():
    payload = zipf_payload(seed=1)
    assert all(payload(index).startswith("set key-") for index in range(5))
