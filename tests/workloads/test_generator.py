"""Workload shapes fed into mempools: preload, open loop, closed loop.

Each load is a ``repro.traffic.loadgen`` generator whose sink is an
``AdmissionController`` over the replicas' mempools — the same wiring
``Cluster`` and the live runtimes use.
"""

import pytest

from repro.mempool.mempool import Mempool
from repro.sim.scheduler import Scheduler
from repro.traffic.admission import AdmissionController
from repro.traffic.loadgen import (
    ClosedLoopGenerator,
    OpenLoopGenerator,
    PoissonArrivals,
    UniformArrivals,
    preload,
)


def pools(n=3, batch=10):
    return [Mempool(batch_size=batch) for _ in range(n)]


def test_preload_workload_fills_all_mempools():
    mempools = pools()
    preload(AdmissionController(mempools).offer, 70, now=2.5)
    for pool in mempools:
        pending = pool.pending()
        assert [tx.tx_id for tx in pending] == [f"tx-0-{i}" for i in range(70)]
        assert {(tx.client, tx.payload_size, tx.submitted_at) for tx in pending} == {
            (0, 100, 2.5)
        }


def test_payloads_are_kv_commands_by_default():
    submitted = []
    preload(submitted.append, 66, now=0.0)
    assert submitted[0].payload == "set key-0 value-0-0"
    assert submitted[65].payload == "set key-1 value-0-65"


def test_custom_payload_fn():
    submitted = []
    preload(submitted.append, 2, now=0.0, payload=lambda index: f"op {index}")
    assert [tx.payload for tx in submitted] == ["op 0", "op 1"]
    assert [tx.tx_id for tx in submitted] == ["tx-0-0", "tx-0-1"]


def test_open_loop_injects_at_rate():
    mempools = pools()
    scheduler = Scheduler(seed=1)
    generator = OpenLoopGenerator(
        UniformArrivals(10.0), AdmissionController(mempools).offer
    )  # one every 0.1s
    generator.start(scheduler)
    scheduler.run(until=1.0)
    # ~11 injections in [0, 1.0] at 10/s starting at t=0.
    assert 9 <= len(generator.submitted) <= 12
    assert all(tx.submitted_at <= 1.0 for tx in generator.submitted)
    for pool in mempools:
        assert len(pool) == len(generator.submitted)


def test_open_loop_max_count():
    mempools = pools()
    scheduler = Scheduler(seed=1)
    generator = OpenLoopGenerator(
        UniformArrivals(1000.0), AdmissionController(mempools).offer, max_count=5
    )
    generator.start(scheduler)
    scheduler.run(until=10.0)
    assert len(generator.submitted) == 5
    assert generator.rejected == 0
    for pool in mempools:
        assert len(pool) == 5


def test_open_loop_rejects_bad_rate():
    for rate in (0.0, -1.0):
        with pytest.raises(ValueError):
            UniformArrivals(rate)
        with pytest.raises(ValueError):
            PoissonArrivals(rate)


def test_closed_loop_replenishes_on_commit():
    mempools = pools()
    scheduler = Scheduler(seed=1)
    generator = ClosedLoopGenerator(3, AdmissionController(mempools).offer)
    generator.start(scheduler)
    assert len(generator.submitted) == 3
    generator.notify_committed(generator.submitted[0])
    assert len(generator.submitted) == 4
    # Commits from other clients are ignored.
    other = generator.submitted[0]
    foreign = type(other)(tx_id="x", client=99, payload="", payload_size=1)
    generator.notify_committed(foreign)
    assert len(generator.submitted) == 4
    for pool in mempools:
        assert len(pool) == 4
