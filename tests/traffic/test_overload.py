"""Overload behavior: commits continue and sheds are counted past the knee.

The issue's acceptance property: with bounded mempools, an offered load
well past the sustainable rate must degrade gracefully — admission sheds
the excess (and counts it) while the cluster keeps committing the work it
admitted.  Checked both on the simulator clock and against a small live
TCP cluster.
"""

from dataclasses import replace

from repro.runtime.live import LiveCluster
from repro.traffic.saturation import default_scenarios, measure_rate

#: steady-n4's measured knee is 160 offers/sec with its default pools (see
#: BENCH_traffic.json), and the 200-slot pools used below serve ~80/sec;
#: these tests probe at 10/s (comfortably under) and 250/s (~3x over).
UNDER_RATE = 10.0
OVERLOAD_RATE = 250.0


def test_sim_underload_is_sustainable():
    scenario = default_scenarios()["steady-n4"]
    measurement = measure_rate(
        scenario, UNDER_RATE, duration=20.0, drain=20.0, seed=3
    )
    assert measurement.sustainable
    assert measurement.rejected == 0


def test_sim_overload_commits_continue_and_rejects_are_counted():
    scenario = replace(default_scenarios()["steady-n4"], mempool_capacity=200)
    measurement = measure_rate(
        scenario, OVERLOAD_RATE, duration=20.0, drain=60.0, seed=3
    )
    # The cluster shed load instead of falling over ...
    assert not measurement.sustainable
    assert measurement.rejected > 0
    assert measurement.offered == measurement.admitted + measurement.rejected
    # ... while commits kept flowing throughout:
    assert measurement.committed > 0
    assert measurement.goodput > 0
    # and everything admitted (minus at most one mempool of backlog)
    # eventually committed during the drain window.
    assert measurement.committed >= measurement.admitted - scenario.mempool_capacity


def test_sim_overload_latency_stays_bounded_by_queue_cap():
    """Bounded queues bound queueing delay: overload p99 stays finite/sane."""
    scenario = replace(default_scenarios()["steady-n4"], mempool_capacity=200)
    measurement = measure_rate(
        scenario, OVERLOAD_RATE, duration=20.0, drain=20.0, seed=3
    )
    assert measurement.latency.p99 is not None
    # 200 queued / ~80 per sec service => worst-case ~2.5s of queueing plus
    # a few rounds of consensus; far below the unbounded-queue blowup.
    assert measurement.latency.p99 < 30.0


def test_live_overload_smoke():
    """Live TCP cluster at an absurd offered rate with tiny mempools."""
    cluster = LiveCluster(n=4, seed=11, round_timeout=1.0, preload=0)
    record = cluster.run_open_loop(
        rate=2000.0, duration=1.0, drain=8.0, mempool_capacity=4
    )
    assert record["offered"] == record["admitted"] + record["rejected"]
    assert record["rejected"] > 0
    assert record["committed"] > 0
    assert record["ledgers_consistent"]
