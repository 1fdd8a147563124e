"""LiveCluster over real localhost sockets: smoke, fallback, durability.

These are wall-clock tests (real TCP, real timers).  The smoke test is the
CI ``live-smoke`` gate; the fallback test is the issue's acceptance run —
commits through one induced timeout -> async fallback -> coin-elected
leader, with prefix-consistent ledgers and real-byte accounting.
"""

import asyncio

import pytest

from repro.analysis.complexity import per_decision_costs
from repro.net.tcp import TcpTransport
from repro.runtime.live import (
    LiveCluster,
    LiveNetwork,
    WallClockScheduler,
    WallClockTimer,
)
from repro.types.messages import BlockRequest
from repro.types.transactions import make_transaction


# ----------------------------------------------------------------------
# Wall-clock timer interface
# ----------------------------------------------------------------------
def test_wall_clock_scheduler_implements_timer_interface():
    async def go():
        scheduler = WallClockScheduler()
        fired = []
        t0 = scheduler.now
        timer = scheduler.set_timer(0.01, lambda: fired.append(scheduler.now))
        assert isinstance(timer, WallClockTimer)
        assert timer.active
        assert timer.deadline == pytest.approx(t0 + 0.01, abs=0.005)
        await asyncio.sleep(0.05)
        assert fired and fired[0] >= t0
        assert not timer.active  # fired

        cancelled = scheduler.set_timer(10.0, lambda: fired.append(-1))
        cancelled.cancel()
        assert not cancelled.active
        await asyncio.sleep(0)
        assert -1 not in fired

    asyncio.run(go())


# ----------------------------------------------------------------------
# Send accounting
# ----------------------------------------------------------------------
def test_refused_send_is_counted_not_billed():
    """A send the transport refuses (here: no route) is not a sent message."""

    class Sink:
        process_id = 0

        def deliver(self, sender, message):
            pass

    async def go():
        network = LiveNetwork(WallClockScheduler())
        transport = TcpTransport(node_id=0, on_message=lambda peer, message: None)
        network.register(Sink(), transport)
        network.send(0, 1, BlockRequest(block_id="ab" * 16))
        return network, transport

    network, transport = asyncio.run(go())
    assert transport.no_route == 1
    assert (network.messages_sent, network.bytes_sent) == (0, 0)
    assert network.sends_refused == 1


# ----------------------------------------------------------------------
# Cluster runs
# ----------------------------------------------------------------------
def test_live_smoke_commits_and_shuts_down_cleanly():
    """CI gate: 4 replicas, >=1 committed block, bounded wall clock."""
    cluster = LiveCluster(n=4, seed=7, round_timeout=1.0, preload=200)
    report = cluster.run(target_commits=3, timeout=30.0)
    assert report.ok, report
    assert report.min_honest_height >= 3
    assert report.decisions >= 1
    assert len(cluster.committed_ids(0)) >= 3
    # Real bytes were billed for every honest send.
    assert report.encoded_bytes > 0
    assert report.encoded_bytes == cluster.metrics.honest_bytes
    # Shutdown left no stray sockets behind: a fresh loop starts clean.
    asyncio.run(asyncio.sleep(0))


def test_live_cluster_survives_forced_fallback():
    """Acceptance: >=20 commits including a timeout -> fallback -> coin commit."""
    cluster = LiveCluster(n=4, seed=3, round_timeout=0.6, preload=1500)
    report = cluster.run(
        target_commits=20, timeout=45.0, force_fallback=True, fallback_after_commits=5
    )
    assert report.ok, report
    assert report.min_honest_height >= 20
    assert report.fallbacks >= 1, "induced stall never reached the fallback path"
    assert report.messages_dropped > 0, "the Proposal drop filter never engaged"
    assert report.ledgers_consistent
    # All four ledgers share the committed prefix after recovery.
    prefix = cluster.committed_ids(0)[:20]
    for replica_id in range(1, 4):
        assert cluster.committed_ids(replica_id)[:20] == prefix
    # Every honest byte is a framed codec byte, as in the simulator.
    assert report.encoded_bytes == cluster.metrics.honest_bytes
    costs = per_decision_costs(cluster.metrics)
    assert costs.decisions >= 20
    assert costs.bytes_per_decision > 0


def test_live_cluster_durable_replicas():
    cluster = LiveCluster(n=4, seed=11, round_timeout=1.0, preload=200, durable=True)
    report = cluster.run(target_commits=3, timeout=30.0)
    assert report.ok, report
    assert report.min_honest_height >= 3
    # Durable replicas journal every vote they sign.
    assert all(r.journal.writes > 0 for r in cluster.replicas)


def test_idle_live_cluster_paces_and_wakes_on_a_request():
    """Left idle, the cluster commits a few empty blocks a second and never
    times out; a request submitted afterwards wakes the idle leader and
    commits everywhere within 100 ms."""
    idle_seconds, round_timeout = 2.0, 0.5
    cluster = LiveCluster(n=4, seed=5, round_timeout=round_timeout, preload=0)

    async def go():
        loop = asyncio.get_running_loop()
        await cluster._build()
        replicas = cluster.replicas
        for replica in replicas:
            replica.on_start()
        try:
            await asyncio.sleep(idle_seconds)
            heights = [replica.ledger.height for replica in replicas]
            transaction = make_transaction(0, client=1)
            submitted = loop.time()
            for replica in replicas:
                replica.mempool.submit(transaction)
            while loop.time() < submitted + 5.0 and not all(
                r.ledger.is_committed_transaction(transaction.tx_id) for r in replicas
            ):
                await asyncio.sleep(0.001)
            return heights, loop.time() - submitted
        finally:
            await cluster._stop()

    heights, commit_seconds = asyncio.run(go())
    assert cluster.metrics.timeouts == []
    assert cluster.metrics.fallback_count() == 0
    per_second = 2 / round_timeout  # one block per half round timeout
    assert all(1 <= h <= per_second * idle_seconds + 3 for h in heights), heights
    assert commit_seconds < 0.1
    assert cluster.ledger_prefixes_consistent()


def test_conflicting_config_sizes_rejected():
    from repro.core.config import ProtocolConfig

    with pytest.raises(ValueError, match="conflicting"):
        LiveCluster(n=4, config=ProtocolConfig(n=7))
