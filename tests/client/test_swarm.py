"""Client swarm: percentile math, report plumbing, and a live closed-loop
run against a real multi-process cluster."""

import asyncio

import pytest

from repro.client.swarm import ClientSwarm, SwarmClient
from repro.runtime.spec import ClusterSpec
from repro.runtime.supervisor import Supervisor
from repro.traffic.slo import percentile

# ----------------------------------------------------------------------
# Percentile math (linear interpolation)
# ----------------------------------------------------------------------
def test_percentile_empty_and_singleton():
    assert percentile([], 50) is None
    assert percentile([7.0], 0) == 7.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 25) == pytest.approx(1.75)
    # Order-independent.
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)


def test_percentile_monotone():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    points = [percentile(values, p) for p in range(0, 101, 5)]
    assert points == sorted(points)
    assert points[0] == min(values) and points[-1] == max(values)


# ----------------------------------------------------------------------
# Construction / validation
# ----------------------------------------------------------------------
def test_swarm_validation(tmp_path):
    spec = ClusterSpec.create(4, tmp_path)
    with pytest.raises(ValueError):
        ClientSwarm(spec, clients=0)
    with pytest.raises(ValueError):
        ClientSwarm(spec, mode="bursty")
    swarm = ClientSwarm(spec, clients=3)
    assert [client.client_id for client in swarm.clients] == [1000, 1001, 1002]
    assert swarm.clients[0].f == 1  # n=4 -> f=1


def test_confirmation_requires_f_plus_one_matching(tmp_path):
    """Replies are tallied by (position, block_id): f matching replies are
    not enough, and disagreeing replies never combine."""
    from repro.client.client import ClientReply

    spec = ClusterSpec.create(4, tmp_path)

    async def go():
        client = SwarmClient(1000, spec)
        await client.start()
        try:
            tx_id = client.submit()
            # One reply: below the f+1=2 threshold.
            client._on_message(0, ClientReply(tx_id, 3, "block-a", 0))
            assert not client.confirmations
            # A *disagreeing* reply must not combine with it.
            client._on_message(1, ClientReply(tx_id, 4, "block-b", 1))
            assert not client.confirmations
            # Replica impersonation (replica field != sender) is ignored.
            client._on_message(2, ClientReply(tx_id, 3, "block-a", 3))
            assert not client.confirmations
            # A second genuine matching reply confirms.
            client._on_message(3, ClientReply(tx_id, 3, "block-a", 3))
            assert [c.tx_id for c in client.confirmations] == [tx_id]
            assert client.confirmations[0].position == 3
            assert tx_id not in client.pending
        finally:
            await client.close()

    asyncio.run(go())


# ----------------------------------------------------------------------
# Live closed-loop run against a real multi-process cluster
# ----------------------------------------------------------------------
def test_swarm_confirms_against_live_cluster(tmp_path):
    # preload=0: every committed transaction originates from the swarm.
    spec = ClusterSpec.create(4, tmp_path, preload=0)

    async def go():
        supervisor = Supervisor(spec)
        await supervisor.start()
        try:
            swarm = ClientSwarm(spec, clients=2, mode="closed", outstanding=3)
            report = await swarm.run(duration=4.0)
        finally:
            await supervisor.stop()
        return report, supervisor.ledger_prefixes_consistent()

    report, consistent = asyncio.run(go())
    assert report.confirmed > 0, "swarm never confirmed a commit"
    assert report.submitted >= report.confirmed
    assert report.throughput_tps > 0
    assert report.latency_p50 is not None and report.latency_p50 > 0
    assert report.latency_p50 <= report.latency_p95 <= report.latency_p99
    assert report.latency_max >= report.latency_p99
    assert consistent
    payload = report.to_json()
    assert payload["clients"] == 2 and payload["mode"] == "closed"
