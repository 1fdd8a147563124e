"""Tests for the bandwidth-limited delay model."""

import random

import pytest

from repro.client.client import ClientRequest
from repro.net.bandwidth import BandwidthDelay
from repro.net.conditions import SynchronousDelay
from repro.net.network import billed_size
from repro.runtime.cluster import ClusterBuilder
from repro.types.transactions import Transaction


def Sized(size):
    """A real message the network bills exactly ``size`` bytes: a client
    request whose payload slot makes up the difference."""
    bare = billed_size(ClientRequest(Transaction(tx_id="t", payload_size=0)))
    message = ClientRequest(Transaction(tx_id="t", payload_size=size - bare))
    assert billed_size(message) == size
    return message


@pytest.fixture
def rng():
    return random.Random(0)


def flat_latency():
    return SynchronousDelay(delta=0.1000001, min_delay=0.1)


def test_serialization_scales_with_size(rng):
    model = BandwidthDelay(bytes_per_second=1000, latency=flat_latency())
    small = model.delay(0, 1, Sized(100), 0.0, rng)
    model_big = BandwidthDelay(bytes_per_second=1000, latency=flat_latency())
    big = model_big.delay(0, 1, Sized(1000), 0.0, rng)
    assert big - small == pytest.approx(0.9, abs=1e-6)


def test_queueing_on_busy_link(rng):
    model = BandwidthDelay(bytes_per_second=1000, latency=flat_latency())
    first = model.delay(0, 1, Sized(1000), 0.0, rng)  # occupies link for 1s
    second = model.delay(0, 1, Sized(1000), 0.0, rng)  # must queue behind it
    assert second == pytest.approx(first + 1.0, abs=1e-6)


def test_independent_links_do_not_queue(rng):
    model = BandwidthDelay(bytes_per_second=1000, latency=flat_latency())
    model.delay(0, 1, Sized(1000), 0.0, rng)
    other = model.delay(0, 2, Sized(1000), 0.0, rng)  # different link
    assert other == pytest.approx(1.0 + 0.1, abs=1e-3)


def test_uplink_mode_shares_sender_capacity(rng):
    model = BandwidthDelay(bytes_per_second=1000, latency=flat_latency(), per_link=False)
    model.delay(0, 1, Sized(1000), 0.0, rng)
    queued = model.delay(0, 2, Sized(1000), 0.0, rng)  # same sender uplink
    assert queued >= 2.0


def test_link_frees_over_time(rng):
    model = BandwidthDelay(bytes_per_second=1000, latency=flat_latency())
    model.delay(0, 1, Sized(1000), 0.0, rng)
    later = model.delay(0, 1, Sized(1000), now=5.0, rng=rng)
    assert later == pytest.approx(1.0 + 0.1, abs=1e-3)  # no queueing at t=5


def test_validation():
    with pytest.raises(ValueError):
        BandwidthDelay(bytes_per_second=0)


def test_protocol_runs_under_bandwidth_limits():
    model = BandwidthDelay(bytes_per_second=50_000, latency=SynchronousDelay(delta=0.5))
    cluster = ClusterBuilder(n=4, seed=91).with_delay_model(model).build()
    result = cluster.run_until_commits(10, until=20_000)
    assert result.decisions >= 10
    from repro.analysis.safety import assert_cluster_safety

    assert_cluster_safety(cluster.honest_replicas())


def test_describe():
    assert "B/s" in BandwidthDelay(1000).describe()
