"""`adaptive_batching` gating: the flag-off path must be behaviorally inert.

BENCH_simcore fingerprints are the cross-PR determinism contract, so with
the flag off (the default) the traffic subsystem must not exist from the
replica's point of view: no controller, no envelope hook on the mempool,
no batch-size drift, and no traffic-object construction anywhere in the
proposal hot path.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.runtime.cluster import ClusterBuilder
from repro.traffic.batching import AdaptiveBatchController
from repro.traffic.envelope import ArrivalEnvelope, TrafficEnvelope


def test_flag_defaults_off_and_validates():
    assert ProtocolConfig(n=4).adaptive_batching is False
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, adaptive_max_batch=0)


def test_flag_off_wires_nothing():
    cluster = ClusterBuilder(n=4, seed=1).build()
    for replica in cluster.replicas:
        assert replica._batch_controller is None
        # The pool's only arrival listener is the replica's own idle wake.
        assert replica.mempool._listeners == [replica._wake_on_arrival]


def test_flag_off_never_constructs_traffic_objects(monkeypatch):
    """No per-round (or even per-run) traffic allocation with the flag off."""

    def forbid(name):
        def boom(self, *args, **kwargs):
            raise AssertionError(f"{name} constructed in flag-off mode")

        return boom

    monkeypatch.setattr(AdaptiveBatchController, "__init__", forbid("controller"))
    monkeypatch.setattr(TrafficEnvelope, "__init__", forbid("traffic envelope"))
    monkeypatch.setattr(ArrivalEnvelope, "__init__", forbid("arrival envelope"))
    cluster = ClusterBuilder(n=4, seed=1).build()
    cluster.run(until=60.0)
    assert cluster.metrics.decisions() > 0


def test_flag_off_batch_size_never_drifts():
    cluster = ClusterBuilder(n=4, seed=1).with_preload(2000).build()
    cluster.run(until=120.0)
    assert all(m.batch_size == cluster.config.batch_size for m in cluster.mempools)


def test_flag_on_tunes_batch_size_under_backlog(monkeypatch):
    tuned = []
    tune = AdaptiveBatchController.tune

    def recording_tune(self, mempool_depth, now):
        tuned.append(tune(self, mempool_depth, now))
        return tuned[-1]

    monkeypatch.setattr(AdaptiveBatchController, "tune", recording_tune)
    config = ProtocolConfig(n=4, adaptive_batching=True, adaptive_max_batch=160)
    cluster = (
        ClusterBuilder(n=4, seed=1, config=config).with_preload(5000).build()
    )
    cluster.run(until=120.0)
    for replica in cluster.replicas:
        assert replica._batch_controller is not None
    # A 5000-deep backlog must push proposers past the fixed default of 10.
    # The peak is what counts: the backlog drains, and the size falls back.
    assert max(tuned) > config.batch_size
    assert cluster.metrics.decisions() > 0
