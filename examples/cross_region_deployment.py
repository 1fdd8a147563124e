#!/usr/bin/env python3
"""A geo-distributed deployment: 7 replicas across 3 regions.

Models the realistic permissioned-blockchain setting the paper's
introduction motivates: replicas in US / EU / AP datacenters, fast links
within a region, slow links across.  A skewed (Zipf-like) client workload
writes hot keys.  Mid-run, the EU region's links degrade to adversarial
asynchrony; the protocol rides it out through fallbacks and resumes the
linear fast path once the links recover.

Run:  python examples/cross_region_deployment.py
"""

import random

from repro import ClusterBuilder
from repro.analysis.safety import assert_cluster_safety
from repro.analysis.traces import Timeline
from repro.ledger.ledger import KVStateMachine
from repro.net.conditions import AsynchronousDelay, DelayModel
from repro.net.topology import CrossRegionDelay, evenly_spread_regions
from repro.traffic.admission import AdmissionController
from repro.traffic.loadgen import preload

N = 7
DEGRADE_AT, RECOVER_AT, END_AT = 80.0, 220.0, 500.0

REGIONS = evenly_spread_regions(N, ["us", "eu", "ap"])
HEALTHY = CrossRegionDelay(
    region_of=REGIONS,
    intra=(0.02, 0.08),
    inter=(0.4, 1.2),
    pair_bands={("us", "eu"): (0.3, 0.8), ("eu", "ap"): (0.6, 1.4)},
)
STORM = AsynchronousDelay(base_delay=10.0, tail_scale=20.0, max_delay=60.0)


def zipf_payload(keys=64, seed=0):
    """KV ``set`` commands whose key popularity falls off as 1/rank.

    A handful of keys receive most writes, so the replicated KV store shows
    realistic hot-key churn.  Seeded: the same ``seed`` gives the same keys.
    """
    rng = random.Random(repr(("skewed-workload", seed)))
    weights = [1.0 / rank for rank in range(1, keys + 1)]

    def payload(index):
        key = rng.choices(range(keys), weights=weights, k=1)[0]
        return f"set key-{key} value-0-{index}"

    return payload


class RegionalDegradation(DelayModel):
    """Healthy topology, except EU traffic goes adversarial for a while."""

    def delay(self, sender, receiver, message, now, rng):
        eu_involved = REGIONS.get(sender) == "eu" or REGIONS.get(receiver) == "eu"
        if eu_involved and DEGRADE_AT <= now < RECOVER_AT:
            return STORM.delay(sender, receiver, message, now, rng)
        return HEALTHY.delay(sender, receiver, message, now, rng)

    def describe(self):
        return "cross-region with EU storm"


def main() -> None:
    cluster = (
        ClusterBuilder(n=N, seed=29)
        .with_state_machine(KVStateMachine)
        .with_preload(0)
        .with_delay_model(RegionalDegradation())
        .build()
    )
    preload(
        AdmissionController(cluster.mempools).offer,
        3000,
        cluster.scheduler.now,
        payload=zipf_payload(keys=64, seed=29),
    )
    cluster.run(until=END_AT)

    print(f"=== cross-region deployment: n={N} over {sorted(set(REGIONS.values()))} ===")
    print(f"EU links adversarial during [{DEGRADE_AT}, {RECOVER_AT})\n")

    timeline = Timeline.from_cluster(cluster)
    spans = timeline.fallback_spans()
    print(f"fallbacks: {len({(v) for _, v, _, _ in spans})} view(s); spans "
          f"(replica, view, enter, exit):")
    for replica, view, start, end in spans[:8]:
        end_text = f"{end:.1f}" if end is not None else "in flight"
        print(f"  r{replica} view {view}: {start:.1f} -> {end_text}")

    commits = timeline.filter(kinds=["commit"], replica=cluster.honest_ids[0]).events
    def rate(lo, hi):
        return sum(1 for e in commits if lo <= e.time < hi) / (hi - lo)

    print(f"\nthroughput healthy  [0,{DEGRADE_AT:.0f})       : {rate(0, DEGRADE_AT):.2f} blocks/s")
    print(f"throughput degraded [{DEGRADE_AT:.0f},{RECOVER_AT:.0f})   : {rate(DEGRADE_AT, RECOVER_AT):.2f} blocks/s")
    print(f"throughput recovered[{RECOVER_AT + 60:.0f},{END_AT:.0f})  : {rate(RECOVER_AT + 60, END_AT):.2f} blocks/s")

    replica = cluster.honest_replicas()[0]
    hot = sorted(replica.ledger.state_machine.data.items())[:3]
    print(f"\nreplicated KV sample: {dict(hot)}")
    assert_cluster_safety(cluster.honest_replicas())
    print("safety: OK across regions and the storm")


if __name__ == "__main__":
    main()
