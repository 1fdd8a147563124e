#!/usr/bin/env python3
"""Live mode: the protocol over real localhost TCP sockets.

Runs the same unchanged replicas the simulator hosts — but on an asyncio
event loop, with wall-clock timers and every message travelling through
the binary wire codec (`repro/wire/`) over real sockets.  Mid-run, a
drop-Proposal filter stalls the fast path: round timers expire for real,
the asynchronous fallback runs over TCP, the common coin elects a leader,
and the cluster commits through the fallback before resuming steady state.

Run:  python examples/live_cluster.py
"""

from repro.analysis.complexity import per_decision_costs
from repro.runtime.live import LiveCluster


def main() -> None:
    cluster = LiveCluster(n=4, seed=7, round_timeout=0.6, preload=1500)
    report = cluster.run(
        target_commits=20,
        timeout=45.0,
        force_fallback=True,       # stall the fast path mid-run
        fallback_after_commits=5,  # ... once 5 blocks have committed
    )

    print("=== live cluster: 4 replicas over localhost TCP ===")
    print(f"blocks committed (everywhere) : {report.min_honest_height}")
    print(f"wall-clock seconds            : {report.wall_seconds:.2f}")
    print(f"fallbacks survived            : {report.fallbacks}")
    print(f"proposals dropped (chaos)     : {report.messages_dropped}")
    print(f"messages over the wire        : {report.messages_sent}")
    print(f"real encoded bytes            : {report.encoded_bytes:,}")
    print(f"transport counters            : {report.transport}")

    costs = per_decision_costs(cluster.metrics)
    print(f"messages per decision         : {costs.messages_per_decision:.1f}")
    print(f"bytes per decision            : {costs.bytes_per_decision:,.0f} (framed codec bytes)")

    assert report.ok, "run timed out or ledgers diverged"
    print("safety check                  : OK (all logs prefix-consistent)")


if __name__ == "__main__":
    main()
