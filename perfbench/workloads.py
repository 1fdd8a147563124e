"""The four benchmark workloads.

Each workload builds its system from the program's own modules, sets it up
at least :data:`SETUPS` times (reporting the median), runs its measured work
and returns an :class:`Outcome`: the raw samples the end-to-end metrics are
computed from, the correctness gates, and the per-layer facts a traced run
turns into layer metrics.  The program's own seeds (key dealing, coin,
simulated network) are fixed; ``--seed`` only generates the inputs: arrival
times and request payloads.
"""

from __future__ import annotations

import asyncio
import gc
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from schedule import DueTimeDriver, poisson_due_times

#: Set-ups per run; the reported set-up time is their median.
SETUPS = 3
#: Seed of the program's own randomness (keys, coin, simulated network).
CLUSTER_SEED = 0

# live-open / live-durable
LIVE_N = 4
LIVE_RATE = 200.0  # requests/s: live-open commits all of it; 1600/s overloads
LIVE_WARMUP = 0.5  # seconds of arrivals excluded from the metrics
LIVE_DRAIN = 5.0  # seconds after the window for its requests to commit
LIVE_LEAD = 0.05  # first possible arrival, after the replicas start
LIVE_SEGMENT = 2.5  # seconds of measured window per freshly built cluster

# sim-fallback
SIM_N = 16
SIM_RATE = 2.0  # requests per simulated second, below the n=16 knee
SIM_SECONDS_PER_SECOND = 160.0  # simulated seconds of arrivals per --seconds
SIM_DRAIN = 600.0  # simulated seconds for the last arrivals to commit

# lint-tree
LINT_SECONDS_PER_PASS = 5.0  # one pass of the corpus per this much of --seconds

PAYLOAD_BYTES = 100

#: Message types sent only by the asynchronous fallback.
FALLBACK_MESSAGES = (
    "FallbackTimeout",
    "FallbackTCMessage",
    "FallbackProposal",
    "FallbackVote",
    "FallbackQCMessage",
    "CoinShareMessage",
    "CoinQCMessage",
)


@dataclass
class Outcome:
    """What one measured run produced."""

    setup_s: float
    run_s: float
    latencies_ms: list[float]
    attempted: int
    succeeded: int
    cpu_s: float
    #: Decisions (protocol workloads) or modules (lint) the CPU time bought;
    #: the tracing overhead is CPU per unit, traced over untraced.
    work_units: int
    gates: dict[str, bool]
    detail: dict[str, Any] = field(default_factory=dict)
    facts: dict[str, Any] = field(default_factory=dict)


def _payload(rng: random.Random, index: int) -> str:
    return f"{index}:{rng.getrandbits(64):016x}"


# ----------------------------------------------------------------------
# Correctness gates shared by the protocol workloads
# ----------------------------------------------------------------------
def prefix_consistent(logs: list[list[str]]) -> bool:
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            shorter = min(len(logs[i]), len(logs[j]))
            if logs[i][:shorter] != logs[j][:shorter]:
                return False
    return True


def no_request_twice(replicas: list[Any]) -> bool:
    """No replica executes a request twice.

    A request may sit in several blocks (it stays in the mempools until its
    first commit is seen); the ledger must apply only the first.
    """
    for replica in replicas:
        applied = [tx.tx_id for tx in replica.ledger.committed_transactions()]
        if len(applied) != len(set(applied)):
            return False
    return True


def block_facts(blocks: list[Any], batch_limit: int) -> dict[str, float]:
    """Useful-block ratio, requests per block and batch fill."""
    sizes = [len(block.batch) for block in blocks]
    full = [size for size in sizes if size]
    return {
        "blocks": len(sizes),
        "useful_blocks": len(full),
        "requests": sum(sizes),
        "batch_fill": (
            sum(size / batch_limit for size in full) / len(full) if full else 0.0
        ),
    }


# ----------------------------------------------------------------------
# Live workloads: n replicas over localhost TCP on this process's loop
# ----------------------------------------------------------------------
def _make_tracker(clock: Callable[[], float]) -> Any:
    from repro.traffic.slo import RequestTracker

    class LoopClockTracker(RequestTracker):
        """Stamps propose/commit on the shared loop clock.

        Each replica host keeps its own clock origin; the benchmark times
        every request on one clock, the one its due times are drawn on.
        """

        def note_propose(self, tx_id: str, now: float) -> None:
            super().note_propose(tx_id, clock())

        def note_commit(self, tx_id: str, now: float) -> None:
            super().note_commit(tx_id, clock())

    return LoopClockTracker()


async def _wait_meshed(transports: list[Any], peers: int, limit: float = 10.0) -> None:
    """Until every listener has accepted a connection from each peer
    (the transport exposes no public "connected" state)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + limit
    while any(len(t._inbound_tasks) < peers for t in transports):
        if loop.time() > deadline:
            raise RuntimeError("replicas did not mesh")
        await asyncio.sleep(0.001)


def _silence(replicas: list[Any]) -> None:
    """Stop replicas for good once their transports are closed.

    The program's teardown cancels timers before closing the transports,
    and messages delivered during the close re-arm them, so a stopped
    cluster keeps running on a loop that outlives it.  Crashing each
    replica cancels those timers and ignores anything still queued.
    """
    for replica in replicas:
        replica.crash()


class InProcessCluster:
    """``live-open``: one :class:`LiveCluster` of plain replicas."""

    def __init__(self, work_dir: Path) -> None:
        self.cluster: Any = None

    async def build(self, attempt: int) -> None:
        from repro.runtime.live import LiveCluster

        # LiveCluster's public entry points drive their own load inside
        # asyncio.run; _build/_close_transports are the same assembly and
        # teardown without it.
        self.cluster = LiveCluster(n=LIVE_N, seed=CLUSTER_SEED, preload=0)
        await self.cluster._build()
        await _wait_meshed(self.cluster.transports, LIVE_N - 1)

    @property
    def replicas(self) -> list[Any]:
        return self.cluster.replicas

    @property
    def collectors(self) -> list[Any]:
        return [self.cluster.metrics]

    @property
    def transports(self) -> list[Any]:
        return self.cluster.transports

    def start(self) -> None:
        for replica in self.replicas:
            replica.on_start()

    async def stop(self) -> None:
        for replica in self.replicas:
            replica.cancel_all_timers()
        await self.cluster._close_transports()
        _silence(self.replicas)

    def release(self) -> None:
        self.cluster = None

    def gates(self) -> dict[str, bool]:
        return {}

    def facts(self) -> dict[str, Any]:
        return {}


class ProcessHosts:
    """``live-durable``: n :class:`ReplicaProcess` hosts in one event loop.

    Each host runs a ``DurableReplica`` on a ``FileSafetyJournal`` with a
    ``ProcessNetwork`` and status publishing, as ``repro live --processes``
    deploys it, minus the separate OS processes.
    """

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.spec: Any = None
        self.hosts: list[Any] = []
        self.tasks: list[Any] = []

    async def build(self, attempt: int) -> None:
        from repro.runtime.replica_process import ReplicaProcess
        from repro.runtime.spec import ClusterSpec

        data_dir = self.work_dir / f"cluster-{attempt}"
        shutil.rmtree(data_dir, ignore_errors=True)
        self.spec = ClusterSpec.create(
            LIVE_N, data_dir, seed=CLUSTER_SEED, preload=0
        )
        self.hosts = [ReplicaProcess(self.spec, i) for i in range(LIVE_N)]
        loop = asyncio.get_running_loop()
        self.tasks = [loop.create_task(host.run()) for host in self.hosts]
        deadline = loop.time() + 10.0
        while any(host.transport is None or host.replica is None for host in self.hosts):
            if loop.time() > deadline:
                raise RuntimeError("replica hosts did not start")
            for task in self.tasks:
                if task.done():
                    task.result()
            await asyncio.sleep(0.001)
        await _wait_meshed([host.transport for host in self.hosts], LIVE_N - 1)

    @property
    def replicas(self) -> list[Any]:
        return [host.replica for host in self.hosts]

    @property
    def collectors(self) -> list[Any]:
        return [host.metrics for host in self.hosts]

    @property
    def transports(self) -> list[Any]:
        return [host.transport for host in self.hosts]

    def start(self) -> None:
        """Hosts start their replicas as soon as they are built."""

    async def stop(self) -> None:
        for host in self.hosts:
            host.stop()
        await asyncio.gather(*self.tasks)
        _silence(self.replicas)

    def release(self) -> None:
        self.spec, self.hosts, self.tasks = None, [], []

    def gates(self) -> dict[str, bool]:
        """Each reopened journal restores its replica's final safety state."""
        from repro.storage.journal import FileSafetyJournal

        restored_ok = True
        for replica_id, replica in enumerate(self.replicas):
            journal = FileSafetyJournal(self.spec.journal_path(replica_id))
            try:
                snapshot = journal.read()
            finally:
                journal.close()
            if snapshot is None:
                restored_ok = False
                continue
            votes = replica.safety.fallback_votes
            expected = {
                "r_vote": replica.safety.r_vote,
                "rank_lock": replica.safety.rank_lock,
                "v_cur": replica.v_cur,
                "fallback_view": None if votes is None else votes.view,
                "fallback_r_vote": {} if votes is None else dict(votes.r_vote),
                "fallback_h_vote": {} if votes is None else dict(votes.h_vote),
                "proposed": set(replica._proposed),
            }
            actual = {
                "r_vote": snapshot.r_vote,
                "rank_lock": snapshot.rank_lock,
                "v_cur": snapshot.v_cur,
                "fallback_view": snapshot.fallback_view,
                "fallback_r_vote": snapshot.fallback_r_vote,
                "fallback_h_vote": snapshot.fallback_h_vote,
                "proposed": snapshot.proposed,
            }
            if actual != expected:
                restored_ok = False
        return {"journal_restores_final_state": restored_ok}

    def facts(self) -> dict[str, Any]:
        sizes = []
        for replica_id in range(LIVE_N):
            lines = self.spec.journal_path(replica_id).read_bytes().splitlines()
            if lines:
                sizes.append(len(lines[-1]))
        return {"record_bytes_last": max(sizes) if sizes else 0}


def _transport_totals(transports: list[Any]) -> dict[str, int]:
    totals = {"frames_sent": 0, "dropped_backpressure": 0, "reconnects": 0}
    for transport in transports:
        for key in totals:
            totals[key] += getattr(transport, key)
    return totals


async def _settle(limit: float = 5.0) -> None:
    """Until every other task has finished.

    A stopped cluster's transports finish tearing down in tasks that still
    reference it; built over, its whole heap would stay alive and inflate
    every collector pause in the next window.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + limit
    current = asyncio.current_task()
    while any(task is not current for task in asyncio.all_tasks()):
        if loop.time() > deadline:
            raise RuntimeError("cluster teardown did not finish")
        await asyncio.sleep(0.01)


def _decisions(collectors: list[Any]) -> int:
    return max(collector.decisions() for collector in collectors)


@dataclass
class Segment:
    """One measured window on one freshly built cluster."""

    latencies_ms: list[float]
    attempted: int
    cpu_s: float
    run_s: float
    decisions: int
    gates: dict[str, bool]
    facts: dict[str, Any]


async def _measure_segment(
    target: Any, label: str, seconds: float, tracer: Any
) -> Segment:
    """Drive the built ``target`` for a warm-up plus ``seconds``, then drain."""
    from repro.traffic.admission import AdmissionController
    from repro.types.transactions import make_transaction

    loop = asyncio.get_running_loop()
    clock = loop.time
    tracker = _make_tracker(clock)
    admission = AdmissionController(
        [replica.mempool for replica in target.replicas], tracker=tracker
    )
    for collector in target.collectors:
        collector.attach_request_tracker(tracker)

    start = clock() + LIVE_LEAD
    window_start = start + LIVE_WARMUP
    window_end = window_start + seconds
    due = poisson_due_times(LIVE_RATE, start, window_end, label)
    rng = random.Random(f"perfbench-payloads:{label}")
    requests = [
        make_transaction(
            index,
            payload=_payload(rng, index),
            payload_size=PAYLOAD_BYTES,
            submitted_at=due[index],
        )
        for index in range(len(due))
    ]
    first = next(i for i, moment in enumerate(due) if moment >= window_start)
    window = range(first, len(due))
    admitted = [False] * len(due)

    def offer(index: int) -> None:
        admitted[index] = admission.offer(requests[index], now=due[index])

    marks: dict[str, dict[str, Any]] = {}

    def mark(name: str) -> None:
        marks[name] = {
            "cpu": time.process_time(),
            "decisions": _decisions(target.collectors),
            "transport": _transport_totals(target.transports),
            "encoded_bytes": sum(c.encoded_bytes for c in target.collectors),
            "fallbacks": sum(c.fallback_count() for c in target.collectors),
            "timeouts": sum(len(c.timeouts) for c in target.collectors),
            "fallback_messages": sum(
                c.message_counts[m] for c in target.collectors for m in FALLBACK_MESSAGES
            ),
        }
        if tracer is not None:
            if name == "start":
                tracer.reset()
            else:
                marks[name]["spans"] = {k: list(v) for k, v in tracer.stats.items()}
                marks[name]["gc_pauses"] = list(tracer.gc_pauses)

    loop.call_at(window_start, mark, "start")
    loop.call_at(window_end, mark, "end")
    driver = DueTimeDriver(due, offer, clock)
    target.start()
    await driver.run()

    deadline = window_end + LIVE_DRAIN
    pending = {requests[i].tx_id for i in window}
    while pending and clock() < deadline:
        await asyncio.sleep(0.01)
        pending = {tx for tx in pending if tx not in tracker.committed}
    while "end" not in marks:  # everything committed before the window closed
        await asyncio.sleep(0.001)
    drained_at = clock()
    await target.stop()

    latencies = []
    queue_waits = []
    for index in window:
        tx_id = requests[index].tx_id
        committed_at = tracker.committed.get(tx_id)
        if committed_at is not None and committed_at <= deadline:
            latencies.append((committed_at - due[index]) * 1000.0)
        proposed_at = tracker.proposed.get(tx_id)
        if proposed_at is not None:
            queue_waits.append((proposed_at - due[index]) * 1000.0)

    replicas = target.replicas
    logs = [[block.id for block in r.ledger.committed_blocks()] for r in replicas]
    gates = {
        "prefix_consistent": prefix_consistent(logs),
        "no_request_twice": no_request_twice(replicas),
    }
    gates.update(target.gates())

    begin, end = marks["start"], marks["end"]
    decisions = end["decisions"] - begin["decisions"]
    reference = max(replicas, key=lambda r: r.ledger.height)
    window_blocks = reference.ledger.committed_blocks()[
        begin["decisions"] : end["decisions"]
    ]
    crypto = replicas[0].crypto
    facts: dict[str, Any] = {
        **block_facts(window_blocks, replicas[0].config.batch_size),
        "frames_sent": end["transport"]["frames_sent"] - begin["transport"]["frames_sent"],
        "backpressure_drops": end["transport"]["dropped_backpressure"]
        - begin["transport"]["dropped_backpressure"],
        "reconnects": end["transport"]["reconnects"] - begin["transport"]["reconnects"],
        "encoded_bytes": end["encoded_bytes"] - begin["encoded_bytes"],
        "fallback_views": end["fallbacks"] - begin["fallbacks"],
        "round_timeouts": end["timeouts"] - begin["timeouts"],
        "fallback_messages": end["fallback_messages"] - begin["fallback_messages"],
        "cert_cache": crypto.cert_cache.counters(),
        "share_pool": crypto.share_pool.counters(),
        "queue_waits_ms": queue_waits,
        "lateness_ms": [driver.lateness[i] * 1000.0 for i in window],
        "shed": sum(1 for i in window if not admitted[i]),
        "blocks_retained": sum(len(r.store) for r in replicas),
        "spans": end.get("spans", {}),
        "gc_pauses": end.get("gc_pauses", []),
        **target.facts(),
    }
    return Segment(
        latencies_ms=latencies,
        attempted=len(window),
        cpu_s=end["cpu"] - begin["cpu"],
        run_s=drained_at - window_start,
        decisions=decisions,
        gates=gates,
        facts=facts,
    )


def _merge_facts(segments: list[Segment]) -> dict[str, Any]:
    """Sum counts, pool samples; keep the last segment's end-state sizes."""
    from repro.crypto.hashing import hash_cache_size

    merged: dict[str, Any] = {
        "decisions": sum(s.decisions for s in segments),
        "hash_memo_entries": hash_cache_size(),
    }
    last = segments[-1].facts
    for key, value in last.items():
        values = [s.facts[key] for s in segments]
        if key in ("blocks_retained", "record_bytes_last"):
            merged[key] = value
        elif key == "batch_fill":
            merged[key] = statistics.mean(values)
        elif key in ("cert_cache", "share_pool"):
            merged[key] = {
                field: sum(v[field] for v in values) for field in ("hits", "misses")
            }
        elif key == "spans":
            spans: dict[str, list[float]] = {}
            for value_set in values:
                for name, entry in value_set.items():
                    total = spans.setdefault(name, [0, 0.0, 0.0])
                    for i in range(3):
                        total[i] += entry[i]
            merged[key] = spans
        elif isinstance(value, list):
            merged[key] = [item for v in values for item in v]
        else:
            merged[key] = sum(values)
    return merged


async def _run_live(
    target: Any,
    seed: int,
    seconds: float,
    segments: int,
    tracer: Any,
) -> Outcome:
    """Set up SETUPS times; measure ``segments`` windows, each on a fresh
    cluster (the last ``segments`` set-ups), splitting ``seconds`` evenly."""
    from repro.crypto.hashing import clear_hash_cache

    setup_times = []
    results: list[Segment] = []
    builds = max(SETUPS, segments)
    for attempt in range(builds):
        # Each cluster starts as it would in a fresh process: no memo and
        # nothing left of the one before it.
        target.release()
        await _settle()
        clear_hash_cache()
        gc.collect()
        began = time.perf_counter()
        await target.build(attempt)
        setup_times.append(time.perf_counter() - began)
        segment = attempt - (builds - segments)
        if segment < 0:
            await target.stop()
            continue
        results.append(
            await _measure_segment(
                target, f"{seed}:{segment}", seconds / segments, tracer
            )
        )

    latencies = [value for s in results for value in s.latencies_ms]
    gates = {
        name: all(s.gates[name] for s in results) for name in results[0].gates
    }
    decisions = sum(s.decisions for s in results)
    return Outcome(
        setup_s=statistics.median(setup_times),
        run_s=sum(s.run_s for s in results),
        latencies_ms=latencies,
        attempted=sum(s.attempted for s in results),
        succeeded=len(latencies),
        cpu_s=sum(s.cpu_s for s in results),
        work_units=decisions,
        gates=gates,
        detail={
            "setup_times_s": setup_times,
            "offered_rate_per_s": LIVE_RATE,
            "segments": segments,
            "window_s_per_segment": seconds / segments,
            "warmup_s": LIVE_WARMUP,
            "drain_s": LIVE_DRAIN,
            "decisions_in_window": decisions,
            "segment_p50_ms": [
                statistics.median(s.latencies_ms) for s in results if s.latencies_ms
            ],
            "segment_decisions": [s.decisions for s in results],
            "segment_round_timeouts": [s.facts["round_timeouts"] for s in results],
        },
        facts=_merge_facts(results),
    )


def _live(target: Any, seed: int, seconds: float, tracer: Any) -> Outcome:
    """Windows of LIVE_SEGMENT seconds, each on a freshly built cluster.

    Every cluster retains all it commits, so the collector pauses and, on
    live-durable, the per-event persist cost grow with height: one long
    window would make the tail a function of where the last full
    collection fell.  Fixed-length windows on fresh clusters keep the
    height range, and so the figures, independent of ``seconds``, and
    pooling several windows averages over their collection phases.
    """
    segments = max(1, round(seconds / LIVE_SEGMENT))
    return asyncio.run(_run_live(target, seed, seconds, segments, tracer))


def live_open(seed: int, seconds: float, tracer: Any, work_dir: Path) -> Outcome:
    return _live(InProcessCluster(work_dir), seed, seconds, tracer)


def live_durable(seed: int, seconds: float, tracer: Any, work_dir: Path) -> Outcome:
    return _live(ProcessHosts(work_dir), seed, seconds, tracer)


# ----------------------------------------------------------------------
# sim-fallback: the simulator under the leader-targeting adversary
# ----------------------------------------------------------------------
def sim_fallback(seed: int, seconds: float, tracer: Any, work_dir: Path) -> Outcome:
    from repro.crypto.hashing import clear_hash_cache, hash_cache_size
    from repro.experiments.scenarios import leader_attack_factory
    from repro.runtime.cluster import ClusterBuilder
    from repro.traffic.admission import AdmissionController
    from repro.traffic.loadgen import OpenLoopGenerator, PoissonArrivals
    from repro.traffic.saturation import SaturationScenario
    from repro.traffic.slo import RequestTracker

    scenario = SaturationScenario(name="sim-fallback", n=SIM_N, network="attack")
    setup_times = []
    cluster: Any = None
    for _ in range(SETUPS):
        clear_hash_cache()
        began = time.perf_counter()
        cluster = (
            ClusterBuilder(config=scenario.config(), seed=CLUSTER_SEED)
            .with_preload(0)
            .with_delay_model_factory(leader_attack_factory(scenario.attack_delay))
            .build()
        )
        setup_times.append(time.perf_counter() - began)

    # The same arrival path traffic.saturation.measure_rate drives.
    for mempool in cluster.mempools:
        mempool.capacity = scenario.mempool_capacity
    tracker = RequestTracker()
    admission = AdmissionController(cluster.mempools, tracker=tracker)
    cluster.metrics.attach_request_tracker(tracker)
    duration = SIM_SECONDS_PER_SECOND * seconds
    total = max(1, int(SIM_RATE * duration))
    rng = random.Random(f"perfbench-payloads:{seed}")

    def request(index: int, now: float) -> Any:
        from repro.types.transactions import make_transaction

        return make_transaction(
            index,
            payload=_payload(rng, index),
            payload_size=PAYLOAD_BYTES,
            submitted_at=now,
        )

    generator = OpenLoopGenerator(
        PoissonArrivals(SIM_RATE, seed=seed),
        admission.offer,
        factory=request,
        max_count=total,
    )

    def drained() -> bool:
        return admission.offered >= total and tracker.committed_count() >= admission.admitted

    if tracer is not None:
        tracer.reset()
    cpu_began = time.process_time()
    began = time.perf_counter()
    cluster.start()
    generator.start(cluster.scheduler)
    cluster.run(until=duration + SIM_DRAIN, stop_when=drained)
    run_s = time.perf_counter() - began
    cpu_s = time.process_time() - cpu_began

    metrics = cluster.metrics
    latencies = [value * 1000.0 for value in tracker.commit_latencies()]
    replicas = cluster.honest_replicas()
    logs = [[block.id for block in r.ledger.committed_blocks()] for r in replicas]
    gates = {
        "prefix_consistent": prefix_consistent(logs),
        "no_request_twice": no_request_twice(replicas),
    }
    decisions = metrics.decisions()
    entered = {e.view for e in metrics.fallback_events if e.kind == "entered"}
    committed_views = {
        event.view
        for event in metrics.commits
        if event.fallback_block and event.replica in metrics.honest_ids
    }
    reference = max(replicas, key=lambda r: r.ledger.height)
    config = cluster.config
    batch_limit = (
        config.adaptive_max_batch if config.adaptive_batching else config.batch_size
    )
    crypto = replicas[0].crypto
    queue_waits = [value * 1000.0 for value in tracker.queue_latencies()]
    facts = {
        "decisions": decisions,
        **block_facts(reference.ledger.committed_blocks(), batch_limit),
        "fallback_views": len(entered),
        "fallback_views_without_commit": len(entered - committed_views),
        "fallback_messages": sum(metrics.message_counts[m] for m in FALLBACK_MESSAGES),
        "cert_cache": crypto.cert_cache.counters(),
        "share_pool": crypto.share_pool.counters(),
        "queue_waits_ms": queue_waits,
        "shed": admission.rejected,
        "blocks_retained": sum(len(r.store) for r in replicas),
        "hash_memo_entries": hash_cache_size(),
        "spans": {k: list(v) for k, v in tracer.stats.items()} if tracer else {},
        "gc_pauses": list(tracer.gc_pauses) if tracer else [],
        "sim_events": cluster.scheduler.events_processed,
    }
    return Outcome(
        setup_s=statistics.median(setup_times),
        run_s=run_s,
        latencies_ms=latencies,
        attempted=total,
        succeeded=len(latencies),
        cpu_s=cpu_s,
        work_units=decisions,
        gates=gates,
        detail={
            "setup_times_s": setup_times,
            "n": SIM_N,
            "offered_rate_per_sim_s": SIM_RATE,
            "sim_duration_s": duration,
            "sim_stopped_at_s": cluster.scheduler.now,
            "decisions": decisions,
            "fallback_views": len(entered),
            "latency_clock": "simulated",
        },
        facts=facts,
    )


# ----------------------------------------------------------------------
# lint-tree: `repro lint` over the fixed corpus
# ----------------------------------------------------------------------
def lint_tree(seed: int, seconds: float, tracer: Any, work_dir: Path) -> Outcome:
    """``repro lint`` over the fixed corpus, LINT_SECONDS_PER_PASS of
    ``seconds`` per pass.  The corpus is fixed, so ``seed`` is unused."""
    import corpus

    setup_times = []
    root: Optional[Path] = None
    for attempt in range(SETUPS):
        began = time.perf_counter()
        root = corpus.extract(work_dir / f"corpus-{attempt}")
        setup_times.append(time.perf_counter() - began)
    assert root is not None
    expected = corpus.module_count()

    from repro.lint import collect_modules, get_rules, lint_modules
    from repro.lint.engine import ProjectRule

    # Time each module's pass through the per-module rules: the lint
    # workload's per-operation latency.
    per_module: dict[str, float] = {}

    def timed_check(check: Callable[..., Any]) -> Callable[..., Any]:
        def run(rule: Any, module: Any) -> list[Any]:
            began = time.perf_counter()
            found = list(check(rule, module))
            per_module[module.path] = (
                per_module.get(module.path, 0.0) + time.perf_counter() - began
            )
            return found

        return run

    rules = get_rules()
    patched = []
    for rule_class in {type(rule) for rule in rules}:
        if issubclass(rule_class, ProjectRule) or "check" not in rule_class.__dict__:
            continue
        patched.append((rule_class, rule_class.__dict__["check"]))
        rule_class.check = timed_check(rule_class.__dict__["check"])

    passes = max(1, round(seconds / LINT_SECONDS_PER_PASS))
    pass_times: list[float] = []
    latencies: list[float] = []
    analysed: list[int] = []
    errors: list[str] = []
    findings = 0
    if tracer is not None:
        tracer.reset()
    cpu_began = time.process_time()
    for _ in range(passes):
        per_module.clear()
        gc.collect()
        began = time.perf_counter()
        try:
            modules = collect_modules(root, None)
            findings = len(lint_modules(modules, rules))
        except Exception as exc:  # an internal lint error fails the gate
            errors.append(f"{type(exc).__name__}: {exc}")
            modules = []
        pass_times.append(time.perf_counter() - began)
        analysed.append(len(modules))
        latencies.extend(value * 1000.0 for value in per_module.values())
    cpu_s = time.process_time() - cpu_began
    for rule_class, check in patched:
        rule_class.check = check

    gates = {
        "lint_completed": not errors,
        "every_corpus_module_analysed": all(count == expected for count in analysed),
    }
    facts = {
        "decisions": 0,
        "lint_passes": passes,
        "findings": findings,
        "spans": {k: list(v) for k, v in tracer.stats.items()} if tracer else {},
        "gc_pauses": list(tracer.gc_pauses) if tracer else [],
    }
    return Outcome(
        setup_s=statistics.median(setup_times),
        run_s=statistics.median(pass_times),
        latencies_ms=latencies,
        attempted=expected * passes,
        succeeded=sum(analysed),
        cpu_s=cpu_s,
        work_units=max(1, sum(analysed)),
        gates=gates,
        detail={
            "setup_times_s": setup_times,
            "corpus": corpus.describe(),
            "passes": passes,
            "pass_times_s": pass_times,
            "modules_per_pass": analysed,
            "findings": findings,
            "internal_errors": errors,
            "latency": "one module's pass through the per-module rules",
        },
        facts=facts,
    )


WORKLOADS: dict[str, Callable[[int, float, Any, Path], Outcome]] = {
    "live-open": live_open,
    "live-durable": live_durable,
    "sim-fallback": sim_fallback,
    "lint-tree": lint_tree,
}
