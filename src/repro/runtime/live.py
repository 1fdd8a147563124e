"""Live-cluster runtime: the protocol over real sockets and a real clock.

This module runs *unchanged* :class:`~repro.core.replica.Replica` (or
:class:`~repro.storage.durable.DurableReplica`) instances over localhost
TCP with wall-clock timers:

- :class:`WallClockScheduler` / :class:`WallClockTimer` implement the
  :mod:`repro.sim.timers` interface on top of ``loop.call_later`` —
  ``now`` is wall-clock seconds since cluster start, so protocol timeout
  arithmetic works identically under both clocks.
- :class:`LiveNetwork` implements the transport surface replicas use
  (``send`` / ``multicast``) by codec-encoding each message and handing
  the bytes to per-replica :class:`~repro.net.tcp.TcpTransport` endpoints.
  Byte accounting bills each send at its frame header plus encoded payload,
  the same size the simulator bills from the codec table.
- :class:`LiveCluster` assembles n replicas in one process on one asyncio
  event loop.  Handler atomicity is preserved — the loop is single-threaded
  and every delivery/timer callback is synchronous — so replica logic needs
  no locks, exactly as in the simulator.

Chaos: :meth:`LiveCluster.run` with ``force_fallback=True`` installs a
drop-``Proposal`` filter for a bounded window mid-run.  Steady-state
progress stalls, round timers expire for real, the asynchronous fallback
runs over the sockets (fallback message types pass the filter), the coin
elects a leader, and the cluster commits through the fallback before
resuming the fast path — the paper's "network goes bad" story end to end.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol

from repro.core.config import ProtocolConfig, ProtocolVariant
from repro.core.context import SharedSetup
from repro.core.replica import Replica
from repro.mempool.mempool import Mempool
from repro.net.tcp import TcpTransport
from repro.runtime.metrics import MetricsCollector
from repro.traffic.admission import AdmissionController
from repro.traffic.loadgen import preload
from repro.types.messages import Proposal
from repro.wire.codec import encode_message
from repro.wire.framing import FRAME_HEADER_SIZE

#: Filter signature: (sender, receiver, message) -> True to DROP.
DropFilter = Callable[[int, int, object], bool]


class _DeliverableProcess(Protocol):
    """What :class:`LiveNetwork` needs from a registered process.

    Structurally satisfied by :class:`~repro.sim.process.Process` (and so
    by every replica variant) without importing the simulator base class.
    """

    process_id: int

    def deliver(self, sender: int, message: Any) -> None: ...


# ----------------------------------------------------------------------
# Wall-clock timers (the live TimerScheduler)
# ----------------------------------------------------------------------
class WallClockTimer:
    """A ``loop.call_later`` handle behind the :class:`TimerHandle` interface."""

    __slots__ = ("_handle", "_deadline", "_fired", "_cancelled")

    def __init__(self) -> None:
        self._handle: Optional[asyncio.TimerHandle] = None
        self._deadline = 0.0
        self._fired = False
        self._cancelled = False

    @property
    def deadline(self) -> float:
        return self._deadline

    @property
    def active(self) -> bool:
        return not self._fired and not self._cancelled

    def cancel(self) -> None:
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()


class WallClockScheduler:
    """The live :class:`~repro.sim.timers.TimerScheduler`.

    ``now`` is wall-clock seconds since construction (same origin for the
    whole cluster), so timeout arithmetic and latency metrics read the same
    way as simulated time.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._epoch = self._loop.time()

    @property
    def now(self) -> float:
        return self._loop.time() - self._epoch

    def set_timer(
        self, delay: float, action: Callable[[], None], label: str = "timer"
    ) -> WallClockTimer:
        timer = WallClockTimer()
        timer._deadline = self.now + max(delay, 0.0)

        def fire() -> None:
            timer._fired = True
            action()

        timer._handle = self._loop.call_later(max(delay, 0.0), fire)
        return timer


# ----------------------------------------------------------------------
# Live network
# ----------------------------------------------------------------------
class LiveNetwork:
    """The replicas' transport surface, backed by TCP endpoints.

    Mirrors the simulated network's contract: authenticated sender ids,
    deterministic multicast order, immediate (but not reentrant)
    self-delivery.  Every remote send is codec-encoded once and billed at
    its framed size via :meth:`MetricsCollector.on_send`.
    """

    def __init__(
        self,
        scheduler: WallClockScheduler,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.scheduler = scheduler
        self.metrics = metrics
        self._loop = asyncio.get_running_loop()
        self._processes: dict[int, _DeliverableProcess] = {}
        self._transports: dict[int, TcpTransport] = {}
        self._group_sorted: tuple[int, ...] = ()
        #: Filters applied to remote sends; any True verdict drops the send.
        self._drop_filters: list[DropFilter] = []
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self.encode_failures = 0
        #: Remote sends the transport refused (no route, backpressure, closed).
        self.sends_refused = 0

    # -- topology ------------------------------------------------------
    def register(
        self, process: _DeliverableProcess, transport: TcpTransport
    ) -> None:
        process_id = process.process_id
        if process_id in self._processes:
            raise ValueError(f"process id {process_id} already registered")
        self._processes[process_id] = process
        self._transports[process_id] = transport
        self._group_sorted = tuple(sorted(self._processes))

    def process_ids(self) -> list[int]:
        return list(self._group_sorted)

    def process(self, process_id: int) -> _DeliverableProcess:
        return self._processes[process_id]

    # -- chaos ---------------------------------------------------------
    def add_drop_filter(self, drop: DropFilter) -> None:
        self._drop_filters.append(drop)

    def remove_drop_filter(self, drop: DropFilter) -> None:
        if drop in self._drop_filters:
            self._drop_filters.remove(drop)

    # -- sending -------------------------------------------------------
    def send(self, sender: int, receiver: int, message: object) -> None:
        if receiver == sender:
            # Same non-reentrancy as the simulator's self-delivery: the
            # current handler finishes before the message is processed.
            target = self._processes[receiver]
            self._loop.call_soon(target.deliver, sender, message)
            return
        for drop in self._drop_filters:
            if drop(sender, receiver, message):
                self.messages_dropped += 1
                return
        try:
            payload = encode_message(sender, message)
        except Exception:
            self.encode_failures += 1
            return
        size = FRAME_HEADER_SIZE + len(payload)
        if self.metrics is not None:
            self.metrics.on_send(
                sender, receiver, message, self.scheduler.now, size
            )
        if self._transports[sender].send(receiver, payload):
            self.messages_sent += 1
            self.bytes_sent += size
        else:
            self.sends_refused += 1

    def multicast(self, sender: int, message: object, include_self: bool = True) -> None:
        for receiver in self._group_sorted:
            if receiver == sender and not include_self:
                continue
            self.send(sender, receiver, message)

    # -- receiving (transport callbacks) -------------------------------
    def make_delivery_handler(self, owner_id: int) -> Callable[[int, object], None]:
        """Inbound handler for ``owner_id``'s transport."""

        def deliver(peer_id: int, message: object) -> None:
            process = self._processes.get(owner_id)
            if process is not None:
                process.deliver(peer_id, message)

        return deliver

    # -- reporting -----------------------------------------------------
    def transport_counters(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for transport in self._transports.values():
            for key, value in transport.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals


# ----------------------------------------------------------------------
# Live cluster
# ----------------------------------------------------------------------
@dataclass
class LiveRunReport:
    """Outcome of one :meth:`LiveCluster.run`."""

    decisions: int
    min_honest_height: int
    fallbacks: int
    wall_seconds: float
    encoded_bytes: int
    messages_sent: int
    messages_dropped: int
    ledgers_consistent: bool
    timed_out: bool
    transport: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.ledgers_consistent and not self.timed_out


class LiveCluster:
    """n unchanged replicas over localhost TCP on one asyncio loop.

    Synchronous facade: :meth:`run` owns the event loop (``asyncio.run``),
    so callers — the CLI, tests, CI — need no async plumbing.
    """

    def __init__(
        self,
        n: int = 4,
        seed: int = 0,
        variant: ProtocolVariant = ProtocolVariant.FALLBACK_3CHAIN,
        round_timeout: float = 1.0,
        batch_size: int = 10,
        preload: int = 1000,
        durable: bool = False,
        host: str = "127.0.0.1",
        config: Optional[ProtocolConfig] = None,
    ) -> None:
        if config is not None and config.n != n:
            raise ValueError(f"conflicting cluster sizes: n={n} vs config.n={config.n}")
        self.config = config if config is not None else ProtocolConfig(
            n=n,
            variant=variant,
            round_timeout=round_timeout,
            batch_size=batch_size,
        )
        self.seed = seed
        self.preload = preload
        self.durable = durable
        self.host = host
        # Populated during run() (valid while the loop is alive, inspectable
        # after it for counters/ledgers — sockets are closed by then).
        self.scheduler: Optional[WallClockScheduler] = None
        self.network: Optional[LiveNetwork] = None
        self.metrics: Optional[MetricsCollector] = None
        self.replicas: list[Replica] = []
        self.transports: list[TcpTransport] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(
        self,
        target_commits: int = 20,
        timeout: float = 60.0,
        force_fallback: bool = False,
        fallback_after_commits: int = 5,
    ) -> LiveRunReport:
        """Run until every replica commits ``target_commits`` blocks.

        ``force_fallback`` stalls the fast path mid-run (Proposals dropped
        for ~2.5 round timeouts once ``fallback_after_commits`` blocks have
        committed), forcing a real timeout -> fallback -> coin-elected
        commit before steady state resumes.
        """
        return asyncio.run(
            self._run(target_commits, timeout, force_fallback, fallback_after_commits)
        )

    async def _close_transports(self) -> None:
        """Close every transport; the shield target for cancelled runs."""
        for transport in self.transports:
            await transport.close()

    async def _stop(self) -> None:
        """Silence every replica, then close every transport.

        Crashing first cancels the replicas' timers and drops whatever
        the close still delivers: a delivery handled during the close
        would re-arm a round timer, and the replicas would keep timing
        out and multicasting on a loop that outlives the cluster.
        """
        for replica in self.replicas:
            replica.crash()
        await self._close_transports()

    async def _run(
        self,
        target_commits: int,
        timeout: float,
        force_fallback: bool,
        fallback_after_commits: int,
    ) -> LiveRunReport:
        wall_start = time.perf_counter()
        await self._build()
        assert self.metrics is not None and self.network is not None
        metrics, network = self.metrics, self.network
        timed_out = False
        drop_proposals: DropFilter = lambda s, r, m: isinstance(m, Proposal)
        fallback_pending = force_fallback
        fallback_clear_at: Optional[float] = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        try:
            for replica in self.replicas:
                replica.on_start()
            while True:
                done = metrics.min_honest_height() >= target_commits
                if done and not fallback_pending and fallback_clear_at is None:
                    break
                if loop.time() >= deadline:
                    timed_out = True
                    break
                if fallback_pending and metrics.decisions() >= fallback_after_commits:
                    fallback_pending = False
                    network.add_drop_filter(drop_proposals)
                    fallback_clear_at = (
                        loop.time() + 2.5 * self.config.round_timeout
                    )
                if fallback_clear_at is not None and loop.time() >= fallback_clear_at:
                    network.remove_drop_filter(drop_proposals)
                    fallback_clear_at = None
                await asyncio.sleep(0.02)
        finally:
            # Shielded: a cancelled run must still close every transport.
            await asyncio.shield(self._stop())
        return LiveRunReport(
            decisions=metrics.decisions(),
            min_honest_height=metrics.min_honest_height(),
            fallbacks=metrics.fallback_count(),
            wall_seconds=time.perf_counter() - wall_start,
            encoded_bytes=metrics.encoded_bytes,
            messages_sent=network.messages_sent,
            messages_dropped=network.messages_dropped,
            ledgers_consistent=self.ledger_prefixes_consistent(),
            timed_out=timed_out,
            transport=network.transport_counters(),
        )

    # ------------------------------------------------------------------
    # Open-loop traffic (wall clock)
    # ------------------------------------------------------------------
    def run_open_loop(
        self,
        rate: float,
        duration: float,
        drain: float = 10.0,
        mempool_capacity: Optional[int] = None,
        loadgen_seed: int = 0,
    ) -> dict[str, Any]:
        """Drive the live cluster open-loop at ``rate`` offers/sec.

        Poisson arrivals flow through a bounded-queue
        :class:`~repro.traffic.admission.AdmissionController` for
        ``duration`` wall-clock seconds, then admitted work gets ``drain``
        seconds to commit.  Returns a JSON-ready record with admission
        counters, goodput, and submit->commit SLO percentiles — the live
        counterpart of :func:`repro.traffic.saturation.measure_rate`.
        """
        return asyncio.run(
            self._run_open_loop(rate, duration, drain, mempool_capacity, loadgen_seed)
        )

    async def _run_open_loop(
        self,
        rate: float,
        duration: float,
        drain: float,
        mempool_capacity: Optional[int],
        loadgen_seed: int,
    ) -> dict[str, Any]:
        from repro.traffic.admission import AdmissionController
        from repro.traffic.envelope import TrafficEnvelope
        from repro.traffic.loadgen import OpenLoopGenerator, PoissonArrivals
        from repro.traffic.slo import RequestTracker, summarize

        wall_start = time.perf_counter()
        await self._build()
        assert self.metrics is not None and self.scheduler is not None
        scheduler = self.scheduler
        mempools = [replica.mempool for replica in self.replicas]
        if mempool_capacity is not None:
            for mempool in mempools:
                mempool.capacity = mempool_capacity
        envelope = TrafficEnvelope()
        tracker = RequestTracker()
        admission = AdmissionController(mempools, envelope=envelope, tracker=tracker)
        self.metrics.attach_request_tracker(tracker)
        self.metrics.attach_admission(admission)
        generator = OpenLoopGenerator(
            PoissonArrivals(rate, seed=loadgen_seed), admission.offer
        )
        loop = asyncio.get_running_loop()
        try:
            for replica in self.replicas:
                replica.on_start()
            await generator.run_wall_clock(duration, lambda: scheduler.now)
            deadline = loop.time() + drain
            while (
                loop.time() < deadline
                and tracker.committed_count() < admission.admitted
            ):
                await asyncio.sleep(0.05)
        finally:
            # Shielded: a cancelled run must still close every transport.
            await asyncio.shield(self._stop())
        committed = tracker.committed_count()
        return {
            "offered_rate": rate,
            "duration": duration,
            **admission.counters(),
            "committed": committed,
            "goodput": committed / duration,
            "goodput_ratio": committed / max(1, admission.offered),
            "latency": summarize(tracker.commit_latencies()).to_json(),
            "slo": tracker.summary_json(),
            "envelope": envelope.cluster.snapshot(),
            "fallbacks": self.metrics.fallback_count(),
            "ledgers_consistent": self.ledger_prefixes_consistent(),
            "wall_seconds": time.perf_counter() - wall_start,
        }

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    async def _build(self) -> None:
        config = self.config
        self.scheduler = WallClockScheduler()
        setup = SharedSetup.deal(config, coin_seed=self.seed)
        self.metrics = MetricsCollector(honest_ids=range(config.n))
        self.metrics.attach_cert_cache(setup.cert_cache)
        self.network = LiveNetwork(self.scheduler, metrics=self.metrics)

        # Bind every listener first (ephemeral ports), then mesh.
        self.transports = []
        addresses: list[tuple[str, int]] = []
        for replica_id in range(config.n):
            transport = TcpTransport(
                node_id=replica_id,
                on_message=self.network.make_delivery_handler(replica_id),
                host=self.host,
            )
            addresses.append(await transport.start())
            self.transports.append(transport)
            self.metrics.attach_transport(transport)
        for replica_id, transport in enumerate(self.transports):
            for peer_id, (host, port) in enumerate(addresses):
                if peer_id != replica_id:
                    transport.add_peer(peer_id, host, port)

        replica_cls: type[Replica] = Replica
        if self.durable:
            from repro.storage.durable import DurableReplica

            replica_cls = DurableReplica

        mempools = [Mempool(batch_size=config.batch_size) for _ in range(config.n)]
        self.replicas = []
        for replica_id in range(config.n):
            replica = replica_cls(
                replica_id,
                config,
                setup.context_for(replica_id),
                self.network,
                self.scheduler,
                mempool=mempools[replica_id],
                observer=self.metrics,
            )
            self.replicas.append(replica)
            self.network.register(replica, self.transports[replica_id])

        preload(AdmissionController(mempools).offer, self.preload, self.scheduler.now)

    # ------------------------------------------------------------------
    # Safety check
    # ------------------------------------------------------------------
    def committed_ids(self, replica_id: int) -> list[str]:
        return [
            block.id for block in self.replicas[replica_id].ledger.committed_blocks()
        ]

    def ledger_prefixes_consistent(self) -> bool:
        """Every pair of committed logs is prefix-consistent (safety)."""
        logs = [self.committed_ids(i) for i in range(self.config.n)]
        for i in range(len(logs)):
            for j in range(i + 1, len(logs)):
                shorter = min(len(logs[i]), len(logs[j]))
                if logs[i][:shorter] != logs[j][:shorter]:
                    return False
        return True
