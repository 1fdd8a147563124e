"""Client swarm: many concurrent TCP clients load-testing a live cluster.

The simulator's :class:`~repro.client.client.Client` proves the SMR
contract under a virtual clock; this module points the same contract at a
*real* multi-process cluster over TCP and measures it on the wall clock.

A :class:`SwarmClient` owns one :class:`~repro.net.tcp.TcpTransport`
**without a listener**: it dials every replica, and replies ride back over
those same full-duplex connections (the transport's reply path).  Requests
are broadcast to all replicas; a transaction is *confirmed* once **f+1
replicas agree** on its (position, block id) — at least one of them is
honest, and safety makes honest logs agree.  Unconfirmed requests
retransmit with exponential backoff; commits stay exactly-once because
mempools and blocks deduplicate by ``tx_id``, so retransmission is free of
double-spend hazards and merely re-offers the transaction to whichever
replicas missed it (or were dead the first time).

:class:`ClientSwarm` drives N such clients in two load shapes:

- **closed loop** (default): each client keeps ``outstanding`` requests in
  flight and issues a new one per confirmation — throughput is whatever
  the cluster sustains.
- **open loop**: the swarm injects at a fixed aggregate rate regardless of
  confirmations — the honest way to observe latency under overload.

The resulting :class:`SwarmReport` carries wall-clock throughput and
client-observed commit-latency percentiles (p50/p95/p99), the numbers
``BENCH_live.json`` records.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.client.client import ClientReply, ClientRequest
from repro.net.tcp import TcpTransport
from repro.runtime.spec import ClusterSpec
from repro.traffic.slo import summarize
from repro.types.transactions import Transaction
from repro.wire.codec import encode_message

#: Swarm client ids start here — far above any replica id, and distinct
#: from the in-process runtime's convention (ids >= n) so stray status
#: files or logs are easy to attribute.
SWARM_ID_BASE = 1000

#: How often the retransmit scan runs (seconds).
RETRANSMIT_TICK = 0.25


@dataclass
class SwarmConfirmation:
    """One client-confirmed commit (wall-clock latency)."""

    tx_id: str
    position: int
    block_id: str
    latency: float


@dataclass
class _Pending:
    transaction: Transaction
    submitted_at: float
    replies: dict[int, tuple[int, str]] = field(default_factory=dict)
    attempts: int = 0
    next_retry_at: float = 0.0


class SwarmClient:
    """One wall-clock BFT client over TCP (see module docstring)."""

    def __init__(
        self,
        client_id: int,
        spec: ClusterSpec,
        payload_size: int = 100,
        retransmit_interval: float = 2.0,
        retransmit_backoff: float = 2.0,
        retransmit_cap: Optional[float] = None,
    ) -> None:
        self.client_id = client_id
        self.spec = spec
        self.f = spec.config().f
        self.payload_size = payload_size
        self.retransmit_interval = retransmit_interval
        self.retransmit_backoff = retransmit_backoff
        self.retransmit_cap = (
            retransmit_cap if retransmit_cap is not None else 8.0 * retransmit_interval
        )
        self.transport: Optional[TcpTransport] = None
        self.pending: dict[str, _Pending] = {}
        self.confirmations: list[SwarmConfirmation] = []
        self.submitted = 0
        self.retransmissions = 0
        self._next_index = 0
        self._confirmed_event = asyncio.Event()
        self._retransmit_task: Optional[asyncio.Task] = None

    async def start(self) -> None:
        """Dial every replica (no listener: replies are full-duplex)."""
        self.transport = TcpTransport(
            node_id=self.client_id, on_message=self._on_message
        )
        for replica_id, (host, port) in enumerate(self.spec.addresses()):
            self.transport.add_peer(replica_id, host, port)
        self._retransmit_task = asyncio.get_running_loop().create_task(
            self._retransmit_loop(), name=f"swarm-retransmit-{self.client_id}"
        )

    async def close(self) -> None:
        # Swap-before-suspend: take the handle atomically so a concurrent
        # close() cannot cancel/clear a task this frame already joined.
        task, self._retransmit_task = self._retransmit_task, None
        if task is not None:
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
        if self.transport is not None:
            await self.transport.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self) -> str:
        """Broadcast one fresh transaction; returns its tx id."""
        index = self._next_index
        self._next_index += 1
        now = time.monotonic()
        transaction = Transaction(
            tx_id=f"tx-s{self.client_id}-{index}",
            client=self.client_id,
            payload=f"set skey-{index % 32} s{self.client_id}-{index}",
            payload_size=self.payload_size,
            submitted_at=now,
        )
        self.pending[transaction.tx_id] = _Pending(
            transaction=transaction,
            submitted_at=now,
            next_retry_at=now + self.retransmit_interval,
        )
        self.submitted += 1
        self._broadcast(transaction)
        return transaction.tx_id

    def _broadcast(self, transaction: Transaction) -> None:
        assert self.transport is not None
        payload = encode_message(self.client_id, ClientRequest(transaction))
        for replica_id in range(self.spec.n):
            # A refused send (backpressure, reconnecting peer) is fine:
            # the retransmit loop re-offers, and f+1 replies only need a
            # quorum of replicas to have seen the request at all.
            self.transport.send(replica_id, payload)

    async def _retransmit_loop(self) -> None:
        while True:
            await asyncio.sleep(RETRANSMIT_TICK)
            now = time.monotonic()
            for request in self.pending.values():
                if request.next_retry_at > now:
                    continue
                self.retransmissions += 1
                request.attempts += 1
                delay = min(
                    self.retransmit_interval
                    * self.retransmit_backoff**request.attempts,
                    self.retransmit_cap,
                )
                request.next_retry_at = now + delay
                self._broadcast(request.transaction)

    # ------------------------------------------------------------------
    # Confirmation
    # ------------------------------------------------------------------
    def _on_message(self, sender: int, message: object) -> None:
        if not isinstance(message, ClientReply):
            return
        if message.replica != sender or not 0 <= sender < self.spec.n:
            return
        request = self.pending.get(message.tx_id)
        if request is None:
            return  # already confirmed (straggler reply) or never ours
        request.replies[sender] = (message.position, message.block_id)
        self._check_confirmed(message.tx_id, request)

    def _check_confirmed(self, tx_id: str, request: _Pending) -> None:
        tallies: dict[tuple[int, str], set[int]] = {}
        for replica, verdict in request.replies.items():
            tallies.setdefault(verdict, set()).add(replica)
        for (position, block_id), repliers in tallies.items():
            if len(repliers) >= self.f + 1:
                del self.pending[tx_id]
                self.confirmations.append(
                    SwarmConfirmation(
                        tx_id=tx_id,
                        position=position,
                        block_id=block_id,
                        latency=time.monotonic() - request.submitted_at,
                    )
                )
                self._confirmed_event.set()
                return

    async def wait_confirmation(self) -> None:
        """Block until at least one new confirmation lands."""
        await self._confirmed_event.wait()
        self._confirmed_event.clear()


@dataclass
class SwarmReport:
    """Wall-clock load-test outcome across the whole swarm."""

    clients: int
    mode: str
    wall_seconds: float
    submitted: int
    confirmed: int
    retransmissions: int
    throughput_tps: float
    latency_p50: Optional[float]
    latency_p95: Optional[float]
    latency_p99: Optional[float]
    latency_mean: Optional[float]
    latency_max: Optional[float]

    def to_json(self) -> dict:
        return {
            "clients": self.clients,
            "mode": self.mode,
            "wall_seconds": self.wall_seconds,
            "submitted": self.submitted,
            "confirmed": self.confirmed,
            "retransmissions": self.retransmissions,
            "throughput_tps": self.throughput_tps,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "latency_mean": self.latency_mean,
            "latency_max": self.latency_max,
        }


class ClientSwarm:
    """N concurrent SwarmClients in closed- or open-loop mode."""

    def __init__(
        self,
        spec: ClusterSpec,
        clients: int = 4,
        mode: str = "closed",
        outstanding: int = 4,
        rate: float = 50.0,
        payload_size: int = 100,
        retransmit_interval: float = 2.0,
    ) -> None:
        if mode not in ("closed", "open"):
            raise ValueError(f"unknown swarm mode {mode!r} (closed|open)")
        if clients < 1:
            raise ValueError("swarm needs at least one client")
        self.spec = spec
        self.mode = mode
        self.outstanding = outstanding
        #: Aggregate open-loop injection rate (tx/s), split across clients.
        self.rate = rate
        self.clients = [
            SwarmClient(
                SWARM_ID_BASE + index,
                spec,
                payload_size=payload_size,
                retransmit_interval=retransmit_interval,
            )
            for index in range(clients)
        ]
        self._wall_seconds = 0.0

    async def run(self, duration: float = 10.0) -> SwarmReport:
        """Drive the load shape for ``duration`` wall-clock seconds."""
        started = time.monotonic()
        loop = asyncio.get_running_loop()
        for client in self.clients:
            await client.start()
        drivers = [
            loop.create_task(
                self._drive(client, duration), name=f"swarm-drive-{client.client_id}"
            )
            for client in self.clients
        ]
        try:
            await asyncio.gather(*drivers)
        finally:
            for task in drivers:
                task.cancel()
            # Shielded: cancelling the swarm mid-run must not abandon the
            # driver tasks or leave client transports half-open.
            await asyncio.shield(self._shutdown(drivers))
            self._wall_seconds = time.monotonic() - started
        return self.report()

    async def _shutdown(self, drivers: "list[asyncio.Task[None]]") -> None:
        """Join cancelled drivers and close every client (shield target)."""
        await asyncio.gather(*drivers, return_exceptions=True)
        for client in self.clients:
            await client.close()

    async def _drive(self, client: SwarmClient, duration: float) -> None:
        deadline = time.monotonic() + duration
        if self.mode == "closed":
            for _ in range(self.outstanding):
                client.submit()
            while time.monotonic() < deadline:
                # Refill the window as confirmations land; the timeout tick
                # keeps the deadline honored when the cluster stalls.
                try:
                    await asyncio.wait_for(
                        client.wait_confirmation(), timeout=RETRANSMIT_TICK
                    )
                except asyncio.TimeoutError:
                    continue
                while (
                    len(client.pending) < self.outstanding
                    and time.monotonic() < deadline
                ):
                    client.submit()
        else:  # open loop
            interval = len(self.clients) / self.rate
            while time.monotonic() < deadline:
                client.submit()
                await asyncio.sleep(interval)

    def report(self) -> SwarmReport:
        latencies = [
            confirmation.latency
            for client in self.clients
            for confirmation in client.confirmations
        ]
        summary = summarize(latencies)
        confirmed = summary.count
        wall = self._wall_seconds
        return SwarmReport(
            clients=len(self.clients),
            mode=self.mode,
            wall_seconds=wall,
            submitted=sum(client.submitted for client in self.clients),
            confirmed=confirmed,
            retransmissions=sum(client.retransmissions for client in self.clients),
            throughput_tps=confirmed / wall if wall > 0 else 0.0,
            latency_p50=summary.p50,
            latency_p95=summary.p95,
            latency_p99=summary.p99,
            latency_mean=summary.mean,
            latency_max=summary.max,
        )
