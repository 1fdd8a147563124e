"""One replica as one OS process (the multi-process live runtime).

``python -m repro live --replica i --cluster-spec spec.json`` lands here:
the process binds its spec-assigned TCP port, meshes to every peer, runs an
unchanged :class:`~repro.storage.durable.DurableReplica` whose safety state
persists in a :class:`~repro.storage.journal.FileSafetyJournal`, and keeps
committing until it is told to stop — or killed.

``kill -9`` is the design case, not an error path: the journal survives on
disk, so the respawned process restores its pre-crash safety state at
construction (never contradicting votes the dead incarnation sent), rejoins
the mesh through the transport's reconnect loops, and streams missed blocks
back in through the certificate-driven BlockRequest/ChainRequest catch-up
path while the rest of the cluster keeps committing.

The process periodically publishes an atomically written status file
(committed block ids, height, fallbacks, transport counters) that the
supervisor and benchmarks read to check cross-process prefix consistency
and to time recovery — the replicas themselves never need any channel
beyond the protocol's own messages.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.core.context import SharedSetup
from repro.mempool.mempool import Mempool
from repro.net.tcp import TcpTransport
from repro.runtime.live import WallClockScheduler
from repro.runtime.metrics import MetricsCollector
from repro.runtime.spec import ClusterSpec
from repro.storage.durable import DurableReplica
from repro.storage.journal import FileSafetyJournal
from repro.traffic.admission import AdmissionController
from repro.traffic.loadgen import preload
from repro.wire.codec import encode_message
from repro.wire.framing import FRAME_HEADER_SIZE

#: How often the status file is refreshed (seconds).
STATUS_INTERVAL = 0.15


class ProcessNetwork:
    """The transport surface of a single-replica process.

    Same contract as the in-process :class:`~repro.runtime.live.LiveNetwork`
    — authenticated sender ids, deterministic multicast order over the whole
    replica group, non-reentrant self-delivery — but every non-local
    receiver is reached through this process's one :class:`TcpTransport`.
    Sends to ids outside the replica group (clients) ride the transport's
    accepted reply channels.
    """

    def __init__(
        self,
        scheduler: WallClockScheduler,
        group_size: int,
        transport: TcpTransport,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.scheduler = scheduler
        self.metrics = metrics
        self.transport = transport
        self._group = tuple(range(group_size))
        self._loop = asyncio.get_running_loop()
        self._local: Optional[object] = None
        self.messages_sent = 0
        self.bytes_sent = 0
        self.encode_failures = 0
        self.sends_refused = 0

    def register(self, process) -> None:
        if self._local is not None:
            raise ValueError("process network already has a local replica")
        self._local = process

    def process_ids(self) -> list[int]:
        return list(self._group)

    def send(self, sender: int, receiver: int, message: object) -> None:
        local = self._local
        if local is not None and receiver == getattr(local, "process_id", None):
            # Same non-reentrancy as the simulator's self-delivery: the
            # current handler finishes before the message is processed.
            self._loop.call_soon(local.deliver, sender, message)
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
        if self.transport.send(receiver, payload):
            self.messages_sent += 1
            self.bytes_sent += size
        else:
            self.sends_refused += 1

    def multicast(self, sender: int, message: object, include_self: bool = True) -> None:
        for receiver in self._group:
            if receiver == sender and not include_self:
                continue
            self.send(sender, receiver, message)


def write_status(path: Path, payload: dict) -> None:
    """Atomically publish a status snapshot (tmp + fsync + rename).

    The supervisor trusts whatever it reads here, so the staging file must
    be durable *before* the rename makes it visible — without the fsync a
    power cut can publish an empty or torn snapshot under the final name.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_status(path: Path) -> Optional[dict]:
    """Parse a status snapshot; ``None`` when missing or unreadable."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


class ReplicaProcess:
    """Owns one replica's event loop inside its own OS process."""

    def __init__(self, spec: ClusterSpec, replica_id: int) -> None:
        if not 0 <= replica_id < spec.n:
            raise ValueError(f"replica id {replica_id} outside 0..{spec.n - 1}")
        if len(spec.ports) != spec.n:
            raise ValueError("cluster spec has no port assignments")
        self.spec = spec
        self.replica_id = replica_id
        self.scheduler: Optional[WallClockScheduler] = None
        self.metrics: Optional[MetricsCollector] = None
        self.network: Optional[ProcessNetwork] = None
        self.transport: Optional[TcpTransport] = None
        self.replica: Optional[DurableReplica] = None
        self.restored_from_journal = False
        self._stop = asyncio.Event()
        self._started_at = time.time()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def stop(self) -> None:
        self._stop.set()

    async def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        duration: Optional[float] = None,
    ) -> dict:
        """Run until stopped (SIGTERM), ``until()`` is true, or ``duration``.

        Returns the final status payload.
        """
        spec = self.spec
        config = spec.config()
        self.scheduler = WallClockScheduler()
        setup = SharedSetup.deal(config, coin_seed=spec.seed)
        self.metrics = MetricsCollector(honest_ids=range(spec.n))
        self.metrics.attach_cert_cache(setup.cert_cache)

        journal = FileSafetyJournal(
            spec.journal_path(self.replica_id), fsync=spec.fsync
        )
        self.restored_from_journal = not journal.empty

        host, port = spec.address(self.replica_id)
        self.transport = TcpTransport(
            node_id=self.replica_id,
            on_message=self._deliver,
            host=host,
            port=port,
        )
        self.metrics.attach_transport(self.transport)
        await self.transport.start()
        for peer_id, (peer_host, peer_port) in enumerate(spec.addresses()):
            if peer_id != self.replica_id:
                self.transport.add_peer(peer_id, peer_host, peer_port)

        self.network = ProcessNetwork(
            self.scheduler, spec.n, self.transport, metrics=self.metrics
        )
        mempool = Mempool(batch_size=config.batch_size)
        self.replica = DurableReplica(
            self.replica_id,
            config,
            setup.context_for(self.replica_id),
            self.network,
            self.scheduler,
            mempool=mempool,
            observer=self.metrics,
            journal=journal,
        )
        self.network.register(self.replica)
        # Deterministic shared backlog: every process preloads the same
        # transactions (dedup by tx_id keeps commits exactly-once).
        preload(AdmissionController([mempool]).offer, spec.preload, self.scheduler.now)

        loop = asyncio.get_running_loop()
        deadline = None if duration is None else loop.time() + duration
        status: dict = {}
        try:
            self.replica.on_start()
            while not self._stop.is_set():
                status = self._publish_status()
                if until is not None and until():
                    break
                if deadline is not None and loop.time() >= deadline:
                    break
                try:
                    await asyncio.wait_for(self._stop.wait(), timeout=STATUS_INTERVAL)
                except asyncio.TimeoutError:
                    pass
        finally:
            status = self._publish_status(final=True)
            # Shielded: a cancelled replica (SIGTERM path) must still
            # close its transport and journal before the process exits.
            await asyncio.shield(self._shutdown(journal))
        return status

    async def _shutdown(self, journal: FileSafetyJournal) -> None:
        """Replica, transport and journal teardown; the shield target for
        run().  Crashing the replica first cancels its timers and drops
        whatever the close still delivers, so nothing re-arms a timer (or
        writes the closed journal) once the host has stopped."""
        self.replica.crash()
        await self.transport.close()
        journal.close()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _deliver(self, peer_id: int, message: object) -> None:
        replica = self.replica
        if replica is not None:
            replica.deliver(peer_id, message)

    def committed_ids(self) -> list[str]:
        if self.replica is None:
            return []
        return [block.id for block in self.replica.ledger.committed_blocks()]

    def _publish_status(self, final: bool = False) -> dict:
        assert self.replica is not None and self.metrics is not None
        committed = self.committed_ids()
        journal = self.replica.journal
        payload = {
            "replica": self.replica_id,
            "pid": os.getpid(),
            "started_at": self._started_at,
            "updated_at": time.time(),
            "height": len(committed),
            "committed_ids": committed,
            "v_cur": self.replica.v_cur,
            "fallbacks_entered": self.replica.fallbacks_entered,
            "restored_from_journal": self.restored_from_journal,
            "journal_writes": journal.writes,
            "journal_recovered_from_corruption": getattr(
                journal, "recovered_from_corruption", False
            ),
            "transport": self.metrics.transport_counters(),
            "final": final,
        }
        write_status(self.spec.status_path(self.replica_id), payload)
        return payload


def run_replica_process(
    spec: ClusterSpec,
    replica_id: int,
    duration: Optional[float] = None,
) -> int:
    """Synchronous entry point used by the CLI: run one replica process.

    Installs SIGTERM/SIGINT handlers for a clean stop; SIGKILL needs no
    handler — surviving it is the journal's job.
    """

    async def main() -> None:
        process = ReplicaProcess(spec, replica_id)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, process.stop)
        await process.run(duration=duration)

    asyncio.run(main())
    return 0


def collect_statuses(spec: ClusterSpec) -> dict[int, Optional[dict]]:
    """Latest status snapshot per replica (``None`` where unpublished)."""
    return {
        replica_id: read_status(spec.status_path(replica_id))
        for replica_id in range(spec.n)
    }


def prefixes_consistent(statuses: Sequence[Optional[dict]]) -> bool:
    """Pairwise prefix consistency over published committed logs.

    Missing statuses are skipped (a replica that has not published yet
    cannot witness a violation).
    """
    logs = [
        status.get("committed_ids", [])
        for status in statuses
        if status is not None
    ]
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            shorter = min(len(logs[i]), len(logs[j]))
            if logs[i][:shorter] != logs[j][:shorter]:
                return False
    return True
