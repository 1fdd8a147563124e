"""Metrics: message/byte accounting, commits, rounds, fallback events.

The collector hangs off the network's send hook and the replicas' observer
hook, so it sees every honest network message and every state transition.
Communication-cost figures count only messages sent by *honest* replicas
(Byzantine senders can inflate their own cost arbitrarily), matching how the
paper accounts complexity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.replica import ReplicaObserver
from repro.ledger.ledger import CommitRecord
from repro.types.blocks import FallbackBlock
from repro.types.transactions import Batch

#: Message types belonging to the linear fast path.
STEADY_TYPES = frozenset({"Proposal", "Vote"})
#: Message types belonging to view-change machinery (either variant).
VIEWCHANGE_TYPES = frozenset(
    {
        "PacemakerTimeout",
        "PacemakerTCMessage",
        "FallbackTimeout",
        "FallbackTCMessage",
        "FallbackProposal",
        "FallbackVote",
        "FallbackQCMessage",
        "CoinShareMessage",
        "CoinQCMessage",
    }
)
#: Catch-up traffic (not part of the protocol's complexity accounting).
SYNC_TYPES = frozenset({"BlockRequest", "BlockResponse"})


@dataclass(slots=True)
class CommitEvent:
    """One block commit observed at one replica.

    ``batch`` is the committed block's own :class:`Batch`, shared with the
    ledger rather than copied, so an event costs no per-transaction
    memory; latencies are derived from it on demand.
    """

    replica: int
    position: int
    round: int
    view: int
    time: float
    fallback_block: bool
    batch: Batch

    @property
    def batch_size(self) -> int:
        return len(self.batch)

    @property
    def tx_latencies(self) -> list[float]:
        return [self.time - tx.submitted_at for tx in self.batch]


@dataclass
class FallbackEvent:
    replica: int
    view: int
    time: float
    kind: str  # "entered" | "exited"
    leader: Optional[int] = None


class MetricsCollector(ReplicaObserver):
    """Aggregates everything the benchmarks report."""

    def __init__(self, honest_ids: Iterable[int]) -> None:
        self.honest_ids = set(honest_ids)
        self.message_counts: Counter = Counter()
        self.message_bytes: Counter = Counter()
        self.honest_messages = 0
        self.honest_bytes = 0
        self.commits: list[CommitEvent] = []
        self.fallback_events: list[FallbackEvent] = []
        self.timeouts: list[tuple[int, int, int, float]] = []
        self.round_entries: list[tuple[int, int, float]] = []
        self.proposals = 0
        # Reliable-channel overhead (populated via on_channel_event when a
        # lossy transport is in play; all zero in the paper's model).
        self.retransmissions = 0
        self.retransmit_bytes = 0
        self.acks = 0
        self.ack_bytes = 0
        self.duplicates_suppressed = 0
        self.packets_abandoned = 0
        self._committed_positions: dict[int, int] = {}
        #: Callables invoked once per distinct committed transaction.
        self.commit_listeners: list = []
        #: Callables invoked on every round entry, ``(replica, round, now)``.
        #: Used by the cluster's leader-oracle cache for invalidation.
        self.round_entry_listeners: list = []
        self._notified_txs: set[str] = set()
        #: Cluster-wide verified-certificate cache, if one is in play.
        self._cert_cache = None
        #: Cluster-wide verified-share pool, if one is in play.
        self._share_pool = None
        #: Live-mode TCP transports whose counters this collector surfaces.
        self._transports: list = []
        #: Per-request lifecycle tracker (submit/propose/commit/confirm),
        #: if a traffic pipeline attached one.
        self._request_tracker = None
        #: Admission controller whose shed counters this collector surfaces.
        self._admission = None

    def attach_cert_cache(self, cache) -> None:
        """Surface the certificate :class:`~repro.crypto.verdicts.VerdictCache`'s
        hit/miss counters through this collector."""
        self._cert_cache = cache

    def attach_share_pool(self, pool) -> None:
        """Surface the share :class:`~repro.crypto.verdicts.VerdictCache`'s
        hit/miss counters through this collector."""
        self._share_pool = pool

    def attach_transport(self, transport) -> None:
        """Surface a :class:`~repro.net.tcp.TcpTransport`'s error-containment
        and per-peer reconnect/drop counters through this collector."""
        self._transports.append(transport)

    def attach_request_tracker(self, tracker) -> None:
        """Feed per-request propose/commit timestamps into a
        :class:`~repro.traffic.slo.RequestTracker` (first honest occurrence
        of each stage wins; the admission path supplies submit times)."""
        self._request_tracker = tracker

    def attach_admission(self, admission) -> None:
        """Surface an :class:`~repro.traffic.admission.AdmissionController`'s
        offered/admitted/rejected counters through this collector."""
        self._admission = admission

    @property
    def encoded_bytes(self) -> int:
        """Honest bytes that went through the codec: all of them in live
        mode, where a transport ships every send; 0 under the simulator,
        which bills the same sizes without encoding anything."""
        return self.honest_bytes if self._transports else 0

    # ------------------------------------------------------------------
    # Network hooks
    # ------------------------------------------------------------------
    def on_send(
        self, sender: int, receiver: int, message: object, time: float, size: int
    ) -> None:
        """Bill one honest send at the ``size`` the network charged for it.

        Classification uses the protocol payload inside a DataPacket, so
        phase accounting stays comparable with the reliable-link model.
        """
        if sender not in self.honest_ids:
            return
        payload = getattr(message, "payload", message)
        name = type(payload).__name__
        self.message_counts[name] += 1
        self.message_bytes[name] += size
        self.honest_messages += 1
        self.honest_bytes += size

    def on_channel_event(
        self, kind: str, sender: int, receiver: int, packet: object, time: float
    ) -> None:
        """Channel hook: retransmit/ack/duplicate/abandon overhead events."""
        if sender not in self.honest_ids:
            return
        if kind == "retransmit":
            self.retransmissions += 1
            self.retransmit_bytes += packet.wire_size()
        elif kind == "ack":
            self.acks += 1
            self.ack_bytes += packet.wire_size()
        elif kind == "duplicate":
            self.duplicates_suppressed += 1
        elif kind == "abandon":
            self.packets_abandoned += 1

    # ------------------------------------------------------------------
    # Replica observer hooks
    # ------------------------------------------------------------------
    def on_commit(self, replica: int, record: CommitRecord, now: float) -> None:
        block = record.block
        self.commits.append(
            CommitEvent(
                replica=replica,
                position=record.position,
                round=block.round,
                view=block.view,
                time=now,
                fallback_block=isinstance(block, FallbackBlock),
                batch=block.batch,
            )
        )
        if replica in self.honest_ids:
            previous = self._committed_positions.get(replica, -1)
            self._committed_positions[replica] = max(previous, record.position)
            if self._request_tracker is not None:
                for transaction in block.batch:
                    self._request_tracker.note_commit(transaction.tx_id, now)
            if self.commit_listeners:
                for transaction in block.batch:
                    if transaction.tx_id in self._notified_txs:
                        continue
                    self._notified_txs.add(transaction.tx_id)
                    for listener in self.commit_listeners:
                        listener(transaction)

    def on_round_entered(self, replica: int, round_number: int, now: float) -> None:
        self.round_entries.append((replica, round_number, now))
        if self.round_entry_listeners:
            for listener in self.round_entry_listeners:
                listener(replica, round_number, now)

    def on_state_reset(self, replica: int, now: float) -> None:
        """A replica rebuilt volatile state (crash recovery): its ``r_cur``
        may have moved without a round entry, so flush round caches."""
        if self.round_entry_listeners:
            for listener in self.round_entry_listeners:
                listener(replica, 0, now)

    def on_timeout(self, replica: int, view: int, round_number: int, now: float) -> None:
        self.timeouts.append((replica, view, round_number, now))

    def on_fallback_entered(self, replica: int, view: int, now: float) -> None:
        self.fallback_events.append(
            FallbackEvent(replica=replica, view=view, time=now, kind="entered")
        )

    def on_fallback_exited(self, replica: int, view: int, leader: int, now: float) -> None:
        self.fallback_events.append(
            FallbackEvent(replica=replica, view=view, time=now, kind="exited", leader=leader)
        )

    def on_proposal(self, replica: int, block, now: float) -> None:
        self.proposals += 1
        if self._request_tracker is not None and replica in self.honest_ids:
            for transaction in block.batch:
                self._request_tracker.note_propose(transaction.tx_id, now)

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    def decisions(self) -> int:
        """Committed chain height: the max over honest replicas.

        Safety makes committed logs prefix-consistent, so the max height is
        the number of globally decided blocks.
        """
        if not self._committed_positions:
            return 0
        return max(self._committed_positions.values()) + 1

    def min_honest_height(self) -> int:
        """Height every honest replica has reached (lagging replicas count)."""
        if len(self._committed_positions) < len(self.honest_ids):
            return 0
        return min(self._committed_positions.values()) + 1

    def messages_per_decision(self) -> Optional[float]:
        decisions = self.decisions()
        if decisions == 0:
            return None
        return self.honest_messages / decisions

    def bytes_per_decision(self) -> Optional[float]:
        decisions = self.decisions()
        if decisions == 0:
            return None
        return self.honest_bytes / decisions

    def phase_messages(self) -> dict[str, int]:
        """Message counts grouped into steady / view-change / sync phases."""
        phases = {"steady": 0, "view_change": 0, "sync": 0, "other": 0}
        for name, count in self.message_counts.items():
            if name in STEADY_TYPES:
                phases["steady"] += count
            elif name in VIEWCHANGE_TYPES:
                phases["view_change"] += count
            elif name in SYNC_TYPES:
                phases["sync"] += count
            else:
                phases["other"] += count
        return phases

    def commit_latencies(self) -> list[float]:
        """End-to-end transaction latencies across all honest commits."""
        return [
            latency
            for event in self.commits
            if event.replica in self.honest_ids
            for latency in event.tx_latencies
        ]

    def fallback_count(self) -> int:
        """Distinct fallback views some honest replica entered."""
        return len(
            {event.view for event in self.fallback_events if event.kind == "entered"}
        )

    def commits_at(self, replica: int) -> list[CommitEvent]:
        return [event for event in self.commits if event.replica == replica]

    def cert_cache_counters(self) -> dict[str, int]:
        """Verified-certificate cache counters (all zero without a cache)."""
        if self._cert_cache is None:
            return {"hits": 0, "misses": 0, "entries": 0, "invalidations": 0}
        return self._cert_cache.counters()

    def share_pool_counters(self) -> dict[str, int]:
        """Verified-share pool counters (all zero without a pool)."""
        if self._share_pool is None:
            return {"hits": 0, "misses": 0, "entries": 0, "invalidations": 0}
        return self._share_pool.counters()

    def admission_counters(self) -> dict:
        """Admission offered/admitted/rejected (all zero without one)."""
        if self._admission is None:
            return {
                "offered": 0,
                "admitted": 0,
                "rejected": 0,
                "reject_rate": 0.0,
                "mempool_rejects": 0,
                "rejected_by_source": {},
            }
        return self._admission.counters()

    def request_slo(self) -> Optional[dict]:
        """Per-stage latency summaries, when a request tracker is attached."""
        if self._request_tracker is None:
            return None
        return self._request_tracker.summary_json()

    def transport_counters(self) -> dict:
        """Live transport summary: cluster totals plus per-peer breakdowns.

        ``totals`` sums the error-containment counters across every attached
        transport; ``per_peer`` maps each transport's node id to its
        per-peer reconnect/backpressure/volume counters (see
        :meth:`~repro.net.tcp.TcpTransport.per_peer_counters`).  Empty
        totals (all zero) under the simulator, where no transport exists.
        """
        totals = {
            "frames_sent": 0,
            "bytes_sent": 0,
            "frames_received": 0,
            "decode_errors": 0,
            "frame_errors": 0,
            "auth_failures": 0,
            "dropped_backpressure": 0,
            "reconnects": 0,
            "no_route": 0,
        }
        per_peer: dict[int, dict[int, dict[str, int]]] = {}
        for transport in self._transports:
            for key, value in transport.counters().items():
                totals[key] = totals.get(key, 0) + value
            per_peer[transport.node_id] = transport.per_peer_counters()
        return {"totals": totals, "per_peer": per_peer}

    def summary(self) -> str:
        lines = [
            f"decisions: {self.decisions()}",
            f"honest messages: {self.honest_messages}",
            f"honest bytes: {self.honest_bytes}",
            f"messages/decision: {self.messages_per_decision()}",
            f"fallbacks entered: {self.fallback_count()}",
            f"retransmissions: {self.retransmissions} ({self.retransmit_bytes} bytes)",
            f"duplicates suppressed: {self.duplicates_suppressed}",
            f"ack overhead: {self.acks} acks ({self.ack_bytes} bytes)",
        ]
        cache = self.cert_cache_counters()
        lines.append(
            f"cert cache: {cache['hits']} hits, {cache['misses']} misses, "
            f"{cache['invalidations']} invalidations"
        )
        pool = self.share_pool_counters()
        lines.append(
            f"share pool: {pool['hits']} hits, {pool['misses']} misses, "
            f"{pool['invalidations']} invalidations"
        )
        if self._transports:
            totals = self.transport_counters()["totals"]
            lines.append(
                f"transport: {totals['reconnects']} reconnects, "
                f"{totals['dropped_backpressure']} backpressure drops, "
                f"{totals['no_route']} unroutable sends"
            )
        phases = self.phase_messages()
        lines.append(
            "phases: "
            + ", ".join(f"{name}={count}" for name, count in sorted(phases.items()))
        )
        return "\n".join(lines)
