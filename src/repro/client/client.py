"""BFT SMR clients.

The paper's SMR definition is client-facing: "commits client transactions
as a log akin to a single non-faulty server".  This module provides the
client half of that contract:

- a :class:`ClientRequest` is broadcast to every replica (the standard
  permissioned-BFT dissemination model),
- replicas answer each committed transaction of known origin with a
  :class:`ClientReply` carrying the commit position and block id,
- the client accepts a result once **f+1 replicas agree** on (position,
  block id) — at least one of them is honest, and safety makes honest
  commit logs agree, so f+1 matching replies prove the commit,
- unconfirmed requests are retransmitted on a timer (at-most-once commit
  semantics hold because mempools and blocks deduplicate by ``tx_id``).

Clients run closed-loop: ``outstanding`` requests in flight, a new one
issued per confirmation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.sim.process import Process
from repro.sim.scheduler import Scheduler
from repro.types.messages import Message
from repro.types.transactions import Transaction

if TYPE_CHECKING:
    from repro.net.network import Network

RETRANSMIT_TIMER = "client-retransmit"


@dataclass(frozen=True)
class ClientRequest(Message):
    """A client transaction submission (client -> every replica)."""

    transaction: Transaction


@dataclass(frozen=True)
class ClientReply(Message):
    """A replica's commit notification for one transaction."""

    tx_id: str
    position: int
    block_id: str
    replica: int


@dataclass
class Confirmation:
    """A client-side confirmed commit."""

    tx_id: str
    position: int
    block_id: str
    submitted_at: float
    confirmed_at: float
    repliers: frozenset[int]

    @property
    def latency(self) -> float:
        return self.confirmed_at - self.submitted_at


@dataclass
class _PendingRequest:
    transaction: Transaction
    submitted_at: float
    #: replica -> (position, block_id) replies received so far.
    replies: dict[int, tuple[int, str]] = field(default_factory=dict)
    #: retransmissions issued so far (drives exponential backoff).
    attempts: int = 0
    #: absolute time of the next retransmission.
    next_retry_at: float = 0.0


class Client(Process):
    """A closed-loop BFT client.

    Args:
        process_id: network id; must not collide with replica ids (the
            cluster assigns ids >= n).
        f: fault budget — confirmations need f+1 matching replies.
        replica_ids: where to broadcast requests.
        outstanding: requests kept in flight.
        total: stop after this many confirmations (0 = unbounded).
        retransmit_interval: base interval before the first retransmission
            of an unconfirmed request.  ``None`` picks a default derived
            from the cluster's timeout config when built through
            :class:`~repro.runtime.cluster.ClusterBuilder` (2x the round
            timeout), else 10.0.
        retransmit_backoff: per-request multiplicative backoff applied to
            the interval on every retransmission (1.0 = fixed interval).
        retransmit_cap: ceiling on the per-request interval (default: 8x
            the base interval).
    """

    def __init__(
        self,
        process_id: int,
        scheduler: Scheduler,
        network: Network,
        f: int,
        replica_ids: list[int],
        outstanding: int = 5,
        total: int = 0,
        payload_size: int = 100,
        retransmit_interval: Optional[float] = None,
        retransmit_backoff: float = 2.0,
        retransmit_cap: Optional[float] = None,
    ) -> None:
        super().__init__(process_id, scheduler)
        self.network = network
        self.f = f
        self.replica_ids = list(replica_ids)
        self.outstanding = outstanding
        self.total = total
        self.payload_size = payload_size
        self.retransmit_interval = (
            retransmit_interval if retransmit_interval is not None else 10.0
        )
        if self.retransmit_interval <= 0:
            raise ValueError("retransmit_interval must be positive")
        if retransmit_backoff < 1.0:
            raise ValueError("retransmit_backoff must be >= 1.0")
        self.retransmit_backoff = retransmit_backoff
        self.retransmit_cap = (
            retransmit_cap
            if retransmit_cap is not None
            else 8.0 * self.retransmit_interval
        )
        self.pending: dict[str, _PendingRequest] = {}
        self.confirmations: list[Confirmation] = []
        self.retransmissions = 0
        self._next_index = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        for _ in range(self.outstanding):
            self._submit_next()
        self._arm_retransmit_timer()

    def _retry_delay(self, attempts: int) -> float:
        return min(
            self.retransmit_interval * self.retransmit_backoff**attempts,
            self.retransmit_cap,
        )

    def _arm_retransmit_timer(self) -> None:
        if self.pending:
            next_at = min(request.next_retry_at for request in self.pending.values())
            self.set_timer(RETRANSMIT_TIMER, max(next_at - self.now, 1e-6))
        elif not self._done():
            self.set_timer(RETRANSMIT_TIMER, self.retransmit_interval)

    def on_timer(self, name: str) -> None:
        if name != RETRANSMIT_TIMER:
            return
        for request in self.pending.values():
            if request.next_retry_at > self.now:
                continue
            self.retransmissions += 1
            self._broadcast(request.transaction)
            request.attempts += 1
            request.next_retry_at = self.now + self._retry_delay(request.attempts)
        self._arm_retransmit_timer()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _done(self) -> bool:
        return self.total > 0 and len(self.confirmations) >= self.total

    def _submit_next(self) -> None:
        if self.total > 0 and self._next_index >= self.total:
            return  # submission budget exhausted
        index = self._next_index
        self._next_index += 1
        transaction = Transaction(
            tx_id=f"tx-c{self.process_id}-{index}",
            client=self.process_id,
            payload=f"set ckey-{index % 32} c{self.process_id}-{index}",
            payload_size=self.payload_size,
            submitted_at=self.now,
        )
        self.pending[transaction.tx_id] = _PendingRequest(
            transaction=transaction,
            submitted_at=self.now,
            next_retry_at=self.now + self.retransmit_interval,
        )
        self._broadcast(transaction)

    def _broadcast(self, transaction: Transaction) -> None:
        for replica_id in self.replica_ids:
            self.network.send(self.process_id, replica_id, ClientRequest(transaction))

    # ------------------------------------------------------------------
    # Confirmation
    # ------------------------------------------------------------------
    def on_message(self, sender: int, message: object) -> None:
        if not isinstance(message, ClientReply):
            return
        if message.replica != sender or sender not in self.replica_ids:
            return
        request = self.pending.get(message.tx_id)
        if request is None:
            return  # already confirmed or never ours
        request.replies[sender] = (message.position, message.block_id)
        self._check_confirmed(message.tx_id, request)

    def _check_confirmed(self, tx_id: str, request: _PendingRequest) -> None:
        tallies: dict[tuple[int, str], set[int]] = {}
        for replica, verdict in request.replies.items():
            tallies.setdefault(verdict, set()).add(replica)
        for (position, block_id), repliers in tallies.items():
            if len(repliers) >= self.f + 1:
                del self.pending[tx_id]
                self.confirmations.append(
                    Confirmation(
                        tx_id=tx_id,
                        position=position,
                        block_id=block_id,
                        submitted_at=request.submitted_at,
                        confirmed_at=self.now,
                        repliers=frozenset(repliers),
                    )
                )
                self._submit_next()
                return

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def confirmed_latencies(self) -> list[float]:
        return [confirmation.latency for confirmation in self.confirmations]
