"""A per-replica mempool: pending client transactions awaiting proposal.

In this simulation clients submit to every replica (as in most BFT SMR
deployments, transactions are disseminated out-of-band or broadcast), so
each replica's mempool holds the same logical stream; a replica drains a
batch when it proposes and drops transactions it later sees committed.

The pool is optionally **bounded**: with a ``capacity`` set, submissions
beyond the bound are rejected (``submit`` returns ``False`` and
``rejected_count`` increments) so overload degrades by shedding instead of
by unbounded memory growth — see :mod:`repro.traffic.admission`.  The
default is unbounded, which preserves the historical behavior every
recorded benchmark fingerprint was taken under.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.types.transactions import EMPTY_BATCH, Batch, Transaction

if TYPE_CHECKING:
    from repro.traffic.envelope import TrafficEnvelope


class Mempool:
    """FIFO pool with commit-based garbage collection."""

    def __init__(self, batch_size: int = 10, capacity: Optional[int] = None) -> None:
        if batch_size < 0:
            raise ValueError("batch_size must be non-negative")
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive when bounded")
        self.batch_size = batch_size
        self.capacity = capacity
        # Plain dicts preserve insertion order (FIFO) and are faster than
        # OrderedDict on the submit/pop hot path.
        self._pending: dict[str, Transaction] = {}
        self.submitted_count = 0
        #: Submissions refused because the pool was at capacity.
        self.rejected_count = 0
        self._envelope: Optional["TrafficEnvelope"] = None
        self._clock: Optional[Callable[[], float]] = None

    def __len__(self) -> int:
        return len(self._pending)

    def attach_envelope(
        self, envelope: "TrafficEnvelope", clock: Callable[[], float]
    ) -> None:
        """Feed accepted submissions into an arrival envelope.

        ``clock`` supplies observation timestamps (the owning replica's
        scheduler clock, so sim and live modes share an origin).
        """
        self._envelope = envelope
        self._clock = clock

    def submit(self, transaction: Transaction) -> bool:
        """Add a client transaction (idempotent on tx_id).

        Returns ``True`` when the transaction is in the pool after the call
        (newly added or already pending), ``False`` when a capacity bound
        rejected it.
        """
        pending = self._pending
        tx_id = transaction.tx_id
        if tx_id in pending:
            return True
        if self.capacity is not None and len(pending) >= self.capacity:
            self.rejected_count += 1
            return False
        pending[tx_id] = transaction
        self.submitted_count += 1
        if self._envelope is not None:
            self._envelope.observe(transaction.client, self._clock())
        return True

    def submit_all(self, transactions: Iterable[Transaction]) -> None:
        for transaction in transactions:
            self.submit(transaction)

    def next_batch(self) -> Batch:
        """Peek the next batch to propose (does not remove — transactions
        leave the pool only when committed, so a failed proposal's payload
        is re-proposed later).  An idle pool shares ``EMPTY_BATCH``."""
        if not self._pending:
            return EMPTY_BATCH
        take = list(islice(self._pending.values(), self.batch_size))
        return Batch.of(take)

    def mark_committed(self, transactions: Iterable[Transaction]) -> int:
        """Drop committed transactions; returns how many were present."""
        dropped = 0
        for transaction in transactions:
            if self._pending.pop(transaction.tx_id, None) is not None:
                dropped += 1
        return dropped

    def pending(self) -> list[Transaction]:
        return list(self._pending.values())
