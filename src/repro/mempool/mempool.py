"""A per-replica mempool: pending client transactions awaiting proposal.

In this simulation clients submit to every replica (as in most BFT SMR
deployments, transactions are disseminated out-of-band or broadcast), so
each replica's mempool holds the same logical stream.  A proposer peeks
a batch, skipping the transactions the chain it extends already carries,
and a replica drops transactions once it sees them committed.

The pool is optionally **bounded**: with a ``capacity`` set, submissions
beyond the bound are rejected (``submit`` returns ``False`` and
``rejected_count`` increments) so overload degrades by shedding instead of
by unbounded memory growth — see :mod:`repro.traffic.admission`.  The
default is unbounded, which preserves the historical behavior every
recorded benchmark fingerprint was taken under.

**Arrival listeners** are the pool's one outward seam: each callable
added with :meth:`add_listener` is told about every newly accepted
transaction, together with whether the pool was empty before it.  The
owning replica listens to wake an idle leader on the empty -> non-empty
transition; with adaptive batching on, a traffic envelope listens to
every arrival.  Several replicas may share one pool (each adds its own
listener), so the seam is a list, not a slot.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Collection, Iterable, Optional

from repro.types.transactions import EMPTY_BATCH, Batch, Transaction

#: Told of each accepted transaction and whether the pool was empty before.
ArrivalListener = Callable[[Transaction, bool], None]


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
        self._listeners: list[ArrivalListener] = []

    def __len__(self) -> int:
        return len(self._pending)

    def add_listener(self, listener: ArrivalListener) -> None:
        """Call ``listener(transaction, was_empty)`` on every accepted
        submission, after the transaction is in the pool."""
        self._listeners.append(listener)

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
        was_empty = not pending
        pending[tx_id] = transaction
        self.submitted_count += 1
        for listener in self._listeners:
            listener(transaction, was_empty)
        return True

    def submit_all(self, transactions: Iterable[Transaction]) -> None:
        for transaction in transactions:
            self.submit(transaction)

    def next_batch(self, skip: Collection[str] = ()) -> Batch:
        """Peek the next batch to propose: the oldest pending transactions
        whose ids are not in ``skip`` (the proposer passes those already
        in flight in the chain its block extends).

        It does not remove: a transaction leaves the pool only when it
        commits, so one whose block is abandoned (never certified, or on a
        branch the next leader does not extend) is proposed again.  A batch
        with nothing to carry shares ``EMPTY_BATCH``.
        """
        pending: Iterable[Transaction] = self._pending.values()
        if skip:
            pending = (tx for tx in pending if tx.tx_id not in skip)
        take = list(islice(pending, self.batch_size))
        return Batch.of(take) if take else EMPTY_BATCH

    def mark_committed(self, transactions: Iterable[Transaction]) -> int:
        """Drop committed transactions; returns how many were present."""
        dropped = 0
        for transaction in transactions:
            if self._pending.pop(transaction.tx_id, None) is not None:
                dropped += 1
        return dropped

    def pending(self) -> list[Transaction]:
        return list(self._pending.values())
