"""Client transactions and batches.

A :class:`Transaction` is an opaque client command with a modeled payload
size; replicas never interpret it (except the example state machines, which
parse the payload).  A :class:`Batch` is the ``txn`` field of a block: an
ordered tuple of transactions plus a digest used in the block id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.crypto.hashing import Digest, hash_fields


@dataclass(frozen=True, slots=True)
class Transaction:
    """A client command submitted for replication.

    Attributes:
        tx_id: globally unique identifier assigned by the workload.
        client: submitting client id.
        payload: opaque command body (examples use small strings).
        payload_size: modeled wire size of the body in bytes.
        submitted_at: simulated submission time (for end-to-end latency).
    """

    tx_id: str
    client: int = 0
    payload: str = ""
    payload_size: int = 100
    submitted_at: float = 0.0


@dataclass(frozen=True, slots=True)
class Batch:
    """The ``txn`` component of a block.

    The digest is computed when the batch is built, since every block id
    reads it; it takes no part in ``==`` or ``hash``.
    """

    transactions: tuple[Transaction, ...] = ()
    digest: Digest = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "digest",
            hash_fields("batch", tuple(tx.tx_id for tx in self.transactions)),
        )

    def __len__(self) -> int:
        return len(self.transactions)

    def __iter__(self):
        return iter(self.transactions)

    @classmethod
    def of(cls, transactions: Iterable[Transaction]) -> "Batch":
        return cls(transactions=tuple(transactions))


EMPTY_BATCH = Batch()


def make_transaction(
    index: int,
    client: int = 0,
    payload: Optional[str] = None,
    payload_size: int = 100,
    submitted_at: float = 0.0,
) -> Transaction:
    """Convenience constructor used by workloads and tests."""
    return Transaction(
        tx_id=f"tx-{client}-{index}",
        client=client,
        payload=payload if payload is not None else f"cmd:{index}",
        payload_size=payload_size,
        submitted_at=submitted_at,
    )
