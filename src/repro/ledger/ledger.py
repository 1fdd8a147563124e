"""The committed ledger: an append-only log of blocks plus a state machine.

``Ledger.commit_through`` appends the chain suffix from the last committed
block up to a newly committed block ("commit B and all its ancestors"),
applies transactions to the replica's state machine, and records commit
metadata used by the metrics layer (end-to-end latency, committed rounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.hashing import Digest
from repro.ledger.blockstore import BlockStore
from repro.types.blocks import AnyBlock
from repro.types.transactions import Transaction


class StateMachine:
    """Interface for the replicated application."""

    def apply(self, transaction: Transaction) -> object:
        """Apply one committed transaction; returns an application result."""
        raise NotImplementedError


class NullStateMachine(StateMachine):
    """Discards commands (used by benchmarks that only count commits)."""

    def apply(self, transaction: Transaction) -> object:
        return None


class KVStateMachine(StateMachine):
    """A tiny key-value store: commands are ``"set key value"`` strings.

    Unknown commands are ignored (committed but not interpreted), so mixed
    workloads are safe.
    """

    def __init__(self) -> None:
        self.data: dict[str, str] = {}

    def apply(self, transaction: Transaction) -> object:
        parts = transaction.payload.split(" ", 2)
        if len(parts) == 3 and parts[0] == "set":
            self.data[parts[1]] = parts[2]
            return parts[2]
        return None


@dataclass(slots=True)
class CommitRecord:
    """One committed block, with when/where it was committed."""

    block: AnyBlock
    position: int
    committed_at: float


@dataclass
class Ledger:
    """Append-only committed log for one replica."""

    store: BlockStore
    state_machine: StateMachine = field(default_factory=NullStateMachine)
    records: list[CommitRecord] = field(default_factory=list)
    _committed_ids: set[Digest] = field(default_factory=set)
    #: tx_id -> log position of a committed transaction's first commit
    #: (the block id is read from ``records`` when asked for).
    _tx_locations: dict[str, int] = field(default_factory=dict)
    #: Transactions in application order, exactly once each.
    _applied: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._last_committed: AnyBlock = self.store.genesis
        self._committed_ids.add(self.store.genesis.id)

    @property
    def last_committed(self) -> AnyBlock:
        return self._last_committed

    @property
    def height(self) -> int:
        """Number of committed blocks (excluding genesis)."""
        return len(self.records)

    def is_committed(self, block_id: Digest) -> bool:
        return block_id in self._committed_ids

    def commit_through(self, block: AnyBlock, now: float) -> list[CommitRecord]:
        """Commit ``block`` and all its not-yet-committed ancestors.

        Returns the newly appended records (oldest first).  A block that is
        already committed, or that does not extend the current committed
        head (which would be a safety violation and is checked by the
        caller/analysis layer), yields no records.
        """
        if block.id in self._committed_ids:
            return []
        suffix = self.store.chain_to(block, self._last_committed.id)
        if suffix is None:
            # Either we lack intermediate blocks (commit will be retried when
            # they arrive) or the block conflicts with the committed chain.
            return []
        appended: list[CommitRecord] = []
        for chained in suffix:
            record = CommitRecord(
                block=chained, position=len(self.records), committed_at=now
            )
            self.records.append(record)
            self._committed_ids.add(chained.id)
            for transaction in chained.batch:
                # Exactly-once execution: a transaction can legitimately
                # appear in several blocks (it stays in mempools until its
                # first commit is observed); only the first commit applies.
                if transaction.tx_id in self._tx_locations:
                    continue
                self.state_machine.apply(transaction)
                self._tx_locations[transaction.tx_id] = record.position
                self._applied.append(transaction)
            appended.append(record)
        self._last_committed = block
        return appended

    def committed_blocks(self) -> list[AnyBlock]:
        return [record.block for record in self.records]

    def committed_ids(self) -> list[Digest]:
        return [record.block.id for record in self.records]

    def committed_transactions(self) -> list[Transaction]:
        """Committed transactions in application order, exactly once each."""
        return list(self._applied)

    def record_at(self, position: int) -> Optional[CommitRecord]:
        if 0 <= position < len(self.records):
            return self.records[position]
        return None

    def is_committed_transaction(self, tx_id: str) -> bool:
        return tx_id in self._tx_locations

    def commit_location(self, tx_id: str) -> tuple[int, Digest]:
        """(log position, block id) of a committed transaction."""
        try:
            position = self._tx_locations[tx_id]
        except KeyError:
            raise KeyError(f"transaction {tx_id} is not committed") from None
        return position, self.records[position].block.id
