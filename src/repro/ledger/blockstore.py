"""Per-replica block storage: the block tree and ancestry queries.

The store holds every (regular or fallback) block the replica has seen,
keyed by id, with parent links derived from the embedded certificates.  It
answers the queries the protocol needs:

- parent/ancestor walks for the commit rules,
- "do I have the block this certificate certifies?" (catch-up),
- chains from a block back to the last committed block.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.crypto.hashing import Digest
from repro.types.blocks import AnyBlock, genesis_block


class BlockStore:
    """Block tree rooted at genesis."""

    def __init__(self) -> None:
        self._blocks: dict[Digest, AnyBlock] = {}
        self.genesis = genesis_block()
        self._blocks[self.genesis.id] = self.genesis

    def __contains__(self, block_id: Digest) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def add(self, block: AnyBlock) -> bool:
        """Insert a block.  Returns True if it was new.

        Duplicate inserts are no-ops (multicast + forwarding means replicas
        legitimately see the same block many times).
        """
        if block.id in self._blocks:
            return False
        self._blocks[block.id] = block
        return True

    def get(self, block_id: Digest) -> Optional[AnyBlock]:
        return self._blocks.get(block_id)

    def require(self, block_id: Digest) -> AnyBlock:
        block = self._blocks.get(block_id)
        if block is None:
            raise KeyError(f"block {block_id[:8]} not in store")
        return block

    def parent(self, block: AnyBlock) -> Optional[AnyBlock]:
        """The block's parent, if we have it (genesis has none)."""
        parent_id = block.parent_id
        if parent_id is None:
            return None
        return self._blocks.get(parent_id)

    def ancestors(self, block: AnyBlock, include_self: bool = False) -> Iterator[AnyBlock]:
        """Walk ancestors from ``block`` toward genesis (stops at gaps)."""
        if include_self:
            yield block
        current = self.parent(block)
        while current is not None:
            yield current
            current = self.parent(current)

    def chain_to(self, block: AnyBlock, stop_id: Digest) -> Optional[list[AnyBlock]]:
        """Blocks from just after ``stop_id`` up to ``block`` (inclusive).

        Returns None if ``block`` does not extend ``stop_id`` or the chain
        has gaps.  The result is ordered oldest-first and excludes the stop
        block itself — exactly the suffix to append to a committed ledger.
        """
        chain: list[AnyBlock] = []
        current: Optional[AnyBlock] = block
        while current is not None:
            if current.id == stop_id:
                chain.reverse()
                return chain
            chain.append(current)
            current = self.parent(current)
        return None
