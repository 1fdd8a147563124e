"""Incremental quorum trackers — O(1) threshold checks on the hot path.

The engines in :mod:`repro.core.replica`, :mod:`repro.core.fallback` and
:mod:`repro.core.pacemaker` aggregate threshold shares (votes, timeouts,
coin shares) as ``dict[signer, share]`` buckets and re-check ``len(bucket)``
on every arrival.  At n=4 that is noise; at n=256 the buckets, their hash
probes and the per-view dict-of-dict churn show up directly in the
profile.  This module replaces them with dense, ``__slots__``-ed state
indexed by replica id:

- :class:`ShareQuorumTracker` — a fixed-size array of shares plus a count,
  keep-first insertion, constant-time threshold check.  Keep-first equals
  the dicts' last-write-wins for every share that passed verification,
  because share signing is deterministic: a signer has exactly one valid
  share per payload, so two verified inserts under one signer carry equal
  shares.
- :class:`SignerSet` — an integer bitmask of announcing identities
  (chain-completion announcements in Figure 2/4 count distinct signers).
- :class:`FallbackViewState` — one view's whole fallback working set
  (timeout shares, coin shares, completion announcements, own chain,
  f-QCs) in dense arrays, replacing five parallel per-view dicts.

All trigger points are externally identical to the dict-based buckets —
``tests/core/test_quorum_properties.py`` drives arbitrary interleavings
(duplicates, equivocations, out-of-range signers) against a naive re-scan
oracle to prove it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generic, Iterator, Optional, TypeVar

if TYPE_CHECKING:  # pragma: no cover
    from repro.crypto.coin import CoinShare
    from repro.crypto.threshold import ThresholdSignatureShare
    from repro.types.blocks import FallbackBlock
    from repro.types.certificates import FallbackQC, FallbackTC

S = TypeVar("S")


class ShareQuorumTracker(Generic[S]):
    """Dense share accumulator with a count-on-insert threshold check.

    Shares are stored in a fixed array indexed by signer id; ``count``
    tracks distinct signers seen, so the quorum test is an integer compare
    instead of a ``len()`` over a rebuilt bucket.
    """

    __slots__ = ("n", "threshold", "count", "_shares")

    def __init__(self, n: int, threshold: int) -> None:
        self.n = n
        self.threshold = threshold
        self.count = 0
        self._shares: list[Optional[S]] = [None] * n

    def add(self, signer: int, share: S) -> bool:
        """Insert keep-first; return True if the signer was new.

        Out-of-range signers are rejected (verified shares always carry a
        registered signer; this bounds-checks Byzantine garbage before any
        array access).
        """
        if not 0 <= signer < self.n:
            return False
        if self._shares[signer] is not None:
            return False
        self._shares[signer] = share
        self.count += 1
        return True

    @property
    def reached(self) -> bool:
        """O(1): have we accumulated ``threshold`` distinct signers?"""
        return self.count >= self.threshold

    def __contains__(self, signer: int) -> bool:
        return 0 <= signer < self.n and self._shares[signer] is not None

    def __len__(self) -> int:
        return self.count

    def shares(self) -> list[S]:
        """All stored shares, in signer order (combine/reveal input)."""
        return [share for share in self._shares if share is not None]

    def signers(self) -> list[int]:
        return [
            signer
            for signer in range(self.n)
            if self._shares[signer] is not None
        ]

    def evict_invalid(self, is_valid: Callable[[S], bool]) -> int:
        """Drop every share failing ``is_valid``; return how many went.

        Combine recovery: after a combine raises, the invalid shares are
        evicted so honest arrivals can re-reach the threshold.
        """
        evicted = 0
        for signer in range(self.n):
            share = self._shares[signer]
            if share is not None and not is_valid(share):
                self._shares[signer] = None
                self.count -= 1
                evicted += 1
        return evicted


class SignerSet:
    """Distinct-identity accumulator as an integer bitmask."""

    __slots__ = ("_mask", "count")

    def __init__(self) -> None:
        self._mask = 0
        self.count = 0

    def add(self, signer: int) -> bool:
        """Insert; return True if the identity was new."""
        if signer < 0:
            return False
        bit = 1 << signer
        if self._mask & bit:
            return False
        self._mask |= bit
        self.count += 1
        return True

    def __contains__(self, signer: int) -> bool:
        return signer >= 0 and bool(self._mask & (1 << signer))

    def __len__(self) -> int:
        return self.count

    def members(self) -> list[int]:
        """All stored identities, ascending (introspection only)."""
        mask = self._mask
        result = []
        signer = 0
        while mask:
            if mask & 1:
                result.append(signer)
            mask >>= 1
            signer += 1
        return result


class FallbackViewState:
    """One view's fallback working set, dense-indexed by replica id.

    Replaces the per-view entries of five parallel dicts in
    :class:`~repro.core.fallback.FallbackEngine` (timeout shares, coin
    shares, completion announcements, own blocks/votes, max proposed
    height) plus the global ``(view, proposer, height)``-keyed f-QC dict.
    F-QCs live in one flat ``n * top_height`` array indexed
    ``proposer * top_height + (height - 1)``; heights outside
    ``[1, top_height]`` (only reachable from Byzantine proposers growing
    chains past the top) spill into a small overflow dict so recording
    them stays behavior-identical to the old dict.
    """

    __slots__ = (
        "n",
        "top_height",
        "timeouts",
        "coin_shares",
        "completed",
        "max_proposed_height",
        "ftc",
        "own_blocks",
        "own_votes",
        "_fqcs",
        "_extra_fqcs",
    )

    def __init__(self, n: int, quorum: int, coin_threshold: int, top_height: int) -> None:
        self.n = n
        self.top_height = top_height
        self.timeouts: ShareQuorumTracker["ThresholdSignatureShare"] = (
            ShareQuorumTracker(n, quorum)
        )
        self.coin_shares: ShareQuorumTracker["CoinShare"] = ShareQuorumTracker(
            n, coin_threshold
        )
        self.completed = SignerSet()
        self.max_proposed_height = 0
        self.ftc: Optional["FallbackTC"] = None
        #: Own f-chain, indexed by height (slot 0 unused).
        self.own_blocks: list[Optional["FallbackBlock"]] = [None] * (top_height + 1)
        #: Vote trackers for own blocks, indexed by height (slot 0 unused).
        self.own_votes: list[
            Optional[ShareQuorumTracker["ThresholdSignatureShare"]]
        ] = [None] * (top_height + 1)
        self._fqcs: list[Optional["FallbackQC"]] = [None] * (n * top_height)
        self._extra_fqcs: dict[tuple[int, int], "FallbackQC"] = {}

    # ------------------------------------------------------------------
    # F-QC storage
    # ------------------------------------------------------------------
    def _fqc_index(self, proposer: int, height: int) -> int:
        """Flat index, or -1 when (proposer, height) is out of dense range."""
        if 0 <= proposer < self.n and 1 <= height <= self.top_height:
            return proposer * self.top_height + (height - 1)
        return -1

    def fqc_get(self, proposer: int, height: int) -> Optional["FallbackQC"]:
        index = self._fqc_index(proposer, height)
        if index >= 0:
            return self._fqcs[index]
        return self._extra_fqcs.get((proposer, height))

    def fqc_set(self, proposer: int, height: int, fqc: "FallbackQC") -> bool:
        """Store keep-first; return True if the slot was empty."""
        index = self._fqc_index(proposer, height)
        if index >= 0:
            if self._fqcs[index] is not None:
                return False
            self._fqcs[index] = fqc
            return True
        key = (proposer, height)
        if key in self._extra_fqcs:
            return False
        self._extra_fqcs[key] = fqc
        return True

    def fqc_items(self) -> Iterator[tuple[tuple[int, int], "FallbackQC"]]:
        """All stored f-QCs as ((proposer, height), fqc) pairs."""
        top = self.top_height
        for index, fqc in enumerate(self._fqcs):
            if fqc is not None:
                yield (index // top, index % top + 1), fqc
        for key, extra in self._extra_fqcs.items():
            yield key, extra

    def fqc_count(self) -> int:
        dense = sum(1 for fqc in self._fqcs if fqc is not None)
        return dense + len(self._extra_fqcs)
