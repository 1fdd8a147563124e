"""Protocol configuration.

``ProtocolConfig`` fixes everything a replica needs to know at setup time:
cluster size, fault budget, the round timeout, which protocol variant runs,
and the variant's derived parameters (commit-rule depth, lock rule, fallback
chain height, chain-adoption optimization).  Nothing here tunes liveness:
the asynchronous fallback is live with no timer at all, so the round
timeout is fixed and steady-state leaders rotate by
:class:`~repro.core.leader.LeaderSchedule`'s fixed rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

#: External-validity predicate over transactions (validated BFT SMR).
ValidityPredicate = Callable[["object"], bool]


class ProtocolVariant(enum.Enum):
    """Which assembled protocol a replica runs."""

    #: The paper's main protocol: DiemBFT + async fallback, 3-chain commit.
    FALLBACK_3CHAIN = "fallback-3chain"
    #: Section 4: 1-chain lock, 2-chain commit, 2-block fallback chains.
    FALLBACK_2CHAIN = "fallback-2chain"
    #: Baseline: DiemBFT with its original quadratic pacemaker (Figure 1).
    DIEMBFT = "diembft"
    #: Baseline: always-quadratic asynchronous protocol (VABA/ACE stand-in):
    #: every decision goes through the fallback path, no fast path.
    ALWAYS_FALLBACK = "always-fallback"


@dataclass(frozen=True)
class ProtocolConfig:
    """Cluster-wide protocol parameters.

    Attributes:
        n: number of replicas; must satisfy n = 3f+1 for some f >= 0.
        variant: which protocol to assemble.
        round_timeout: timer duration for a round (simulated time).
        batch_size: max transactions pulled from the mempool per block.
        fallback_adoption: enable the paper's "Optimization in Practice"
            (build on / adopt other replicas' certified f-blocks).  ``None``
            picks the variant default: off for 3-chain, on for 2-chain
            (Section 4 needs it for liveness under the 1-chain lock).
        validity_predicate: optional external-validity predicate (the
            paper's validated BFT SMR): honest replicas propose only valid
            transactions and refuse to vote for blocks containing invalid
            ones, so only externally valid transactions ever commit.
        adaptive_batching: consult an
            :class:`repro.traffic.batching.AdaptiveBatchController` before
            each proposal instead of using the fixed ``batch_size``.  Off
            by default: the flag-off path constructs no traffic objects and
            keeps recorded benchmark fingerprints byte-identical.
        adaptive_max_batch: the controller's batch-size ceiling (only read
            when ``adaptive_batching`` is on; the floor is 1).
    """

    n: int = 4
    variant: ProtocolVariant = ProtocolVariant.FALLBACK_3CHAIN
    round_timeout: float = 5.0
    batch_size: int = 10
    fallback_adoption: Optional[bool] = None
    validity_predicate: Optional[ValidityPredicate] = None
    adaptive_batching: bool = False
    adaptive_max_batch: int = 160

    def __post_init__(self) -> None:
        if self.n < 4 or (self.n - 1) % 3 != 0:
            raise ValueError(
                f"n must be 3f+1 for some f >= 1, got n={self.n}"
            )
        if self.round_timeout <= 0:
            raise ValueError("round_timeout must be positive")
        if self.adaptive_max_batch < 1:
            raise ValueError("adaptive_max_batch must be >= 1")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def f(self) -> int:
        """Maximum Byzantine replicas tolerated."""
        return (self.n - 1) // 3

    @property
    def quorum_size(self) -> int:
        """2f+1 — certificate threshold."""
        return 2 * self.f + 1

    @property
    def coin_threshold(self) -> int:
        """f+1 — coin reveal threshold."""
        return self.f + 1

    @property
    def uses_fallback(self) -> bool:
        return self.variant in (
            ProtocolVariant.FALLBACK_3CHAIN,
            ProtocolVariant.FALLBACK_2CHAIN,
            ProtocolVariant.ALWAYS_FALLBACK,
        )

    @property
    def commit_depth(self) -> int:
        """Adjacent certified blocks needed to commit (3-chain vs 2-chain)."""
        if self.variant == ProtocolVariant.FALLBACK_2CHAIN:
            return 2
        return 3

    @property
    def one_chain_lock(self) -> bool:
        """Section 4 locks on the QC itself instead of its parent."""
        return self.variant == ProtocolVariant.FALLBACK_2CHAIN

    @property
    def fallback_top_height(self) -> int:
        """F-chain length: 3 for the main protocol, 2 for Section 4."""
        if self.variant == ProtocolVariant.FALLBACK_2CHAIN:
            return 2
        return 3

    @property
    def adoption_enabled(self) -> bool:
        if self.fallback_adoption is not None:
            return self.fallback_adoption
        return self.variant == ProtocolVariant.FALLBACK_2CHAIN

    @property
    def strict_round_chaining(self) -> bool:
        """Fallback variants require r == qc.r + 1 when voting (Figure 2).

        The original DiemBFT pacemaker skips rounds via TCs, so its vote
        rule does not require consecutive rounds.
        """
        return self.uses_fallback
