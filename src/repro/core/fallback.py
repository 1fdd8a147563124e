"""The asynchronous view-change protocol (Figures 2 and 4).

On a round timeout the replica enters *fallback mode*, multicasts a timeout
message carrying a threshold share over its current view number and its
``qc_high``; 2f+1 such shares form a fallback-TC.  Entering the fallback,
every replica builds its own fallback-chain of f-blocks (heights 1..3, or
1..2 for the Section 4 variant), each height certified by 2f+1 fallback
votes.  Once 2f+1 chains are complete, replicas reveal the common coin; the
elected replica's f-QCs become *endorsed* and are handled exactly like
regular QCs — committing the endorsed chain with probability ≥ 2/3 — and the
protocol re-enters the steady state in the next view.

The "Optimization in Practice" (chain adoption) is implemented behind
``config.adoption_enabled``: replicas extend the first certified f-block
they learn at each height instead of waiting for their own chain.  It is the
default for the 2-chain variant (Section 4 requires it for liveness under
the 1-chain lock) and also repairs a liveness corner of the 3-chain
protocol under Byzantine timeout racing (see DESIGN.md).

Hot-path organization: all per-view working state (timeout shares, coin
shares, completion announcements, own chain, f-QCs) lives in one dense
:class:`~repro.core.quorum.FallbackViewState` per view instead of parallel
per-view dicts, and share buckets are incremental
:class:`~repro.core.quorum.ShareQuorumTracker` arrays with O(1) threshold
checks.  Every share is verified (through the cluster's share pool) on
arrival, before it enters a tracker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.core.quorum import FallbackViewState, ShareQuorumTracker
from repro.core.validation import (
    effective_rank,
    verify_fallback_qc,
    verify_fallback_tc,
    verify_parent_cert,
)
from repro.crypto.coin import CoinShare
from repro.crypto.signatures import SignatureError
from repro.crypto.threshold import ThresholdSignatureShare
from repro.types.blocks import FallbackBlock
from repro.types.certificates import CoinQC, FallbackQC, FallbackTC
from repro.types.messages import (
    CoinQCMessage,
    CoinShareMessage,
    FallbackProposal,
    FallbackQCMessage,
    FallbackTCMessage,
    FallbackTimeout,
    FallbackVote,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replica import Replica


class FallbackEngine:
    """Per-replica state and handlers for the asynchronous fallback."""

    def __init__(self, replica: "Replica") -> None:
        self.replica = replica
        self.config = replica.config
        self.crypto = replica.crypto
        self.top_height = self.config.fallback_top_height
        self.n = self.config.n

        #: Per-view fallback working set (dense arrays; see
        #: :class:`~repro.core.quorum.FallbackViewState`).
        self._views: dict[int, FallbackViewState] = {}
        self._timeout_sent_views: set[int] = set()

        #: Highest view whose fallback this replica has entered (-1 = none).
        self.entered_view = -1
        #: Views whose coin-QC we have already acted upon (exited).
        self._exited_views: set[int] = set()

        #: View -> CoinQC (kept forever: endorsement checks on old blocks).
        self.coin_qcs: dict[int, CoinQC] = {}

        self._coin_share_sent: set[int] = set()
        self._coin_qc_forwarded: set[int] = set()

        # Type-keyed dispatch (exact types; subclasses fall through to the
        # isinstance chain in handle()).
        self._dispatch: dict[type, Callable[[int, object], None]] = {
            FallbackTimeout: self.handle_timeout,  # type: ignore[dict-item]
            FallbackTCMessage: self._handle_tc_message,  # type: ignore[dict-item]
            FallbackProposal: self.handle_proposal,  # type: ignore[dict-item]
            FallbackVote: self.handle_vote,  # type: ignore[dict-item]
            FallbackQCMessage: self.handle_fqc_message,  # type: ignore[dict-item]
            CoinShareMessage: self.handle_coin_share,  # type: ignore[dict-item]
            CoinQCMessage: self.handle_coin_qc,  # type: ignore[dict-item]
        }

    # ------------------------------------------------------------------
    # Per-view state
    # ------------------------------------------------------------------
    def _view_state(self, view: int) -> FallbackViewState:
        state = self._views.get(view)
        if state is None:
            state = FallbackViewState(
                self.n,
                self.replica.quorum,
                self.config.coin_threshold,
                self.top_height,
            )
            self._views[view] = state
        return state

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, sender: int, message: object) -> None:
        handler = self._dispatch.get(type(message))
        if handler is not None:
            handler(sender, message)
        elif isinstance(message, FallbackTimeout):
            self.handle_timeout(sender, message)
        elif isinstance(message, FallbackTCMessage):
            self.maybe_enter_fallback(message.ftc)
        elif isinstance(message, FallbackProposal):
            self.handle_proposal(sender, message)
        elif isinstance(message, FallbackVote):
            self.handle_vote(sender, message)
        elif isinstance(message, FallbackQCMessage):
            self.handle_fqc_message(sender, message)
        elif isinstance(message, CoinShareMessage):
            self.handle_coin_share(sender, message)
        elif isinstance(message, CoinQCMessage):
            self.handle_coin_qc(sender, message)

    def _handle_tc_message(self, sender: int, message: FallbackTCMessage) -> None:
        self.maybe_enter_fallback(message.ftc)

    # ------------------------------------------------------------------
    # Timer and Timeout
    # ------------------------------------------------------------------
    def on_local_timeout(self) -> None:
        """Round timer expired: go into fallback mode and shout timeout."""
        replica = self.replica
        replica.fallback_mode = True
        view = replica.v_cur
        if view in self._timeout_sent_views:
            return
        self._timeout_sent_views.add(view)
        share = self.crypto.share(("ftimeout", view))
        message = FallbackTimeout(view=view, share=share, qc_high=replica.qc_high)
        replica.network.multicast(replica.process_id, message)

    def force_timeout(self) -> None:
        """ALWAYS_FALLBACK baseline: skip the fast path entirely."""
        self.on_local_timeout()

    def handle_timeout(self, sender: int, message: FallbackTimeout) -> None:
        replica = self.replica
        share = message.share
        if share.signer != sender:
            return
        if not self.crypto.verify_share(share, ("ftimeout", message.view)):
            return
        if not verify_parent_cert(self.crypto, message.qc_high):
            return
        # "Upon receiving a valid timeout message, execute Lock."
        replica.process_certificate(message.qc_high)
        if message.view < replica.v_cur:
            return  # stale view: lock processed, share useless
        tracker = self._view_state(message.view).timeouts
        tracker.add(sender, share)
        if tracker.reached and self.entered_view < message.view:
            payload = ("ftimeout", message.view)
            try:
                signature = self.crypto.combine(tracker.shares(), payload)
            except SignatureError:
                tracker.evict_invalid(
                    lambda s: self.crypto.verify_share(s, payload)
                )
                return
            ftc = FallbackTC(view=message.view, signature=signature)
            self.maybe_enter_fallback(ftc)

    # ------------------------------------------------------------------
    # Enter Fallback
    # ------------------------------------------------------------------
    def maybe_enter_fallback(self, ftc: FallbackTC) -> None:
        replica = self.replica
        if ftc.view < replica.v_cur or ftc.view <= self.entered_view:
            return
        if not verify_fallback_tc(self.crypto, ftc):
            return
        self._view_state(ftc.view).ftc = ftc
        replica.fallback_mode = True
        replica.v_cur = ftc.view
        self.entered_view = ftc.view
        replica.fallbacks_entered += 1
        replica.safety.reset_fallback_votes(ftc.view)
        replica.cancel_timer("round")
        replica.observer.on_fallback_entered(replica.process_id, ftc.view, replica.now)
        # Propose the height-1 f-block; the f-TC rides along (this is the
        # paper's "multicast tc̄ and a height-1 f-block" as one message).
        self._propose_height1(ftc)

    def _propose_height1(self, ftc: FallbackTC) -> None:
        replica = self.replica
        view = ftc.view
        block = FallbackBlock(
            qc=replica.qc_high,
            round=replica.qc_high.round + 1,
            view=view,
            height=1,
            proposer=replica.process_id,
            batch=replica.next_valid_batch(replica.qc_high),
        )
        replica.store.add(block)
        state = self._view_state(view)
        state.own_blocks[1] = block
        if state.max_proposed_height < 1:
            state.max_proposed_height = 1
        replica.network.multicast(
            replica.process_id, FallbackProposal(fblock=block, ftc=ftc)
        )

    # ------------------------------------------------------------------
    # Fallback Vote
    # ------------------------------------------------------------------
    def handle_proposal(self, sender: int, message: FallbackProposal) -> None:
        replica = self.replica
        fblock = message.fblock
        if fblock.proposer != sender:
            return
        parent_height: Optional[int] = None
        if fblock.height == 1:
            if isinstance(fblock.qc, FallbackQC):
                return  # height 1 must extend a regular/endorsed certificate
            if not verify_parent_cert(self.crypto, fblock.qc):
                return
            if message.ftc is None or message.ftc.view != fblock.view:
                return
            # Receiving the f-TC is an Enter Fallback trigger.
            self.maybe_enter_fallback(message.ftc)
            # Lock on the embedded certificate.
            replica.process_certificate(fblock.qc)
        else:
            if not isinstance(fblock.qc, FallbackQC):
                return
            if fblock.qc.view != fblock.view:
                return
            if not verify_fallback_qc(self.crypto, fblock.qc):
                return
            self.record_fqc(fblock.qc)
        replica.store.add(fblock)
        if not replica.batch_valid(fblock.batch):
            return  # external validity: never vote for invalid transactions
        parent_rank = effective_rank(fblock.qc, self.coin_qcs)
        if isinstance(fblock.qc, FallbackQC):
            parent_height = fblock.qc.height
        if replica.safety.may_vote_fallback(
            fblock, replica.v_cur, replica.fallback_mode, parent_rank, parent_height
        ):
            replica.safety.record_fallback_vote(fblock)
            payload = (
                "fvote",
                fblock.id,
                fblock.round,
                fblock.view,
                fblock.height,
                fblock.proposer,
            )
            vote = FallbackVote(
                block_id=fblock.id,
                round=fblock.round,
                view=fblock.view,
                height=fblock.height,
                proposer=fblock.proposer,
                share=self.crypto.share(payload),
            )
            replica.network.send(replica.process_id, sender, vote)

    # ------------------------------------------------------------------
    # Fallback Propose (growing our chain)
    # ------------------------------------------------------------------
    def handle_vote(self, sender: int, message: FallbackVote) -> None:
        replica = self.replica
        if message.proposer != replica.process_id:
            return
        share = message.share
        if share.signer != sender:
            return
        state = self._views.get(message.view)
        if state is None or not 1 <= message.height <= self.top_height:
            return
        own = state.own_blocks[message.height]
        if own is None or own.id != message.block_id:
            return
        payload = (
            "fvote",
            message.block_id,
            message.round,
            message.view,
            message.height,
            message.proposer,
        )
        if not self.crypto.verify_share(share, payload):
            return
        tracker = state.own_votes[message.height]
        if tracker is None:
            tracker = ShareQuorumTracker(self.n, replica.quorum)
            state.own_votes[message.height] = tracker
        tracker.add(sender, share)
        if not tracker.reached:
            return
        if state.fqc_get(message.proposer, message.height) is not None:
            return  # already certified
        try:
            signature = self.crypto.combine(tracker.shares(), payload)
        except SignatureError:
            return
        fqc = FallbackQC(
            block_id=message.block_id,
            round=message.round,
            view=message.view,
            height=message.height,
            proposer=message.proposer,
            signature=signature,
        )
        self.record_fqc(fqc)
        self._continue_own_chain(fqc)

    def _continue_own_chain(self, fqc: FallbackQC) -> None:
        replica = self.replica
        if not replica.fallback_mode or fqc.view != replica.v_cur:
            return
        if fqc.height >= self.top_height:
            replica.network.multicast(replica.process_id, FallbackQCMessage(fqc=fqc))
            return
        self._propose_next_height(fqc)

    def _propose_next_height(self, parent_fqc: FallbackQC) -> None:
        """Extend ``parent_fqc`` with our f-block at the next height."""
        replica = self.replica
        view = parent_fqc.view
        height = parent_fqc.height + 1
        state = self._view_state(view)
        if state.max_proposed_height >= height:
            return
        block = FallbackBlock(
            qc=parent_fqc,
            round=parent_fqc.round + 1,
            view=view,
            height=height,
            proposer=replica.process_id,
            batch=replica.next_valid_batch(parent_fqc),
        )
        replica.store.add(block)
        state.own_blocks[height] = block
        state.max_proposed_height = height
        replica.network.multicast(replica.process_id, FallbackProposal(fblock=block))

    def record_fqc(self, fqc: FallbackQC) -> None:
        """Store an f-QC; feeds endorsement, adoption, and late commits."""
        if not self._view_state(fqc.view).fqc_set(fqc.proposer, fqc.height, fqc):
            return
        # If the view's coin already elected this proposer, the f-QC is
        # endorsed and acts as a regular QC.
        coin_qc = self.coin_qcs.get(fqc.view)
        if coin_qc is not None and coin_qc.leader == fqc.proposer:
            self.replica.process_certificate(fqc)
        # Chain adoption (Optimization in Practice / Figure 4).
        if (
            self.config.adoption_enabled
            and self.replica.fallback_mode
            and fqc.view == self.replica.v_cur
            and fqc.height < self.top_height
        ):
            self._propose_next_height(fqc)

    # ------------------------------------------------------------------
    # Leader Election
    # ------------------------------------------------------------------
    def handle_fqc_message(self, sender: int, message: FallbackQCMessage) -> None:
        replica = self.replica
        fqc = message.fqc
        if fqc.height != self.top_height:
            return
        if not verify_fallback_qc(self.crypto, fqc):
            return
        self.record_fqc(fqc)
        completed = self._view_state(fqc.view).completed
        if self.config.fallback_top_height == 2:
            # Figure 4 counts announcements "signed by distinct replicas".
            completed.add(sender)
        else:
            completed.add(fqc.proposer)
        if (
            completed.count >= replica.quorum
            and replica.fallback_mode
            and fqc.view == replica.v_cur
            and fqc.view not in self._coin_share_sent
        ):
            self._coin_share_sent.add(fqc.view)
            share = self.crypto.coin_share(fqc.view)
            replica.network.multicast(replica.process_id, CoinShareMessage(share=share))

    # ------------------------------------------------------------------
    # Exit Fallback
    # ------------------------------------------------------------------
    def handle_coin_share(self, sender: int, message: CoinShareMessage) -> None:
        share = message.share
        if share.signer != sender:
            return
        if not self.crypto.verify_coin_share(share):
            return
        view = share.view
        if view in self.coin_qcs:
            return
        tracker = self._view_state(view).coin_shares
        tracker.add(sender, share)
        if tracker.reached:
            try:
                coin_qc = self.crypto.reveal_coin(tracker.shares(), view)
            except SignatureError:
                tracker.evict_invalid(self.crypto.verify_coin_share)
                return
            self.exit_fallback(coin_qc)

    def handle_coin_qc(self, sender: int, message: CoinQCMessage) -> None:
        coin_qc = message.coin_qc
        if not self.crypto.verify_coin_qc(coin_qc):
            return
        self.exit_fallback(coin_qc)

    def exit_fallback(self, coin_qc: CoinQC) -> None:
        replica = self.replica
        view = coin_qc.view
        first_sighting = view not in self.coin_qcs
        self.coin_qcs[view] = coin_qc
        if first_sighting:
            # Endorse any stored f-QCs by the elected leader (Lock).
            self._process_endorsed(view, coin_qc.leader)
        if view < replica.v_cur or view in self._exited_views:
            return
        self._exited_views.add(view)
        if view not in self._coin_qc_forwarded:
            self._coin_qc_forwarded.add(view)
            replica.network.multicast(
                replica.process_id, CoinQCMessage(coin_qc=coin_qc)
            )
        if replica.fallback_mode and self.entered_view == view:
            replica.safety.adopt_leader_votes(coin_qc.leader)
        replica.fallback_mode = False
        replica.v_cur = view + 1
        replica.observer.on_fallback_exited(
            replica.process_id, view, coin_qc.leader, replica.now
        )
        # Lock on the endorsed chain (again: _process_endorsed above ran
        # before v_cur moved; re-running is idempotent and handles the case
        # where we exited via a forwarded coin-QC without stored f-QCs).
        self._process_endorsed(view, coin_qc.leader)
        self._prune_old_views(replica.v_cur)
        replica.after_view_change()

    def _process_endorsed(self, view: int, leader: int) -> None:
        """Handle the elected leader's stored f-QCs as regular QCs."""
        state = self._views.get(view)
        if state is None:
            return
        for height in range(self.top_height, 0, -1):
            fqc = state.fqc_get(leader, height)
            if fqc is not None:
                self.replica.process_certificate(fqc)
                return

    # ------------------------------------------------------------------
    # Memory hygiene
    # ------------------------------------------------------------------
    #: Views of fallback state retained behind the current view.  Old
    #: coin-QCs are kept forever (endorsement checks on historical blocks
    #: need them and they are O(1) per view); everything else is per-view
    #: working state that can be dropped once the view is settled.
    PRUNE_MARGIN = 2

    def _prune_old_views(self, current_view: int) -> None:
        horizon = current_view - self.PRUNE_MARGIN
        if horizon <= 0:
            return
        for view in [v for v in self._views if v < horizon]:
            del self._views[view]

    # ------------------------------------------------------------------
    # Durable-snapshot support
    # ------------------------------------------------------------------
    def proposed_heights(self) -> dict[int, int]:
        """View -> own max proposed f-block height (journal snapshot)."""
        return {
            view: state.max_proposed_height
            for view, state in self._views.items()
            if state.max_proposed_height > 0
        }

    def restore_proposed_heights(self, heights: dict[int, int]) -> None:
        """Journal restore: never re-propose already-covered heights."""
        for view, height in heights.items():
            self._view_state(view).max_proposed_height = height

    # ------------------------------------------------------------------
    # Introspection (tests and tooling; not on the message hot path)
    # ------------------------------------------------------------------
    @property
    def fqcs(self) -> dict[tuple[int, int, int], FallbackQC]:
        """All retained f-QCs keyed (view, proposer, height) — the paper's
        "records all the f-QCs of view v by replica j", materialized from
        the dense per-view arrays."""
        return {
            (view, proposer, height): fqc
            for view, state in self._views.items()
            for (proposer, height), fqc in state.fqc_items()
        }

    @property
    def _timeout_shares(self) -> dict[int, dict[int, ThresholdSignatureShare]]:
        return {
            view: dict(zip(state.timeouts.signers(), state.timeouts.shares()))
            for view, state in self._views.items()
            if state.timeouts.count > 0
        }

    @property
    def _coin_shares(self) -> dict[int, dict[int, CoinShare]]:
        return {
            view: dict(zip(state.coin_shares.signers(), state.coin_shares.shares()))
            for view, state in self._views.items()
            if state.coin_shares.count > 0
        }

    @property
    def _completed(self) -> dict[int, set[int]]:
        return {
            view: set(state.completed.members())
            for view, state in self._views.items()
            if state.completed.count > 0
        }

    @property
    def _own_blocks(self) -> dict[tuple[int, int], FallbackBlock]:
        return {
            (view, height): block
            for view, state in self._views.items()
            for height, block in enumerate(state.own_blocks)
            if block is not None
        }

    @property
    def _own_vote_shares(self) -> dict[str, dict[int, ThresholdSignatureShare]]:
        result: dict[str, dict[int, ThresholdSignatureShare]] = {}
        for state in self._views.values():
            for height, tracker in enumerate(state.own_votes):
                if tracker is None or tracker.count == 0:
                    continue
                block = state.own_blocks[height]
                if block is not None:
                    result[block.id] = dict(
                        zip(tracker.signers(), tracker.shares())
                    )
        return result

    @property
    def _max_proposed_height(self) -> dict[int, int]:
        return self.proposed_heights()

    @property
    def _ftcs(self) -> dict[int, FallbackTC]:
        return {
            view: state.ftc
            for view, state in self._views.items()
            if state.ftc is not None
        }

    def _iter_views(self) -> Iterator[tuple[int, FallbackViewState]]:
        return iter(self._views.items())
