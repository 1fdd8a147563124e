"""The replica state machine.

One :class:`Replica` runs the steady-state protocol (Propose / Vote / Lock /
Advance Round / Commit) and delegates view-change duties to an engine chosen
by the configured variant:

- :class:`~repro.core.fallback.FallbackEngine` — the paper's asynchronous
  view-change (Figures 2-4),
- :class:`~repro.core.pacemaker.PacemakerEngine` — the original DiemBFT
  quadratic pacemaker (Figure 1), used by the partially synchronous baseline.

The ALWAYS_FALLBACK variant (VABA/ACE-style quadratic baseline) reuses the
fallback engine but never runs the fast path: every view starts with an
immediate timeout.

Transport contract: a replica only ever calls ``network.send`` /
``network.multicast`` and receives via :meth:`Process.deliver`.  It assumes
the paper's reliable authenticated links.  When the simulation withdraws
that assumption (a :class:`~repro.net.loss.LossModel` is installed), the
:class:`~repro.net.reliable.ReliableNetwork` channel layer restores
exactly-once-per-retransmission-window delivery *underneath* this class —
replica logic is byte-for-byte independent of the transport in play.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.core.commit import find_commit_target, parent_rank_of
from repro.core.config import ProtocolConfig, ProtocolVariant
from repro.core.context import CryptoContext
from repro.core.leader import LeaderSchedule
from repro.core.quorum import ShareQuorumTracker
from repro.core.safety import SafetyRules
from repro.core.validation import (
    AnyCert,
    effective_rank,
    endorse_if_elected,
    verify_parent_cert,
)
from repro.ledger.blockstore import BlockStore
from repro.ledger.ledger import CommitRecord, Ledger, NullStateMachine, StateMachine
from repro.mempool.mempool import Mempool
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler
from repro.types.blocks import AnyBlock, Block
from repro.types.certificates import (
    CoinQC,
    EndorsedFallbackQC,
    FallbackQC,
    ParentCert,
    QC,
    genesis_qc,
    max_cert,
)
from repro.types.transactions import EMPTY_BATCH, Batch, Transaction
from repro.crypto.signatures import SignatureError
from repro.crypto.threshold import ThresholdSignatureShare
from repro.client.client import ClientReply, ClientRequest
from repro.types.messages import (
    BlockRequest,
    BlockResponse,
    ChainRequest,
    ChainResponse,
    CoinQCMessage,
    CoinShareMessage,
    FallbackProposal,
    FallbackQCMessage,
    FallbackTCMessage,
    FallbackTimeout,
    FallbackVote,
    PacemakerTCMessage,
    PacemakerTimeout,
    Proposal,
    Vote,
)

ROUND_TIMER = "round"
PACE_TIMER = "pace"
SYNC_TIMER_PREFIX = "sync:"


class ReplicaObserver:
    """No-op observer; the metrics layer implements these hooks."""

    def on_commit(self, replica: int, record: CommitRecord, now: float) -> None:
        pass

    def on_round_entered(self, replica: int, round_number: int, now: float) -> None:
        pass

    def on_state_reset(self, replica: int, now: float) -> None:
        pass

    def on_timeout(self, replica: int, view: int, round_number: int, now: float) -> None:
        pass

    def on_fallback_entered(self, replica: int, view: int, now: float) -> None:
        pass

    def on_fallback_exited(self, replica: int, view: int, leader: int, now: float) -> None:
        pass

    def on_proposal(self, replica: int, block: Block, now: float) -> None:
        pass


class Replica(Process):
    """An honest replica."""

    def __init__(
        self,
        replica_id: int,
        config: ProtocolConfig,
        crypto: CryptoContext,
        network: Network,
        scheduler: Scheduler,
        mempool: Optional[Mempool] = None,
        state_machine: Optional[StateMachine] = None,
        observer: Optional[ReplicaObserver] = None,
    ) -> None:
        super().__init__(replica_id, scheduler)
        if crypto.replica != replica_id:
            raise ValueError("crypto context belongs to a different replica")
        self.config = config
        self.crypto = crypto
        self.network = network
        self.observer = observer or ReplicaObserver()
        self.schedule = LeaderSchedule(config.n)
        self.mempool = mempool if mempool is not None else Mempool(config.batch_size)
        self.mempool.add_listener(self._wake_on_arrival)
        # Adaptive proposal batching (opt-in): with the flag off this stays
        # None and the flag-off hot path is a single identity check — no
        # traffic objects exist, so recorded fingerprints are unaffected.
        self._batch_controller = None
        if config.adaptive_batching:
            from repro.traffic.batching import AdaptiveBatchController
            from repro.traffic.envelope import TrafficEnvelope

            envelope = TrafficEnvelope()
            self.mempool.add_listener(
                lambda transaction, _: envelope.observe(transaction.client, self.now)
            )
            self._batch_controller = AdaptiveBatchController(
                max_batch=config.adaptive_max_batch,
                start=config.batch_size,
                envelope=envelope.cluster,
            )
        self.store = BlockStore()
        self.ledger = Ledger(self.store, state_machine or NullStateMachine())
        self.safety = SafetyRules(config)

        # Core protocol state (Figure 1 initialization).
        self.r_cur = 1
        self.v_cur = 0
        self.qc_high: ParentCert = genesis_qc(self.store.genesis.id)
        self.fallback_mode = False
        self.fallbacks_entered = 0

        # Vote aggregation (as the next round's leader), keyed
        # ("vote", block_id, round, view); incremental trackers give O(1)
        # quorum checks instead of per-arrival bucket re-scans.  A key whose
        # QC has formed maps to None, so later votes for it are ignored.
        self._vote_shares: dict[
            tuple[str, str, int, int],
            Optional[ShareQuorumTracker[ThresholdSignatureShare]],
        ] = {}

        # Proposals made, keyed (view, round): the leader proposes once.
        self._proposed: set[tuple[int, int]] = set()

        # Idle pacing (see maybe_propose): the block this replica last voted
        # for and when, and the (view, round) whose proposal it is holding
        # back, if any.
        self._last_vote: tuple[str, float] = ("", 0.0)
        self._idle_key: Optional[tuple[int, int]] = None

        # Certificates whose blocks we have not received yet.
        self._pending_certs: list[AnyCert] = []
        self._requested_blocks: set[str] = set()

        # Client transactions awaiting a commit reply: tx_id -> client id.
        self._tx_origin: dict[str, int] = {}

        # In-flight block sync: block_id -> (cert, attempts so far, deep gap).
        self._sync_attempts: dict[str, tuple[AnyCert, int, bool]] = {}

        # View-change engine (imported here to avoid module cycles).
        from repro.core.fallback import FallbackEngine
        from repro.core.pacemaker import PacemakerEngine

        self.fallback: Optional[FallbackEngine] = None
        self.pacemaker: Optional[PacemakerEngine] = None
        if config.uses_fallback:
            self.fallback = FallbackEngine(self)
        else:
            self.pacemaker = PacemakerEngine(self)

        # Exact-type message dispatch (hot path at large n; subclassed
        # message types fall through to the isinstance chain).  Bound
        # methods resolve through the MRO, so subclass handler overrides
        # are honored; engine routing reads self.fallback/self.pacemaker
        # at call time because fault harnesses swap engines after init.
        self._msg_dispatch: dict[type, Callable[..., None]] = {
            ClientRequest: self.handle_client_request,
            Proposal: self.handle_proposal,
            Vote: self.handle_vote,
            BlockRequest: self.handle_block_request,
            BlockResponse: self.handle_block_response,
            ChainRequest: self.handle_chain_request,
            ChainResponse: self.handle_chain_response,
            PacemakerTimeout: self._dispatch_pacemaker,
            PacemakerTCMessage: self._dispatch_pacemaker,
            FallbackTimeout: self._dispatch_fallback,
            FallbackTCMessage: self._dispatch_fallback,
            FallbackProposal: self._dispatch_fallback,
            FallbackVote: self._dispatch_fallback,
            FallbackQCMessage: self._dispatch_fallback,
            CoinShareMessage: self._dispatch_fallback,
            CoinQCMessage: self._dispatch_fallback,
        }

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def quorum(self) -> int:
        return self.config.quorum_size

    @property
    def coin_qcs(self) -> dict[int, CoinQC]:
        """View -> CoinQC map (empty for the baseline pacemaker)."""
        if self.fallback is not None:
            return self.fallback.coin_qcs
        return {}

    def current_leader(self) -> int:
        return self.schedule.leader(self.r_cur)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        if self.config.variant == ProtocolVariant.ALWAYS_FALLBACK:
            assert self.fallback is not None
            self.fallback.force_timeout()
            return
        self._arm_round_timer()
        self.maybe_propose()

    def on_timer(self, name: str) -> None:
        if name.startswith(SYNC_TIMER_PREFIX):
            self._retry_block_request(name[len(SYNC_TIMER_PREFIX):])
            return
        if name == PACE_TIMER:
            self.maybe_propose()
            return
        if name != ROUND_TIMER:
            return
        self.observer.on_timeout(self.process_id, self.v_cur, self.r_cur, self.now)
        if self.fallback is not None:
            self.fallback.on_local_timeout()
        elif self.pacemaker is not None:
            self.pacemaker.on_local_timeout()

    def _dispatch_pacemaker(self, sender: int, message: object) -> None:
        if self.pacemaker is not None:
            self.pacemaker.handle(sender, message)

    def _dispatch_fallback(self, sender: int, message: object) -> None:
        if self.fallback is not None:
            self.fallback.handle(sender, message)

    def on_message(self, sender: int, message: object) -> None:
        handler = self._msg_dispatch.get(type(message))
        if handler is not None:
            handler(sender, message)
            return
        if isinstance(message, ClientRequest):
            self.handle_client_request(sender, message)
        elif isinstance(message, Proposal):
            self.handle_proposal(sender, message)
        elif isinstance(message, Vote):
            self.handle_vote(sender, message)
        elif isinstance(message, BlockRequest):
            self.handle_block_request(sender, message)
        elif isinstance(message, BlockResponse):
            self.handle_block_response(sender, message)
        elif isinstance(message, ChainRequest):
            self.handle_chain_request(sender, message)
        elif isinstance(message, ChainResponse):
            self.handle_chain_response(sender, message)
        elif isinstance(message, (PacemakerTimeout, PacemakerTCMessage)):
            if self.pacemaker is not None:
                self.pacemaker.handle(sender, message)
        elif isinstance(
            message,
            (
                FallbackTimeout,
                FallbackTCMessage,
                FallbackProposal,
                FallbackVote,
                FallbackQCMessage,
                CoinShareMessage,
                CoinQCMessage,
            ),
        ):
            if self.fallback is not None:
                self.fallback.handle(sender, message)
        # Unknown message types are dropped (Byzantine noise).

    # ------------------------------------------------------------------
    # Steady state: Propose
    # ------------------------------------------------------------------
    def maybe_propose(self) -> None:
        """Propose for the current round if we are its leader (once).

        An idle leader holds its proposal back (:meth:`_holds_back`) until
        its pool wakes it or its idle time runs out.  A leader that held
        back re-arms its round timer as it proposes: the wait spent part
        of its own timer's span, and the next leader may wait as well.
        """
        if self.config.variant == ProtocolVariant.ALWAYS_FALLBACK:
            return
        if self.fallback_mode:
            return
        if self.schedule.leader(self.r_cur) != self.process_id:
            return
        key = (self.v_cur, self.r_cur)
        if key in self._proposed:
            return
        if self._holds_back(key):
            return
        self._proposed.add(key)
        if self._idle_key is not None:
            self._idle_key = None
            self.cancel_timer(PACE_TIMER)
            self._arm_round_timer()
        if self._batch_controller is not None:
            self.mempool.batch_size = self._batch_controller.tune(
                len(self.mempool), self.now
            )
        block = Block(
            qc=self.qc_high,
            round=self.r_cur,
            view=self.v_cur,
            batch=self.next_valid_batch(self.qc_high),
            author=self.process_id,
        )
        self.store.add(block)
        self.observer.on_proposal(self.process_id, block, self.now)
        self.network.multicast(self.process_id, Proposal(block))

    def _holds_back(self, key: tuple[int, int]) -> bool:
        """Whether the leader defers its proposal for ``key`` for now.

        It defers while it has nothing to carry or to commit: its pool is
        empty and no uncommitted block under ``qc_high`` holds a
        transaction.  Only in a running chain (``qc_high`` is this view's
        QC for the previous round, and this replica voted for its block),
        so the first round after a view change proposes at once.

        The wait ends half a round timeout after that vote.  An honest
        replica entered the previous round no earlier than the proposal it
        voted for was sent, so its timer span holds this one wait plus two
        message delays; and proposals stay half a round timeout apart.
        """
        if len(self.mempool) or not self._chain_is_idle():
            return False
        if self._idle_key == key:
            return self.timer_active(PACE_TIMER)
        voted_for, voted_at = self._last_vote
        delay = voted_at + self.config.round_timeout / 2 - self.now
        if voted_for != self.qc_high.block_id or delay <= 0:
            return False
        self._idle_key = key
        self.set_timer(PACE_TIMER, delay)
        return True

    def _chain_is_idle(self) -> bool:
        """``qc_high`` is this view's QC for the previous round, and none of
        the uncommitted blocks it certifies carries a transaction."""
        qc = self.qc_high
        if type(qc) is not QC or qc.view != self.v_cur or qc.round != self.r_cur - 1:
            return False
        in_flight = self._in_flight(qc)
        return in_flight is not None and not in_flight

    def _in_flight(self, parent: AnyCert) -> Optional[set[str]]:
        """Ids of the transactions carried by the uncommitted blocks from
        ``parent``'s block down to the committed prefix.

        A block extending ``parent`` commits exactly when these do, so it
        need not carry them again.  ``None`` when a missing block breaks
        the walk: it may carry anything.
        """
        carried: set[str] = set()
        block_id = parent.block_id
        while not self.ledger.is_committed(block_id):
            block = self.store.get(block_id)
            if block is None or block.qc is None:
                return None
            carried.update(transaction.tx_id for transaction in block.batch)
            block_id = block.qc.block_id
        return carried

    def _wake_on_arrival(self, transaction: Transaction, was_empty: bool) -> None:
        """Mempool listener: a first transaction ends an idle wait.

        The proposal runs as a zero-delay timer step rather than from here:
        a submission can arrive outside any handler, and a timer step is one
        a durable replica persists and flushes like any other.
        """
        if was_empty and self.timer_active(PACE_TIMER):
            self.set_timer(PACE_TIMER, 0.0)

    # ------------------------------------------------------------------
    # Steady state: Vote
    # ------------------------------------------------------------------
    def handle_proposal(self, sender: int, message: Proposal) -> None:
        block = message.block
        if block.round < 1:
            return  # malformed: protocol rounds start at 1
        if block.author != sender:
            return  # forged authorship
        if self.schedule.leader(block.round) != sender:
            return  # not the designated leader for that round
        if block.qc is None or not verify_parent_cert(self.crypto, block.qc):
            return
        self.store.add(block)
        self._retry_pending_certs()
        # Lock step: "upon seeing a valid qc ... contained in proposal".
        self.process_certificate(block.qc)
        if not self.batch_valid(block.batch):
            return  # external validity: never vote for invalid transactions
        parent_rank = effective_rank(block.qc, self.coin_qcs)
        if self.safety.may_vote_regular(
            block, self.r_cur, self.v_cur, self.fallback_mode, parent_rank
        ):
            self.safety.record_regular_vote(block)
            self._last_vote = (block.id, self.now)
            share = self.crypto.share(("vote", block.id, block.round, block.view))
            vote = Vote(block_id=block.id, round=block.round, view=block.view, share=share)
            self.network.send(
                self.process_id, self.schedule.leader(block.round + 1), vote
            )

    def handle_vote(self, sender: int, message: Vote) -> None:
        share = message.share
        if share.signer != sender:
            return
        payload = ("vote", message.block_id, message.round, message.view)
        if not self.crypto.verify_share(share, payload):
            return
        key = payload
        if message.round < self._vote_horizon():
            return  # pruned: a late vote must not form an old QC again
        tracker = self._vote_shares.get(key)
        if tracker is None:
            if key in self._vote_shares:
                return  # QC already formed
            tracker = ShareQuorumTracker(self.config.n, self.quorum)
            self._vote_shares[key] = tracker
        tracker.add(sender, share)
        if tracker.reached:
            try:
                signature = self.crypto.combine(tracker.shares(), payload)
            except SignatureError:
                tracker.evict_invalid(
                    lambda s: self.crypto.verify_share(s, payload)
                )
                return
            qc = QC(
                block_id=message.block_id,
                round=message.round,
                view=message.view,
                signature=signature,
            )
            self._vote_shares[key] = None
            self.process_certificate(qc)

    # ------------------------------------------------------------------
    # Lock / Advance Round / Commit
    # ------------------------------------------------------------------
    def process_certificate(self, cert: AnyCert) -> None:
        """The Lock step: runs on every valid certificate we see.

        Accepts regular QCs, endorsed f-QCs, and raw f-QCs (which only act
        here once their view's coin endorses them).
        """
        normalized = endorse_if_elected(cert, self.coin_qcs)
        if normalized is None:
            return  # unendorsed f-QC: fallback-internal only
        # qc_high <- max(qc_high, qc).  Updated before Advance Round so that
        # a leader proposing "upon entering round r" extends this very QC.
        self.qc_high = max_cert(self.qc_high, normalized)
        # rank_lock update (needs the certified block's own parent for the
        # 2-chain lock; re-run later if the block is missing).
        block = self.store.get(normalized.block_id)
        if block is None:
            self._note_missing_block(normalized)
            self.safety.update_lock(effective_rank(normalized, self.coin_qcs), None)
        else:
            self.safety.update_lock(
                effective_rank(normalized, self.coin_qcs),
                parent_rank_of(block, self.coin_qcs),
            )
        # Advance Round (may trigger our proposal for the new round).  It
        # precedes Commit on purpose: the leader that forms the committing
        # QC proposes while its pool still holds the transactions about to
        # commit, so it does not hold back as idle, and its proposal carries
        # that QC to the other replicas at once.  Committing first would let
        # it wait up to half a round timeout, and the others would learn of
        # the commit only from that late proposal.
        self.advance_round(normalized.round + 1)
        # Commit.
        self.try_commit(normalized)
        # A new round may make us the leader.
        self.maybe_propose()

    def advance_round(self, new_round: int) -> None:
        """``r_cur <- max(r_cur, qc.r + 1)`` plus round-entry duties."""
        if new_round <= self.r_cur:
            return
        self.r_cur = new_round
        self.safety.stop_voting_below(new_round)
        self.observer.on_round_entered(self.process_id, new_round, self.now)
        self._prune_vote_state()
        if not self.fallback_mode:
            self._arm_round_timer()
        if self.pacemaker is not None:
            self.pacemaker.on_round_entered(new_round)
        self.maybe_propose()

    def try_commit(self, cert: AnyCert) -> None:
        target = find_commit_target(
            self.store, cert, self.coin_qcs, self.config.commit_depth
        )
        if target is None or self.ledger.is_committed(target.id):
            return
        records = self.ledger.commit_through(target, self.now)
        for record in records:
            self.mempool.mark_committed(record.block.batch)
            self.observer.on_commit(self.process_id, record, self.now)
            self._reply_to_clients(record)

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def handle_client_request(self, sender: int, message: ClientRequest) -> None:
        transaction = message.transaction
        if self.ledger.is_committed_transaction(transaction.tx_id):
            # Retransmission of something already committed: answer directly.
            position, block_id = self.ledger.commit_location(transaction.tx_id)
            self.network.send(
                self.process_id,
                sender,
                ClientReply(
                    tx_id=transaction.tx_id,
                    position=position,
                    block_id=block_id,
                    replica=self.process_id,
                ),
            )
            return
        self._tx_origin[transaction.tx_id] = sender
        self.mempool.submit(transaction)

    def _reply_to_clients(self, record: CommitRecord) -> None:
        for transaction in record.block.batch:
            origin = self._tx_origin.pop(transaction.tx_id, None)
            if origin is not None:
                self.network.send(
                    self.process_id,
                    origin,
                    ClientReply(
                        tx_id=transaction.tx_id,
                        position=record.position,
                        block_id=record.block.id,
                        replica=self.process_id,
                    ),
                )

    # ------------------------------------------------------------------
    # Round timer
    # ------------------------------------------------------------------
    def _arm_round_timer(self) -> None:
        self.set_timer(ROUND_TIMER, self.config.round_timeout)

    def after_view_change(self) -> None:
        """Duties after exiting a fallback: timers and possibly proposing."""
        if self.config.variant == ProtocolVariant.ALWAYS_FALLBACK:
            assert self.fallback is not None
            self.fallback.force_timeout()
            return
        self._arm_round_timer()
        self.maybe_propose()

    # ------------------------------------------------------------------
    # Block synchronization (catch-up)
    # ------------------------------------------------------------------
    def _note_missing_block(self, cert: AnyCert, deep: bool = False) -> None:
        """Record a certified-but-missing block and start fetching it.

        ``deep=True`` marks gaps found while walking ancestry (recovery /
        long partitions): those go straight to range sync, since more of the
        chain is almost certainly missing below them.
        """
        self._pending_certs.append(cert)
        block_id = cert.block_id
        if block_id in self._requested_blocks:
            return
        self._requested_blocks.add(block_id)
        self._sync_attempts[block_id] = (cert, 0, deep)
        self._send_block_request(cert, attempt=0, deep=deep)

    def _send_block_request(self, cert: AnyCert, attempt: int, deep: bool) -> None:
        """Ask a peer for a missing block, rotating peers across retries.

        The first attempt targets the block's likely author; later attempts
        (and the case where we *are* the author — e.g. our own pre-crash
        blocks) walk the other replicas round-robin.

        The common case — one missed proposal, parent already present — is
        served by a single-block :class:`BlockRequest`.  Deep gaps and
        retries escalate to :class:`ChainRequest` range sync: one round trip
        brings the block plus a chunk of its ancestry, so deep catch-up is
        O(chain / max_blocks) round trips.
        """
        block_id = cert.block_id
        target = (self._likely_holder(cert) + attempt) % self.config.n
        if target == self.process_id:
            target = (target + 1) % self.config.n
        if deep or attempt > 0:
            request: object = ChainRequest(block_id)
        else:
            request = BlockRequest(block_id)
        self.network.send(self.process_id, target, request)
        self.set_timer(SYNC_TIMER_PREFIX + block_id, self.config.round_timeout)

    def _retry_block_request(self, block_id: str) -> None:
        entry = self._sync_attempts.get(block_id)
        if entry is None or block_id in self.store:
            self._sync_attempts.pop(block_id, None)
            return
        cert, attempt, deep = entry
        self._sync_attempts[block_id] = (cert, attempt + 1, deep)
        self._send_block_request(cert, attempt + 1, deep)

    def _likely_holder(self, cert: AnyCert) -> int:
        """Who to ask for a missing certified block: its author."""
        if isinstance(cert, EndorsedFallbackQC):
            return cert.fqc.proposer
        if isinstance(cert, FallbackQC):
            return cert.proposer
        return self.schedule.leader(max(cert.round, 1))

    def handle_block_request(self, sender: int, message: BlockRequest) -> None:
        block = self.store.get(message.block_id)
        if block is not None:
            self.network.send(self.process_id, sender, BlockResponse(block))

    def handle_block_response(self, sender: int, message: BlockResponse) -> None:
        self._accept_synced_blocks([message.block])

    def handle_chain_request(self, sender: int, message: ChainRequest) -> None:
        head = self.store.get(message.block_id)
        if head is None:
            return
        limit = max(1, min(message.max_blocks, 128))
        blocks = [head]
        for ancestor in self.store.ancestors(head):
            if len(blocks) >= limit:
                break
            blocks.append(ancestor)
        self.network.send(self.process_id, sender, ChainResponse(blocks=tuple(blocks)))

    def handle_chain_response(self, sender: int, message: ChainResponse) -> None:
        self._accept_synced_blocks(message.blocks)

    def _accept_synced_blocks(self, blocks: Iterable[AnyBlock]) -> None:
        accepted = False
        for block in blocks:
            if isinstance(block, Block):
                if block.qc is not None and not verify_parent_cert(self.crypto, block.qc):
                    continue
            self.store.add(block)
            accepted = True
            self._sync_attempts.pop(block.id, None)
            self.cancel_timer(SYNC_TIMER_PREFIX + block.id)
        if accepted:
            self._retry_pending_certs()

    def _retry_pending_certs(self) -> None:
        if not self._pending_certs:
            return
        pending, self._pending_certs = self._pending_certs, []
        progressed = False
        for cert in pending:
            if cert.block_id in self.store:
                progressed = True
                block = self.store.require(cert.block_id)
                self.safety.update_lock(
                    effective_rank(cert, self.coin_qcs),
                    parent_rank_of(block, self.coin_qcs),
                )
                self.try_commit(cert)
                # The chain below may still be incomplete (deep catch-up):
                # chase the deepest missing link, not just the parent.
                gap_cert = self._deepest_missing_link(block)
                if gap_cert is not None:
                    self._note_missing_block(gap_cert, deep=True)
            else:
                self._pending_certs.append(cert)
        if progressed:
            # Catch-up may have just completed the chain below blocks whose
            # commit check failed earlier; re-run it from the highest cert.
            self.try_commit(self.qc_high)

    def _deepest_missing_link(self, block: AnyBlock) -> Optional[AnyCert]:
        """Walk ancestors from ``block``; return the certificate of the
        first missing ancestor, or None if the chain reaches genesis or the
        committed prefix."""
        current = block
        while True:
            if current.qc is None:
                return None  # genesis reached: chain complete
            parent = self.store.get(current.qc.block_id)
            if parent is None:
                return current.qc
            if self.ledger.is_committed(parent.id):
                return None  # connected to the committed prefix
            current = parent

    # ------------------------------------------------------------------
    # External validity (validated BFT SMR)
    # ------------------------------------------------------------------
    def batch_valid(self, batch: Batch) -> bool:
        """All transactions in the batch satisfy the validity predicate."""
        predicate = self.config.validity_predicate
        if predicate is None:
            return True
        return all(predicate(tx) for tx in batch)

    def next_valid_batch(self, parent: AnyCert) -> Batch:
        """Next mempool batch for a block extending ``parent``.

        It skips the transactions ``parent``'s uncommitted chain already
        carries (:meth:`_in_flight`), and drops externally invalid ones
        (from the batch and, permanently, from the pool).  An empty pool
        needs no walk.
        """
        if not len(self.mempool):
            return EMPTY_BATCH
        skip = self._in_flight(parent) or ()
        predicate = self.config.validity_predicate
        if predicate is None:
            return self.mempool.next_batch(skip)
        while True:
            batch = self.mempool.next_batch(skip)
            invalid = [tx for tx in batch if not predicate(tx)]
            if not invalid:
                return batch
            self.mempool.mark_committed(invalid)  # drop, never propose

    def _vote_horizon(self) -> int:
        """Votes for rounds below this are neither kept nor accepted."""
        return self.r_cur - 2

    def _prune_vote_state(self) -> None:
        """Drop vote accumulators and formed-QC marks for long-past rounds."""
        horizon = self._vote_horizon()
        stale = [key for key in self._vote_shares if key[2] < horizon]
        for key in stale:
            del self._vote_shares[key]
