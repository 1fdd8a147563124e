"""Additional Byzantine behaviours targeting the fallback path and the
message layer.

- :class:`EquivocatingFallbackProposer` equivocates *inside the fallback*:
  two different height-1 f-blocks to different halves of the cluster.  The
  per-proposer vote maps (h̄_vote[j]) must prevent both from certifying.
- :class:`LazyVoter` participates only intermittently (votes every other
  round): the protocol must stay live as long as quorums still form.
- :class:`Flooder` sprays garbage messages: replicas must ignore unknown
  message types, and the metrics layer must not bill Byzantine traffic to
  the protocol.
"""

from __future__ import annotations

from repro.core.fallback import FallbackEngine
from repro.core.replica import Replica
from repro.types.blocks import FallbackBlock
from repro.types.certificates import FallbackTC
from repro.types.messages import FallbackProposal
from repro.types.transactions import Batch, make_transaction


class _EquivocatingFallbackEngine(FallbackEngine):
    """Height-1 equivocation: different f-blocks to each half."""

    def _propose_height1(self, ftc: FallbackTC) -> None:
        replica = self.replica
        view = ftc.view
        base = dict(
            qc=replica.qc_high,
            round=replica.qc_high.round + 1,
            view=view,
            height=1,
            proposer=replica.process_id,
        )
        block_a = FallbackBlock(batch=replica.next_valid_batch(replica.qc_high), **base)
        block_b = FallbackBlock(
            batch=Batch.of([make_transaction(view, client=66, payload="fork")]),
            **base,
        )
        replica.store.add(block_a)
        replica.store.add(block_b)
        # Track one of them as "ours" so votes for it still aggregate.
        state = self._view_state(view)
        state.own_blocks[1] = block_a
        if state.max_proposed_height < 1:
            state.max_proposed_height = 1
        for receiver in replica.network.process_ids():
            chosen = block_a if receiver % 2 == 0 else block_b
            replica.network.send(
                replica.process_id, receiver, FallbackProposal(fblock=chosen, ftc=ftc)
            )


class EquivocatingFallbackProposer(Replica):
    """Byzantine replica that equivocates its fallback chain."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.fallback is not None:
            self.fallback = _EquivocatingFallbackEngine(self)


class LazyVoter(Replica):
    """Votes only for even rounds (intermittent participation)."""

    def handle_proposal(self, sender: int, message) -> None:
        if message.block.round % 2 == 1 and message.block.round > 1:
            # Track state but skip voting for odd rounds.
            block = message.block
            if block.author != sender or self.schedule.leader(block.round) != sender:
                return
            if block.qc is None:
                return
            self.store.add(block)
            self.process_certificate(block.qc)
            return
        super().handle_proposal(sender, message)


class _Garbage:
    """A type the codec does not know: replicas ignore it, and the network
    bills it the untyped default size."""


class Flooder(Replica):
    """Honest protocol participation plus a stream of garbage messages."""

    FLOOD_TIMER = "flood"

    def __init__(self, *args, flood_interval: float = 1.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.flood_interval = flood_interval

    def on_start(self) -> None:
        super().on_start()
        self.set_timer(self.FLOOD_TIMER, self.flood_interval)

    def on_timer(self, name: str) -> None:
        if name == self.FLOOD_TIMER:
            self.network.multicast(self.process_id, _Garbage(), include_self=False)
            self.set_timer(self.FLOOD_TIMER, self.flood_interval)
            return
        super().on_timer(name)
