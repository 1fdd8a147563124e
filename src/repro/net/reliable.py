"""Reliable channels over a lossy transport.

The protocol layer (replicas, clients) is written against the paper's
model: reliable authenticated point-to-point links.  When a
:class:`~repro.net.loss.LossModel` makes the wire lossy, this module
restores that abstraction *below* the protocol, so replica logic stays
byte-for-byte identical:

- every application message is wrapped in a :class:`DataPacket` carrying a
  per-(sender, receiver) sequence number,
- receivers acknowledge with cumulative acks (``everything <= c`` arrived)
  plus a bounded selective list of out-of-order sequence numbers — under
  adversarial delays reordering is pervasive, and cumulative-only acks
  would retransmit spuriously,
- senders retransmit unacknowledged packets with exponential backoff and
  jitter, giving up after ``max_attempts`` (protocol-level catch-up — block
  sync and client retransmission — covers anything the channel abandons),
- receivers deduplicate with a bounded out-of-order buffer, so duplicated
  deliveries (channel retransmissions *or* transport duplicates) reach the
  process at most once.

Crash semantics: a crashed process's network stack is down with it — its
pending retransmissions stop, and packets arriving for it are neither
delivered nor acknowledged (the peer keeps retrying into the recovery
window).  Channel state itself lives in the network layer and survives
recovery, modeling a long-lived session; messages consumed before the
crash are not replayed, which is exactly the gap the protocol's journaled
safety state and certificate-driven block sync are designed to fill.

Overhead accounting: first transmissions fire the normal send hooks (the
metrics layer classifies them by payload type), while retransmissions and
acks are reported only through *channel hooks* — benchmarks can therefore
separate goodput from retransmit/ack overhead exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.net.conditions import DelayModel
from repro.net.loss import LossModel
from repro.net.network import Network, billed_size
from repro.sim.scheduler import Scheduler, Timer

#: DataPacket header: an 8-byte sequence number ahead of the framed payload.
DATA_HEADER_SIZE = 8
#: Modeled AckPacket base size: envelope (24) + 8-byte cumulative seq.
ACK_BASE_SIZE = 32
#: Each selective-ack entry costs 4 bytes on the wire.
ACK_ENTRY_SIZE = 4

#: Channel hook signature: (kind, sender, receiver, packet, time) where
#: kind is one of "retransmit", "ack", "duplicate", "abandon".
ChannelHook = Callable[[str, int, int, object, float], None]


@dataclass(frozen=True)
class DataPacket:
    """An application message framed with a per-link sequence number."""

    seq: int
    payload: object

    def wire_size(self) -> int:
        return DATA_HEADER_SIZE + billed_size(self.payload)


@dataclass(frozen=True)
class AckPacket:
    """Cumulative acknowledgment for the reverse link.

    ``cumulative`` means every sequence number <= it has been received;
    ``selective`` lists received out-of-order sequence numbers above it.
    """

    cumulative: int
    selective: tuple[int, ...] = ()

    def wire_size(self) -> int:
        return ACK_BASE_SIZE + ACK_ENTRY_SIZE * len(self.selective)


@dataclass(frozen=True)
class ChannelConfig:
    """Tuning knobs for the reliable-channel layer.

    Attributes:
        initial_rto: first retransmission timeout (simulated time).  The
            default suits the default ``SynchronousDelay(delta=1.0)``; scale
            it with the expected RTT of the configured delay model.
        backoff: multiplicative RTO growth per retransmission.
        max_rto: RTO ceiling.
        jitter: each RTO is stretched by uniform(0, jitter * rto) so
            synchronized losses don't resynchronize retransmissions.
        max_attempts: retransmissions per packet before the channel gives
            up (protocol-level sync covers abandoned packets).
        max_selective: out-of-order sequence numbers carried per ack.
        window: receiver-side out-of-order buffer bound per link; overflow
            advances the cumulative floor (counted, sacrifices exactly-once
            for the oldest gap).
        max_unacked: sender-side retransmit buffer bound per link; overflow
            abandons the oldest packet (counted).
    """

    initial_rto: float = 3.0
    backoff: float = 2.0
    max_rto: float = 30.0
    jitter: float = 0.5
    max_attempts: int = 8
    max_selective: int = 32
    window: int = 1024
    max_unacked: int = 4096

    def __post_init__(self) -> None:
        if self.initial_rto <= 0:
            raise ValueError("initial_rto must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.max_rto < self.initial_rto:
            raise ValueError("max_rto must be >= initial_rto")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.window < 1 or self.max_unacked < 1:
            raise ValueError("buffer bounds must be >= 1")

    def rto_for_attempt(self, attempt: int) -> float:
        """Backed-off RTO before jitter for the given attempt (0-based)."""
        return min(self.initial_rto * self.backoff**attempt, self.max_rto)


@dataclass
class _Pending:
    """Sender-side state for one unacknowledged packet."""

    packet: DataPacket
    attempt: int = 0
    timer: Optional[Timer] = None

    def cancel(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


@dataclass
class _SenderLink:
    """Per-(sender, receiver) outbound channel state."""

    next_seq: int = 0
    unacked: dict[int, _Pending] = field(default_factory=dict)


@dataclass
class _ReceiverState:
    """Per-(sender, receiver) inbound dedup state."""

    cumulative: int = -1
    seen: set[int] = field(default_factory=set)

    def is_duplicate(self, seq: int) -> bool:
        return seq <= self.cumulative or seq in self.seen

    def record(self, seq: int) -> None:
        self.seen.add(seq)
        while (self.cumulative + 1) in self.seen:
            self.cumulative += 1
            self.seen.discard(self.cumulative)


class ReliableNetwork(Network):
    """A :class:`Network` that runs every directed send through a reliable
    channel, restoring exactly-once delivery over a lossy transport.

    Drop-in replacement: replicas and clients keep calling ``send`` /
    ``multicast`` with raw protocol messages and keep receiving raw
    protocol messages; framing, acks, retransmission and dedup happen
    entirely inside the network layer.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        delay_model: Optional[DelayModel] = None,
        loss_model: Optional[LossModel] = None,
        channel: Optional[ChannelConfig] = None,
    ) -> None:
        super().__init__(scheduler, delay_model=delay_model, loss_model=loss_model)
        self.channel = channel or ChannelConfig()
        self._channel_rng = scheduler.child_rng("reliable-channel")
        self._out: dict[tuple[int, int], _SenderLink] = {}
        self._in: dict[tuple[int, int], _ReceiverState] = {}
        self._channel_hooks: list[ChannelHook] = []
        self.retransmissions = 0
        self.acks_sent = 0
        self.duplicates_suppressed = 0
        self.packets_abandoned = 0
        self.window_evictions = 0

    def add_channel_hook(self, hook: ChannelHook) -> None:
        """Register a hook for channel-internal events (retransmit/ack/
        duplicate/abandon) — the overhead invisible to send hooks."""
        self._channel_hooks.append(hook)

    def _emit(self, kind: str, sender: int, receiver: int, packet: object) -> None:
        for hook in self._channel_hooks:
            hook(kind, sender, receiver, packet, self.scheduler.now)

    # ------------------------------------------------------------------
    # Sending: frame, transmit, arm the retransmit timer
    # ------------------------------------------------------------------
    def send(self, sender: int, receiver: int, message: object) -> None:
        if receiver == sender or receiver not in self._processes:
            # Self-delivery stays immediate and channel-free; unknown
            # receivers raise in the base class.
            super().send(sender, receiver, message)
            return
        link = self._out.setdefault((sender, receiver), _SenderLink())
        seq = link.next_seq
        link.next_seq += 1
        packet = DataPacket(seq=seq, payload=message)
        pending = _Pending(packet=packet)
        link.unacked[seq] = pending
        if len(link.unacked) > self.channel.max_unacked:
            oldest = min(link.unacked)
            abandoned = link.unacked.pop(oldest)
            abandoned.cancel()
            self.packets_abandoned += 1
            self._emit("abandon", sender, receiver, abandoned.packet)
        self._transmit(sender, receiver, packet, notify=True)
        self._arm_retransmit(sender, receiver, pending)

    def _arm_retransmit(self, sender: int, receiver: int, pending: _Pending) -> None:
        rto = self.channel.rto_for_attempt(pending.attempt)
        rto += self._channel_rng.uniform(0.0, self.channel.jitter * rto)
        pending.timer = self.scheduler.set_timer(
            rto,
            lambda: self._retransmit(sender, receiver, pending.packet.seq),
            label=f"rto:{sender}->{receiver}:{pending.packet.seq}",
        )

    def _retransmit(self, sender: int, receiver: int, seq: int) -> None:
        link = self._out.get((sender, receiver))
        if link is None:
            return
        pending = link.unacked.get(seq)
        if pending is None:
            return  # acked in the meantime
        sender_process = self._processes.get(sender)
        if sender_process is not None and sender_process.crashed:
            # The sending host is down; its network stack is too.
            del link.unacked[seq]
            self.packets_abandoned += 1
            self._emit("abandon", sender, receiver, pending.packet)
            return
        pending.attempt += 1
        if pending.attempt > self.channel.max_attempts:
            del link.unacked[seq]
            self.packets_abandoned += 1
            self._emit("abandon", sender, receiver, pending.packet)
            return
        self.retransmissions += 1
        self._emit("retransmit", sender, receiver, pending.packet)
        self._transmit(sender, receiver, pending.packet, notify=False)
        self._arm_retransmit(sender, receiver, pending)

    # ------------------------------------------------------------------
    # Receiving: dedup, ack, unwrap
    # ------------------------------------------------------------------
    def _deliver(self, sender: int, receiver: int, message: object) -> None:
        if isinstance(message, AckPacket):
            self._handle_ack(sender, receiver, message)
        elif isinstance(message, DataPacket):
            self._handle_data(sender, receiver, message)
        else:
            super()._deliver(sender, receiver, message)

    def _handle_data(self, sender: int, receiver: int, packet: DataPacket) -> None:
        target = self._processes[receiver]
        if target.crashed:
            return  # host down: no delivery, no ack — the peer keeps retrying
        state = self._in.setdefault((sender, receiver), _ReceiverState())
        fresh = not state.is_duplicate(packet.seq)
        if fresh:
            state.record(packet.seq)
            while len(state.seen) > self.channel.window:
                # Bounded buffer: advance the floor past the oldest gap.
                state.cumulative = min(state.seen)
                state.seen.discard(state.cumulative)
                self.window_evictions += 1
        else:
            self.duplicates_suppressed += 1
            self._emit("duplicate", sender, receiver, packet)
        self._send_ack(receiver, sender, state)
        if fresh:
            target.deliver(sender, packet.payload)

    def _send_ack(self, from_id: int, to_id: int, state: _ReceiverState) -> None:
        selective = tuple(sorted(state.seen)[-self.channel.max_selective :])
        ack = AckPacket(cumulative=state.cumulative, selective=selective)
        self.acks_sent += 1
        self._emit("ack", from_id, to_id, ack)
        self._transmit(from_id, to_id, ack, notify=False)

    def _handle_ack(self, sender: int, receiver: int, ack: AckPacket) -> None:
        # The ack traveled sender -> receiver and acknowledges the data
        # link receiver -> sender.
        link = self._out.get((receiver, sender))
        if link is None:
            return
        selective = set(ack.selective)
        acked = [
            seq for seq in link.unacked if seq <= ack.cumulative or seq in selective
        ]
        for seq in acked:
            link.unacked.pop(seq).cancel()

    # ------------------------------------------------------------------
    # Introspection (tests, benchmarks)
    # ------------------------------------------------------------------
    def unacked_count(self, sender: int, receiver: int) -> int:
        link = self._out.get((sender, receiver))
        return len(link.unacked) if link else 0

    def channel_summary(self) -> str:
        return (
            f"retransmissions={self.retransmissions} acks={self.acks_sent} "
            f"duplicates_suppressed={self.duplicates_suppressed} "
            f"abandoned={self.packets_abandoned} "
            f"window_evictions={self.window_evictions}"
        )
