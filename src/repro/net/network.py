"""The simulated network: authenticated, adversarially delayed, optionally lossy.

Guarantees (matching the paper's model, with the default ``NoLoss``):

- **Reliability**: every message sent between registered processes is
  delivered exactly once (delay models must return finite delays).
- **Authentication**: the receiver learns the true sender id.
- **Adversarial scheduling**: per-message delays come from the configured
  :class:`~repro.net.conditions.DelayModel`.

With a :class:`~repro.net.loss.LossModel` installed, the reliability half of
the contract is *withdrawn*: messages may be dropped or duplicated, and it
becomes the job of :class:`~repro.net.reliable.ReliableNetwork` to restore
exactly-once delivery on top.  Loss composes with every delay model: the
loss model decides how many copies reach the wire, the delay model delays
each copy independently.

Self-delivery (a replica processing its own multicast) is immediate, not
counted as network traffic, and never lossy.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.net.conditions import DelayModel, SynchronousDelay
from repro.net.loss import LossModel, NoLoss
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler
from repro.wire.codec import EncodeError, encoded_size
from repro.wire.framing import FRAME_HEADER_SIZE

#: Hook signature: (sender, receiver, message, send_time, billed bytes).
SendHook = Callable[[int, int, object, float, int], None]


class Network:
    """Connects :class:`Process` instances through delay and loss models."""

    def __init__(
        self,
        scheduler: Scheduler,
        delay_model: Optional[DelayModel] = None,
        loss_model: Optional[LossModel] = None,
    ) -> None:
        self.scheduler = scheduler
        self.delay_model = delay_model or SynchronousDelay()
        self.loss_model = loss_model or NoLoss()
        self._processes: dict[int, Process] = {}
        self._multicast_group: set[int] = set()
        #: Sorted snapshot of the multicast group, rebuilt on register so the
        #: multicast hot path never re-sorts.
        self._group_sorted: tuple[int, ...] = ()
        self._hooks: list[SendHook] = []
        #: (sender, receiver, message class) -> delivery label; topologies
        #: and message vocabularies are small, so this stays bounded.
        self._label_cache: dict[tuple[int, int, type], str] = {}
        self._rng = scheduler.child_rng("network")
        self._loss_rng = scheduler.child_rng("network-loss")
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Messages the loss model removed from the wire entirely.
        self.messages_dropped = 0
        #: Extra copies the loss model injected beyond the first.
        self.duplicates_injected = 0
        #: Messages billed UNTYPED_WIRE_SIZE because the codec has no entry
        #: (a multicast counts once).
        self.untyped_messages = 0
        #: The last message billed and its size: a multicast sends one
        #: object to every receiver, so it is sized once.
        self._billed: object = None
        self._billed_size = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(self, process: Process, in_multicast_group: bool = True) -> None:
        """Attach a process.  Replicas join the multicast group; auxiliary
        processes (clients) receive only directed sends."""
        if process.process_id in self._processes:
            raise ValueError(f"process id {process.process_id} already registered")
        self._processes[process.process_id] = process
        if in_multicast_group:
            self._multicast_group.add(process.process_id)
            self._group_sorted = tuple(sorted(self._multicast_group))

    def process_ids(self) -> list[int]:
        """Multicast-group member ids (replicas), sorted."""
        return list(self._group_sorted)

    def all_process_ids(self) -> list[int]:
        return sorted(self._processes)

    def process(self, process_id: int) -> Process:
        return self._processes[process_id]

    def add_send_hook(self, hook: SendHook) -> None:
        """Register a metrics/trace hook invoked on every network send with
        the bytes the send was billed."""
        self._hooks.append(hook)

    def set_delay_model(self, model: DelayModel) -> None:
        """Swap the delay model mid-run (used for scripted degradation)."""
        self.delay_model = model

    def set_loss_model(self, model: LossModel) -> None:
        """Swap the loss model mid-run (used by the chaos schedule)."""
        self.loss_model = model

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, sender: int, receiver: int, message: object) -> None:
        """Send one message; schedules 0..k deliveries per the loss model."""
        target = self._processes.get(receiver)
        if target is None:
            raise KeyError(f"unknown receiver {receiver}")
        if receiver == sender:
            self.scheduler.call_after(
                0.0,
                partial(target.deliver, sender, message),
                label=f"self:{sender}",
            )
            return
        self._transmit(sender, receiver, message, notify=True)

    def _transmit(
        self, sender: int, receiver: int, message: object, notify: bool
    ) -> None:
        """Shared wire path: bill the send, apply loss, schedule deliveries.

        ``notify=False`` suppresses send hooks (channel-internal traffic —
        retransmissions and acks — is reported through channel hooks so the
        metrics layer can separate goodput from overhead).
        """
        now = self.scheduler.now
        delay = self.delay_model.delay(sender, receiver, message, now, self._rng)
        self._check_delay(delay)
        self.messages_sent += 1
        if message is not self._billed:
            self._billed, self._billed_size = message, billed_size(message, self)
        size = self._billed_size
        self.bytes_sent += size
        if notify:
            for hook in self._hooks:
                hook(sender, receiver, message, now, size)
        copies = self.loss_model.copies(sender, receiver, message, now, self._loss_rng)
        if copies <= 0:
            self.messages_dropped += 1
            return
        label_key = (sender, receiver, type(message))
        label = self._label_cache.get(label_key)
        if label is None:
            label = f"msg:{sender}->{receiver}:{type(message).__name__}"
            self._label_cache[label_key] = label
        self._schedule_delivery(sender, receiver, message, delay, label)
        for _ in range(copies - 1):
            extra_delay = self.delay_model.delay(
                sender, receiver, message, now, self._rng
            )
            self._check_delay(extra_delay)
            self.duplicates_injected += 1
            self._schedule_delivery(sender, receiver, message, extra_delay, label)

    def _check_delay(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(
                f"delay model {self.delay_model.describe()} returned negative delay"
            )

    def _schedule_delivery(
        self, sender: int, receiver: int, message: object, delay: float, label: str
    ) -> None:
        # partial() beats a closure here: no cell allocation per delivery,
        # and the scheduler calls it with zero arguments either way.
        self.scheduler.call_after(
            delay,
            partial(self._deliver, sender, receiver, message),
            label=label,
        )

    def _deliver(self, sender: int, receiver: int, message: object) -> None:
        """Hand an arriving message to its process.  The reliable-channel
        subclass intercepts here for dedup/ack processing."""
        self._processes[receiver].deliver(sender, message)

    def multicast(self, sender: int, message: object, include_self: bool = True) -> None:
        """Send ``message`` to every registered process (deterministic order)."""
        send = self.send
        for receiver in self._group_sorted:
            if receiver == sender and not include_self:
                continue
            send(sender, receiver, message)


#: Bytes billed for an object the codec has no entry for.
UNTYPED_WIRE_SIZE = 64


def billed_size(message: object, network: Optional[Network] = None) -> int:
    """Bytes one send of ``message`` puts on the wire.

    A protocol message costs what live mode ships for it: the stream frame
    header plus its codec encoding.  A reliable channel's frame sizes
    itself; anything else costs :data:`UNTYPED_WIRE_SIZE`, counted in
    ``network.untyped_messages`` when a network is given.
    """
    try:
        return FRAME_HEADER_SIZE + encoded_size(message)
    except EncodeError:
        pass
    channel_frame = getattr(message, "wire_size", None)
    if channel_frame is not None:
        return channel_frame()
    if network is not None:
        network.untyped_messages += 1
    return UNTYPED_WIRE_SIZE
