"""Bandwidth-limited links: serialization delay and queueing.

The pure delay models treat messages as points; real links serialize bytes.
:class:`BandwidthDelay` wraps any latency model with per-link bandwidth:
each (sender, receiver) link transmits one message at a time at
``bytes_per_second``, so delivery time is

    max(now, link_free_at) + size / bandwidth + latency

and the link stays busy for the serialization time.  This makes *block
size* matter — the knob behind the batching ablation: bigger batches
amortize per-message latency but inflate serialization and queueing.
"""

from __future__ import annotations

from typing import Optional

from repro.net.conditions import DelayModel, SynchronousDelay
from repro.net.network import billed_size


class BandwidthDelay(DelayModel):
    """Latency + per-link serialization/queueing delay."""

    def __init__(
        self,
        bytes_per_second: float,
        latency: Optional[DelayModel] = None,
        per_link: bool = True,
    ) -> None:
        if bytes_per_second <= 0:
            raise ValueError("bandwidth must be positive")
        self.bytes_per_second = bytes_per_second
        self.latency = latency or SynchronousDelay()
        self.per_link = per_link
        #: link key -> simulated time the link becomes free.
        self._free_at: dict[object, float] = {}

    def _link_key(self, sender: int, receiver: int) -> object:
        # Per-link: each ordered pair has its own capacity (a mesh fabric).
        # Otherwise: the sender's uplink is the bottleneck (NIC model).
        return (sender, receiver) if self.per_link else sender

    def delay(self, sender, receiver, message, now, rng) -> float:
        serialization = billed_size(message) / self.bytes_per_second
        key = self._link_key(sender, receiver)
        start = max(now, self._free_at.get(key, 0.0))
        self._free_at[key] = start + serialization
        queueing = start - now
        latency = self.latency.delay(sender, receiver, message, now, rng)
        return queueing + serialization + latency

    def describe(self) -> str:
        scope = "link" if self.per_link else "uplink"
        return f"bandwidth({self.bytes_per_second:.0f}B/s per {scope})"

    def utilization_horizon(self) -> float:
        """Latest time any link is scheduled to be busy (for tests)."""
        return max(self._free_at.values(), default=0.0)
