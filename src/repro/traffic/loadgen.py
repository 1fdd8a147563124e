"""Load generators: seeded arrival schedules driving a transaction sink.

All client load goes through one serving-stack-shaped pipeline::

    ArrivalSchedule -> generator -> sink(transaction)

- an :class:`ArrivalSchedule` yields deterministic inter-arrival gaps
  (uniform, Poisson, bursty, or a bursty *ramp* that sweeps the offered
  rate up over time) — all randomness comes from a ``random.Random`` seeded
  by an explicit ``(label, seed)`` pair, so a schedule is a pure function
  of its parameters;
- :class:`OpenLoopGenerator` fires transactions into the sink on that
  schedule regardless of completions (the honest way to measure latency
  under overload), via either the **simulated clock**
  (:meth:`OpenLoopGenerator.start`) or the **wall clock**
  (:meth:`OpenLoopGenerator.run_wall_clock`);
- :class:`ClosedLoopGenerator` keeps N transactions in flight and replaces
  each one as it completes (throughput tracks whatever the cluster
  sustains);
- :func:`preload` hands a fixed backlog to the sink in one go, before any
  replica starts — the only load a cluster host generates itself.

The sink is any ``Callable[[Transaction], bool]`` — typically
:meth:`repro.traffic.admission.AdmissionController.offer` — and a falsy
return means the request was shed (counted by the generator as
``rejected``).  A cluster gets any other load by building with
``with_preload(0)`` and starting a generator on its scheduler; a closed
loop also joins ``metrics.commit_listeners``.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Optional

from repro.sim.scheduler import Scheduler
from repro.types.transactions import Transaction, make_transaction

#: A transaction sink; falsy return = request shed by admission control.
Sink = Callable[[Transaction], object]

#: Builds transaction ``index`` at time ``now`` (override to control ids).
TransactionFactory = Callable[[int, float], Transaction]

#: Builds the payload of preloaded transaction ``index``.
PayloadFn = Callable[[int], str]


def kv_payload(index: int) -> str:
    """The default preload command: a KV ``set`` over 64 keys."""
    return f"set key-{index % 64} value-0-{index}"


def preload(
    sink: Sink, count: int, now: float, payload: PayloadFn = kv_payload
) -> None:
    """Hand ``count`` client-0 transactions, all submitted at ``now``, to ``sink``.

    Ids are ``tx-0-{index}`` and every transaction bills 100 payload bytes.
    Call it before any replica's ``on_start`` so the backlog is there for
    the first proposal.
    """
    for index in range(count):
        sink(make_transaction(index, payload=payload(index), submitted_at=now))


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------
class ArrivalSchedule:
    """Deterministic stream of inter-arrival gaps (seconds)."""

    __slots__ = ()

    def gaps(self) -> Iterator[float]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class UniformArrivals(ArrivalSchedule):
    """A fixed gap of ``1/rate`` — the classic open loop."""

    __slots__ = ("rate",)

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate

    def gaps(self) -> Iterator[float]:
        gap = 1.0 / self.rate
        while True:
            yield gap

    def describe(self) -> str:
        return f"uniform({self.rate:g}/s)"


class PoissonArrivals(ArrivalSchedule):
    """Exponential gaps at mean rate ``rate`` (memoryless arrivals)."""

    __slots__ = ("rate", "seed")

    def __init__(self, rate: float, seed: int = 0) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.seed = seed

    def gaps(self) -> Iterator[float]:
        rng = random.Random(("poisson-arrivals", self.seed).__repr__())
        while True:
            yield rng.expovariate(self.rate)

    def describe(self) -> str:
        return f"poisson({self.rate:g}/s, seed={self.seed})"


class BurstArrivals(ArrivalSchedule):
    """``burst_size`` back-to-back arrivals every ``period`` seconds.

    Finite when ``bursts`` is set; gap pattern (first arrival fires
    immediately): ``0 x (burst_size-1), period, 0 x (burst_size-1), ...``.
    """

    __slots__ = ("burst_size", "period", "bursts")

    def __init__(
        self, burst_size: int, period: float, bursts: Optional[int] = None
    ) -> None:
        if burst_size < 1 or period <= 0:
            raise ValueError("burst_size/period must be positive")
        if bursts is not None and bursts < 1:
            raise ValueError("bursts must be positive when bounded")
        self.burst_size = burst_size
        self.period = period
        self.bursts = bursts

    def gaps(self) -> Iterator[float]:
        done = 0
        while self.bursts is None or done < self.bursts:
            done += 1
            for _ in range(self.burst_size - 1):
                yield 0.0
            if self.bursts is not None and done >= self.bursts:
                return  # no trailing wait after the final burst
            yield self.period

    def describe(self) -> str:
        return f"burst({self.burst_size}x every {self.period:g}s)"


class BurstyRampArrivals(ArrivalSchedule):
    """Poisson arrivals whose rate ramps ``base_rate -> peak_rate``.

    Each ``period`` the instantaneous rate climbs linearly from base to
    peak and snaps back (a sawtooth) — the shape saturation searches use to
    watch a cluster cross its knee and recover.  Gaps are drawn from the
    rate at the *current* offset, so the stream stays seeded-deterministic.
    """

    __slots__ = ("base_rate", "peak_rate", "period", "seed")

    def __init__(
        self, base_rate: float, peak_rate: float, period: float, seed: int = 0
    ) -> None:
        if base_rate <= 0 or peak_rate < base_rate or period <= 0:
            raise ValueError("need 0 < base_rate <= peak_rate and period > 0")
        self.base_rate = base_rate
        self.peak_rate = peak_rate
        self.period = period
        self.seed = seed

    def rate_at(self, elapsed: float) -> float:
        phase = (elapsed % self.period) / self.period
        return self.base_rate + (self.peak_rate - self.base_rate) * phase

    def gaps(self) -> Iterator[float]:
        rng = random.Random(("bursty-ramp", self.seed).__repr__())
        elapsed = 0.0
        while True:
            gap = rng.expovariate(self.rate_at(elapsed))
            elapsed += gap
            yield gap

    def describe(self) -> str:
        return (
            f"ramp({self.base_rate:g}->{self.peak_rate:g}/s "
            f"per {self.period:g}s, seed={self.seed})"
        )


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
class _GeneratorBase:
    """Shared bookkeeping: transaction construction and submit counters."""

    __slots__ = ("sink", "client", "factory", "submitted", "rejected", "_next_index")

    def __init__(
        self,
        sink: Sink,
        client: int = 0,
        payload_size: int = 100,
        factory: Optional[TransactionFactory] = None,
    ) -> None:
        self.sink = sink
        self.client = client
        if factory is None:
            payload = payload_size

            def factory(index: int, now: float) -> Transaction:
                return make_transaction(
                    index, client=client, payload_size=payload, submitted_at=now
                )

        self.factory = factory
        #: Transactions handed to the sink, in submission order.
        self.submitted: list[Transaction] = []
        #: Submissions the sink refused (admission shed).
        self.rejected = 0
        self._next_index = 0

    def emit(self, now: float) -> Transaction:
        transaction = self.factory(self._next_index, now)
        self._next_index += 1
        self.submitted.append(transaction)
        if not self.sink(transaction):
            self.rejected += 1
        return transaction


class OpenLoopGenerator(_GeneratorBase):
    """Fire-and-forget arrivals on a schedule (sim or wall clock)."""

    __slots__ = ("schedule", "max_count", "_gaps")

    def __init__(
        self,
        schedule: ArrivalSchedule,
        sink: Sink,
        client: int = 0,
        payload_size: int = 100,
        factory: Optional[TransactionFactory] = None,
        max_count: int = 1_000_000,
    ) -> None:
        super().__init__(sink, client=client, payload_size=payload_size, factory=factory)
        self.schedule = schedule
        self.max_count = max_count
        self._gaps: Optional[Iterator[float]] = None

    # -- simulated clock -------------------------------------------------
    def start(self, scheduler: Scheduler) -> None:
        """Begin emitting on the simulated clock (first arrival fires now)."""
        self._gaps = self.schedule.gaps()
        self._tick(scheduler)

    def _tick(self, scheduler: Scheduler) -> None:
        gaps = self._gaps
        assert gaps is not None
        # Same-instant arrivals (zero gaps) collapse into one callback so a
        # burst costs one scheduler event, not burst_size of them.
        while True:
            if self._next_index >= self.max_count:
                return
            self.emit(scheduler.now)
            try:
                gap = next(gaps)
            except StopIteration:
                return
            if gap > 0.0:
                break
        scheduler.call_after(gap, lambda: self._tick(scheduler), label="loadgen")

    # -- wall clock ------------------------------------------------------
    async def run_wall_clock(
        self, duration: float, now_fn: Callable[[], float]
    ) -> None:
        """Emit on the wall clock for ``duration`` seconds.

        ``now_fn`` supplies the timestamps stamped on transactions (use the
        cluster's scheduler clock so latency math shares an origin).
        """
        import asyncio

        deadline = now_fn() + duration
        for gap in self.schedule.gaps():
            if self._next_index >= self.max_count:
                return
            self.emit(now_fn())
            if now_fn() + gap >= deadline:
                return
            if gap > 0.0:
                await asyncio.sleep(gap)


class ClosedLoopGenerator(_GeneratorBase):
    """Keep ``outstanding`` transactions in flight; refill on completion.

    Wire :meth:`notify_committed` to the cluster's commit notifications
    (``MetricsCollector.commit_listeners``); each completed transaction of
    ours triggers a replacement submission at the completion time.
    """

    __slots__ = ("outstanding", "_clock")

    def __init__(
        self,
        outstanding: int,
        sink: Sink,
        client: int = 0,
        payload_size: int = 100,
        factory: Optional[TransactionFactory] = None,
    ) -> None:
        if outstanding < 1:
            raise ValueError("outstanding must be >= 1")
        super().__init__(sink, client=client, payload_size=payload_size, factory=factory)
        self.outstanding = outstanding
        self._clock: Optional[Callable[[], float]] = None

    def start(self, scheduler: Scheduler) -> None:
        self.start_with_clock(lambda: scheduler.now)

    def start_with_clock(self, now_fn: Callable[[], float]) -> None:
        """Clock-agnostic start: fill the window at the current time."""
        self._clock = now_fn
        for _ in range(self.outstanding):
            self.emit(now_fn())

    def notify_committed(self, transaction: Transaction) -> None:
        if self._clock is None or transaction.client != self.client:
            return
        self.emit(self._clock())
