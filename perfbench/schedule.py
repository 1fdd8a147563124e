"""Due-time open-loop arrivals for the live workloads.

Every arrival has an absolute due time drawn up front from the seed.  The
driver sleeps until the next due time, computed from the schedule and the
clock each time rather than from the previous gap, so a late wake-up never
shifts the arrivals after it: when it falls behind it offers everything
already due at once and is back on schedule.  Requests are timed from their
due time, so a stall charges its wait to every request it delayed, and the
driver records how late each offer went out.
"""

from __future__ import annotations

import asyncio
import random
from typing import Awaitable, Callable


def poisson_due_times(rate: float, start: float, end: float, seed: int) -> list[float]:
    """Poisson arrival instants in ``[start, end)`` at ``rate`` per second."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(f"perfbench-arrivals:{seed}")
    due: list[float] = []
    moment = start
    while True:
        moment += rng.expovariate(rate)
        if moment >= end:
            return due
        due.append(moment)


class DueTimeDriver:
    """Offers request ``i`` at ``due_times[i]`` on ``clock``.

    ``offer(i)`` must not block.  ``lateness[i]`` is how long after its due
    time request ``i`` was offered (seconds).
    """

    def __init__(
        self,
        due_times: list[float],
        offer: Callable[[int], object],
        clock: Callable[[], float],
        sleep: Callable[[float], Awaitable[object]] = asyncio.sleep,
    ) -> None:
        self.due_times = due_times
        self.offer = offer
        self.clock = clock
        self.sleep = sleep
        self.lateness: list[float] = []

    async def run(self) -> None:
        for index, due in enumerate(self.due_times):
            wait = due - self.clock()
            if wait > 0:
                await self.sleep(wait)
            self.lateness.append(max(0.0, self.clock() - due))
            self.offer(index)
