"""Communication-complexity analysis: per-decision costs and scaling fits.

Theorem 9 claims O(n) messages per decision under synchrony with honest
leaders and O(n²) under asynchrony.  ``fit_loglog_slope`` turns a sweep of
(n, cost) points into the empirical exponent: slope ≈ 1 means linear,
slope ≈ 2 quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.runtime.metrics import MetricsCollector


@dataclass
class DecisionCosts:
    """Per-decision communication cost extracted from one run."""

    decisions: int
    messages_per_decision: Optional[float]
    bytes_per_decision: Optional[float]
    steady_messages: int
    view_change_messages: int

    @property
    def live(self) -> bool:
        return self.decisions > 0


def per_decision_costs(metrics: MetricsCollector) -> DecisionCosts:
    phases = metrics.phase_messages()
    return DecisionCosts(
        decisions=metrics.decisions(),
        messages_per_decision=metrics.messages_per_decision(),
        bytes_per_decision=metrics.bytes_per_decision(),
        steady_messages=phases["steady"],
        view_change_messages=phases["view_change"],
    )


def live_decision_costs(metrics: MetricsCollector) -> DecisionCosts:
    """Per-decision costs from a live run, validated against real bytes.

    Live-mode metrics bill every honest send at its true codec-encoded
    frame size (``MetricsCollector.on_wire_send``), so ``honest_bytes``
    must equal ``encoded_bytes`` exactly — a divergence means some path
    still billed modeled estimates, which would silently mix the two
    accounting regimes in one figure.
    """
    if metrics.encoded_bytes != metrics.honest_bytes:
        raise ValueError(
            f"live metrics mix real and modeled bytes: encoded="
            f"{metrics.encoded_bytes} vs honest={metrics.honest_bytes}"
        )
    return per_decision_costs(metrics)


def fit_loglog_slope(ns: Sequence[int], costs: Sequence[float]) -> float:
    """Least-squares slope of log(cost) vs log(n).

    Requires at least two points with positive cost; raises ValueError
    otherwise (a protocol with zero decisions has no per-decision cost —
    report liveness separately instead of feeding it here).
    """
    points = [
        (n, cost)
        for n, cost in zip(ns, costs)
        if cost is not None and cost > 0
    ]
    if len(points) < 2:
        raise ValueError("need at least two positive-cost points to fit a slope")
    log_n = np.log([n for n, _ in points])
    log_cost = np.log([cost for _, cost in points])
    slope, _intercept = np.polyfit(log_n, log_cost, 1)
    return float(slope)


def classify_complexity(slope: float, tolerance: float = 0.35) -> str:
    """Human label for a fitted exponent: 'linear', 'quadratic', or raw."""
    if abs(slope - 1.0) <= tolerance:
        return "linear"
    if abs(slope - 2.0) <= tolerance:
        return "quadratic"
    return f"~n^{slope:.2f}"
