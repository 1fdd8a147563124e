"""Tests for complexity fitting and table rendering."""

import pytest

from repro.analysis.complexity import (
    classify_complexity,
    fit_loglog_slope,
    per_decision_costs,
)
from repro.analysis.tables import fmt_cost, render_table
from repro.runtime.metrics import MetricsCollector


def test_slope_of_linear_data():
    ns = [4, 8, 16, 32]
    costs = [2 * n for n in ns]
    assert abs(fit_loglog_slope(ns, costs) - 1.0) < 1e-9


def test_slope_of_quadratic_data():
    ns = [4, 8, 16, 32]
    costs = [3 * n * n for n in ns]
    assert abs(fit_loglog_slope(ns, costs) - 2.0) < 1e-9


def test_slope_with_noise():
    ns = [4, 7, 10, 16, 31]
    costs = [2.1 * n**1.05 for n in ns]
    slope = fit_loglog_slope(ns, costs)
    assert 0.9 < slope < 1.2


def test_slope_skips_dead_points():
    slope = fit_loglog_slope([4, 8, 16], [8.0, None, 32.0])
    assert abs(slope - 1.0) < 1e-9


def test_slope_needs_two_points():
    with pytest.raises(ValueError):
        fit_loglog_slope([4], [10.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([4, 8], [None, None])


def test_classify():
    assert classify_complexity(1.05) == "linear"
    assert classify_complexity(2.1) == "quadratic"
    assert classify_complexity(3.0) == "~n^3.00"


def test_per_decision_costs_from_metrics():
    metrics = MetricsCollector(honest_ids=[0])
    costs = per_decision_costs(metrics)
    assert not costs.live
    assert costs.messages_per_decision is None

    metrics.message_counts.update({"Proposal": 5, "FallbackVote": 2})
    from tests.runtime.test_metrics import commit_record

    metrics.on_send(0, 1, "m", 0.0, 64)
    metrics.on_commit(0, commit_record(), 1.0)
    costs = per_decision_costs(metrics)
    assert costs.live
    assert costs.decisions == 1
    assert costs.steady_messages == 5
    assert costs.view_change_messages == 2


def test_render_table():
    text = render_table(
        ["protocol", "cost"],
        [["ours", 6.5], ["vaba", None]],
        title="Table 1",
    )
    assert "Table 1" in text
    assert "protocol" in text
    assert "6.50" in text
    assert "-" in text


def test_fmt_cost():
    assert fmt_cost(None) == "no decisions (not live)"
    assert fmt_cost(12.34) == "12.3"
