"""The paper's claims as checks: one entry per EXPERIMENTS.md row, E1–E12.

Each claim reads scenario runs, holds what they measured to a bound, and
renders the markdown table EXPERIMENTS.md shows.  The runs are memoised by
their parameters and keep only numbers, never clusters, so claims that
share a scenario run it once per process.

``python -m repro claims`` prints every claim's table and verdict
(``--write`` refreshes EXPERIMENTS.md's generated blocks), and
``tests/integration/test_claims.py`` asserts every bound in tier-1.

Bounds come from the paper's statements (Table 1, Lemma 7, Theorems 8–9,
Section 4) or from the benchmark assertion each claim replaced; none is a
measured number widened until it passes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.analysis.complexity import classify_complexity, fit_loglog_slope
from repro.analysis.safety import check_cluster_safety
from repro.analysis.stats import mean_ci, proportion_ci
from repro.analysis.tables import fmt_cost
from repro.core.config import ProtocolConfig
from repro.experiments.scenarios import (
    build_cluster,
    leader_attack_factory,
    run_async_attack,
    run_sync,
)
from repro.faults import (
    EquivocatingLeader,
    SilentReplica,
    StaleQCLeader,
    WithholdingLeader,
    byzantine,
)
from repro.net.bandwidth import BandwidthDelay
from repro.net.conditions import (
    AsynchronousDelay,
    DelayModel,
    PartialSynchronyDelay,
    SynchronousDelay,
)
from repro.protocols import PROTOCOLS
from repro.runtime.cluster import ClusterBuilder
from repro.traffic.slo import percentile
from repro.types.blocks import FallbackBlock


@dataclass(frozen=True)
class Verdict:
    """One claim's measured table and the bounds it was held to."""

    key: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    bounds: tuple[tuple[str, bool], ...]

    @property
    def failures(self) -> list[str]:
        return [label for label, holds in self.bounds if not holds]

    def markdown(self) -> str:
        lines = [
            "| " + " | ".join(self.headers) + " |",
            "|" + "---|" * len(self.headers),
            *("| " + " | ".join(str(cell) for cell in row) + " |" for row in self.rows),
            "",
            *(f"- {'holds' if ok else '**FAILS**'}: {label}"
              for label, ok in self.bounds),
        ]
        return "\n".join(lines)


#: Claim key -> function measuring it; EXPERIMENTS.md order.
CLAIMS: dict[str, Callable[..., Verdict]] = {}


def _claim(key: str) -> Callable[[Callable[..., Verdict]], Callable[..., Verdict]]:
    def register(measure: Callable[..., Verdict]) -> Callable[..., Verdict]:
        CLAIMS[key] = measure
        return measure

    return register


def _median(values: Sequence[float]) -> Optional[float]:
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else None


def _below(value: Optional[float], high: float) -> bool:
    return value is not None and value < high


def _yes(flag: bool) -> str:
    return "yes" if flag else "NO"


def _secs(value: Optional[float], digits: int = 1) -> str:
    return "-" if value is None else f"{value:.{digits}f} s"


# ----------------------------------------------------------------------
# Memoised scenario runs.  Each keeps the numbers its claims read.
# ----------------------------------------------------------------------
_sync = cache(run_sync)
_attack = cache(run_async_attack)


@cache
def _steady(n: int = 7, seed: int = 3, commits: int = 60) -> dict:
    cluster = build_cluster("fallback-3chain", n, seed=seed)
    result = cluster.run_until_commits(commits, until=20_000)
    metrics = cluster.metrics
    entries: dict[tuple[int, int], float] = {}
    for replica, round_number, time in metrics.round_entries:
        entries.setdefault((replica, round_number), time)
    latencies = metrics.commit_latencies()
    return {
        "blocks_per_s": result.decisions / result.stopped_at,
        "fallbacks": metrics.fallback_count(),
        "proposals": metrics.message_counts.get("Proposal", 0) / result.decisions,
        "votes": metrics.message_counts.get("Vote", 0) / result.decisions,
        "commit_lag": _median([
            event.time - entries[(0, event.round)]
            for event in metrics.commits_at(0)
            if (0, event.round) in entries
        ]),
        "p50": percentile(latencies, 50),
        "p99": percentile(latencies, 99),
    }


@cache
def _one_fallback(n: int = 4, seed: int = 5) -> dict:
    """Run until the first fallback has exited everywhere and a block has
    committed, drain for 120 s, anatomise the latest complete fallback
    view, then run 500 s more and count committed f-blocks."""
    cluster = build_cluster(
        "fallback-3chain", n, seed=seed, delay_factory=leader_attack_factory()
    )
    metrics = cluster.metrics
    events = metrics.fallback_events
    cluster.run(
        until=50_000,
        stop_when=lambda: metrics.fallback_count() >= 1
        and sum(1 for e in events if e.kind == "exited") >= n
        and metrics.decisions() >= 1,
    )
    cluster.run(until=cluster.scheduler.now + 120.0)
    # Earlier views' working state is pruned, so read the latest one.
    complete = {e.view for e in events if e.kind == "exited"} & {
        e.view for e in events if e.kind == "entered"
    }
    view = max(complete, default=None)
    entered = [e for e in events if e.kind == "entered" and e.view == view]
    exited = [e for e in events if e.kind == "exited" and e.view == view]
    # Chains with a top-height f-QC, at the best-informed honest replica
    # (the attack's current target lags).
    chains = 0
    for replica in cluster.honest_replicas():
        heights: dict[int, set[int]] = {}
        for fqc_view, proposer, height in replica.fallback.fqcs:
            if fqc_view == view:
                heights.setdefault(proposer, set()).add(height)
        chains = max(chains, sum(1 for h in heights.values() if h >= {1, 2, 3}))
    anatomy = {
        "view": view,
        "quorum": 2 * cluster.config.f + 1,
        "entered": len({e.replica for e in entered}),
        "chains": chains,
        "leader": exited[0].leader if exited else None,
        "duration": max(e.time for e in exited) - min(e.time for e in entered)
        if exited
        else None,
        "first_commit": min((e.time for e in metrics.commits), default=None),
        "per_fallback": metrics.phase_messages()["view_change"]
        / max(metrics.fallback_count(), 1),
    }
    cluster.run(until=cluster.scheduler.now + 500)
    longest = max(
        (r.ledger.committed_blocks() for r in cluster.honest_replicas()), key=len
    )
    anatomy["committed"] = len(longest)
    anatomy["f_blocks"] = sum(1 for b in longest if isinstance(b, FallbackBlock))
    return anatomy


@cache
def _lemma7_seed(seed: int) -> tuple[int, int]:
    """(fallback views whose endorsed chain committed, fallback views)."""
    cluster = build_cluster(
        "fallback-3chain", 4, seed=seed, delay_factory=leader_attack_factory()
    )
    cluster.run_until_commits(10, until=60_000)
    longest = max(
        (r.ledger.committed_blocks() for r in cluster.honest_replicas()), key=len
    )
    committed = {b.view for b in longest if isinstance(b, FallbackBlock)}
    views = {e.view for e in cluster.metrics.fallback_events if e.kind == "exited"}
    return len(committed & views), len(views)


@cache
def _attacked_decisions(protocol: str, seed: int = 42, until: float = 2_000) -> int:
    cluster = build_cluster(
        protocol, 4, seed=seed, delay_factory=leader_attack_factory()
    )
    cluster.run(until=until)
    return cluster.metrics.decisions()


@cache
def _fallback_exits(n: int = 7, seed: int = 9) -> dict:
    cluster = build_cluster(
        "fallback-3chain", n, seed=seed, delay_factory=leader_attack_factory()
    )
    cluster.run_until_commits(8, until=60_000)
    cluster.run(until=cluster.scheduler.now + 1_000)
    events = cluster.metrics.fallback_events
    entered = {(e.replica, e.view): e.time for e in events if e.kind == "entered"}
    exited = {(e.replica, e.view) for e in events if e.kind == "exited"}
    # The attack delays messages by 60 s, so fallbacks entered near the
    # end are legitimately in flight; anything older must have exited.
    horizon = cluster.scheduler.now - 300.0
    stuck = [k for k, t in entered.items() if k not in exited and t < horizon]
    return {"entered": len(entered), "exited": len(exited), "stuck": len(stuck)}


@cache
def _chain_sync(protocol: str, n: int = 4, seed: int = 4, commits: int = 40) -> dict:
    cluster = build_cluster(protocol, n, seed=seed)
    cluster.run_until_commits(commits, until=20_000)
    metrics = cluster.metrics
    entries: dict[int, float] = {}
    for replica, round_number, time in metrics.round_entries:
        if replica == 0:
            entries.setdefault(round_number, time)
    commits_at_0 = metrics.commits_at(0)
    # Chain depth at commit: highest round entered by then minus the
    # committed block's round.
    depths = []
    for event in commits_at_0:
        entered = [r for r, t in entries.items() if t <= event.time]
        if entered:
            depths.append(max(entered) - event.round)
    return {
        "depth": _median(depths),
        "lag": _median([
            e.time - entries[e.round] for e in commits_at_0 if e.round in entries
        ]),
        "msgs": metrics.messages_per_decision(),
    }


@cache
def _chain_attack(protocol: str, seed: int = 6) -> dict:
    cluster = build_cluster(
        protocol, 4, seed=seed, delay_factory=leader_attack_factory()
    )
    cluster.run_until_commits(5, until=50_000)
    fqcs = cluster.honest_replicas()[0].fallback.fqcs
    return {
        "height": max((height for _view, _proposer, height in fqcs), default=0),
        "top": cluster.config.fallback_top_height,
        "decisions": cluster.metrics.decisions(),
    }


class _SlowReplicaDelay(DelayModel):
    """Synchrony, plus ``extra`` seconds on every link touching ``slow``."""

    def __init__(self, slow: int, extra: float) -> None:
        self.slow = slow
        self.extra = extra
        self.base = SynchronousDelay(delta=1.0)

    def delay(self, sender, receiver, message, now, rng):
        delay = self.base.delay(sender, receiver, message, now, rng)
        return delay + self.extra if self.slow in (sender, receiver) else delay

    def describe(self) -> str:
        return f"slow({self.slow})"


@cache
def _adoption(adoption: bool, seed: int) -> dict:
    """Replica 0's links slowed by 20 s, so its rounds time out."""
    config = ProtocolConfig(n=4, fallback_adoption=adoption, round_timeout=5.0)
    cluster = (
        ClusterBuilder(config=config, seed=seed)
        .with_delay_model(_SlowReplicaDelay(slow=0, extra=20.0))
        .build()
    )
    cluster.run_until_commits(8, until=60_000)
    metrics = cluster.metrics
    entered: dict[tuple[int, int], float] = {}
    durations = []
    for event in metrics.fallback_events:
        key = (event.replica, event.view)
        if event.kind == "entered":
            entered[key] = event.time
        elif key in entered:
            durations.append(event.time - entered[key])
    return {
        "durations": tuple(durations),
        "per_fallback": metrics.phase_messages()["view_change"]
        / max(metrics.fallback_count(), 1),
        "decisions": metrics.decisions(),
    }


GST = 300.0
GST_END = 800.0


@cache
def _gst(protocol: str, seed: int) -> dict:
    """Delays of 6–35 s (round timeout 5 s) until GST, then Δ = 1 s."""
    model = PartialSynchronyDelay(
        gst=GST,
        before=AsynchronousDelay(base_delay=6.0, tail_scale=10.0, max_delay=35.0),
        after=SynchronousDelay(delta=1.0),
    )
    cluster = build_cluster(protocol, 4, seed=seed, delay_model=model)
    cluster.run(until=GST_END)
    metrics = cluster.metrics
    times = [e.time for e in metrics.commits_at(cluster.honest_ids[0])]
    settled = GST + 120.0
    post = [t for t in times if t >= GST]
    return {
        "pre": sum(1 for t in times if t < GST),
        "first_post": min(post) - GST if post else None,
        "late_fallbacks": sum(
            1
            for e in metrics.fallback_events
            if e.kind == "entered" and e.time > settled
        ),
        "late_rate": sum(1 for t in times if t > settled) / (GST_END - settled),
    }


@cache
def _timeout(round_timeout: float, seed: int = 8) -> dict:
    """Jittery synchrony: delays up to 2 s, so a round needs up to ~4 s."""
    config = ProtocolConfig(n=4, round_timeout=round_timeout)
    cluster = (
        ClusterBuilder(config=config, seed=seed)
        .with_delay_model(SynchronousDelay(delta=2.0, min_delay=0.2))
        .build()
    )
    cluster.run_until_commits(40, until=30_000)
    metrics = cluster.metrics
    return {
        "fallbacks": metrics.fallback_count(),
        "msgs": metrics.messages_per_decision(),
        "decisions": metrics.decisions(),
        "safe": not check_cluster_safety(cluster.honest_replicas()),
    }


FAULT_N = 7
FAULT_RUN_FOR = 400.0
BEHAVIOURS = {
    "silent": SilentReplica,
    "withholding": WithholdingLeader,
    "equivocating": EquivocatingLeader,
    "stale-qc": StaleQCLeader,
}


@cache
def _faults(count: int, behaviour: str, seed: int = 15) -> dict:
    builder = ClusterBuilder(n=FAULT_N, seed=seed).with_preload(10_000)
    for index in range(count):
        # Replicas 0, 3, ... spread the faults over leader windows.
        builder.with_byzantine(index * 3, byzantine(BEHAVIOURS[behaviour]))
    cluster = builder.build()
    cluster.run(until=FAULT_RUN_FOR)
    metrics = cluster.metrics
    return {
        "decisions": metrics.decisions(),
        "fallbacks": metrics.fallback_count(),
        "safe": not check_cluster_safety(cluster.honest_replicas()),
    }


BATCH_RUN_FOR = 300.0


@cache
def _batch(batch_size: int, seed: int = 17) -> dict:
    """40 kB/s per link on top of Δ = 0.5 s synchrony."""
    model = BandwidthDelay(
        bytes_per_second=40_000, latency=SynchronousDelay(delta=0.5, min_delay=0.1)
    )
    cluster = (
        ClusterBuilder(config=ProtocolConfig(n=4, batch_size=batch_size), seed=seed)
        .with_preload(50_000)
        .with_delay_model(model)
        .build()
    )
    cluster.run(until=BATCH_RUN_FOR)
    metrics = cluster.metrics
    txs = sum(event.batch_size for event in metrics.commits_at(0))
    return {
        "tx_per_s": txs / BATCH_RUN_FOR,
        "blocks": metrics.decisions(),
        "p50": percentile(metrics.commit_latencies(), 50),
        "bytes_per_tx": metrics.honest_bytes / max(txs, 1),
    }


@cache
def _clients(attack: bool, seed: int = 27, confirmations: int = 40) -> dict:
    """Two closed-loop clients, four requests outstanding each."""
    builder = (
        ClusterBuilder(n=4, seed=seed)
        .with_preload(0)
        .with_clients(2, outstanding=4, retransmit_interval=60.0)
    )
    if attack:
        builder.with_delay_model_factory(leader_attack_factory())
    cluster = builder.build()
    cluster.run(
        until=200_000,
        stop_when=lambda: cluster.total_confirmations() >= confirmations,
    )
    latencies = [
        latency
        for client in cluster.clients
        for latency in client.confirmed_latencies()
    ]
    return {
        "latencies": len(latencies),
        "confirmations": cluster.total_confirmations(),
        "p50": percentile(latencies, 50),
        "p95": percentile(latencies, 95),
        "mean": mean_ci(latencies) if latencies else None,
    }


# ----------------------------------------------------------------------
# The claims
# ----------------------------------------------------------------------
TABLE1_N = 7
TABLE1_ORDER = ("fallback-3chain", "fallback-2chain", "diembft", "always-fallback")


@_claim("E1")
def table1() -> Verdict:
    """Table 1: messages per decision and liveness, every protocol row."""
    n = TABLE1_N
    rows, bounds = [], []
    for protocol in TABLE1_ORDER:
        spec = PROTOCOLS[protocol]
        run = _sync(protocol, n, 1, 30)
        rows.append((protocol, "sync", spec.paper_sync_cost,
                     fmt_cost(run.messages_per_decision), _yes(run.live)))
        bounds.append((f"{protocol} is live under synchrony", run.live))
        if spec.paper_sync_cost == "O(n)":
            bounds.append((f"{protocol} sync msgs/decision < 4n = {4 * n}",
                           _below(run.messages_per_decision, 4 * n)))
        else:
            bounds.append((f"{protocol} sync msgs/decision > 3n = {3 * n}",
                           run.live and run.messages_per_decision > 3 * n))
    for protocol in TABLE1_ORDER:
        spec = PROTOCOLS[protocol]
        run = _attack(protocol, n, 1, 8, 20_000)
        paper = "always live" if spec.paper_async_live else "not live if async"
        rows.append((protocol, "async (leader attack)", paper,
                     fmt_cost(run.messages_per_decision), _yes(run.live)))
        if spec.paper_async_live:
            bounds.append((f"{protocol} is live under the attack", run.live))
            bounds.append((f"{protocol} async msgs/decision > n = {n}",
                           run.live and run.messages_per_decision > n))
        else:
            bounds.append((f"{protocol} is not live under the attack", not run.live))
    return Verdict(
        "E1", "Table 1",
        ("protocol", "network", "paper claim", f"msgs/decision (n={n})", "live"),
        tuple(rows), tuple(bounds),
    )


@_claim("E2")
def steady_state() -> Verdict:
    """Figure 1: the linear fast path under synchrony."""
    n = 7
    run = _steady(n)
    rows = (
        ("proposal sends/decision", f"{run['proposals']:.1f}", f"n−1 = {n - 1}"),
        ("vote sends/decision", f"{run['votes']:.1f}", f"≈ n = {n}"),
        ("fallbacks under synchrony", run["fallbacks"], "0"),
        ("commit lag after round entry (median)", _secs(run["commit_lag"], 2),
         "≈ 2 extra rounds (3-chain rule)"),
        ("throughput", f"{run['blocks_per_s']:.2f} blocks/s",
         "1 block per ~2 message delays"),
        ("tx latency p50 / p99", f"{_secs(run['p50'])} / {_secs(run['p99'])}",
         "queueing-dominated (deep backlog)"),
    )
    bounds = (
        ("no fallback under synchrony", run["fallbacks"] == 0),
        (f"proposal sends/decision ≤ n = {n}", run["proposals"] <= n),
        (f"vote sends/decision ≤ n+1 = {n + 1}", run["votes"] <= n + 1),
        ("median commit lag within 0.5–8.0 s (two extra rounds of ≤ 1 s delays)",
         run["commit_lag"] is not None and 0.5 <= run["commit_lag"] <= 8.0),
        ("tx latency p50 > 0", (run["p50"] or 0.0) > 0),
    )
    return Verdict("E2", "Figure 1 — steady state",
                   (f"metric (n={n}, sync)", "measured", "expectation"), rows, bounds)


@_claim("E3")
def fallback_anatomy() -> Verdict:
    """Figure 3: one asynchronous fallback, stage by stage."""
    n = 4
    run = _one_fallback(n)
    rows = (
        (f"replicas entering the fallback (view {run['view']})", run["entered"],
         "all n"),
        ("f-chains completing height 3", run["chains"], f"≥ 2f+1 = {run['quorum']}"),
        ("coin-elected leader", run["leader"], "uniform over n"),
        ("fallback duration", _secs(run["duration"]), "O(1) delays once timeouts fire"),
        ("first committed block", f"t = {_secs(run['first_commit'])}",
         "endorsed height-1 f-block w.p. ≥ 2/3"),
        ("view-change messages per fallback", f"{run['per_fallback']:.0f}",
         f"Θ(n²), n² = {n * n}"),
        ("committed f-blocks in the longest log, 500 s later", run["f_blocks"],
         "endorsed chains reach the ledger"),
    )
    bounds = (
        ("a fallback view completed", run["view"] is not None),
        (f"f-chains completing height 3 ≥ 2f+1 = {run['quorum']}",
         run["chains"] >= run["quorum"]),
        (f"view-change messages per fallback within n²/2–20n² "
         f"= {n * n // 2}–{20 * n * n}",
         n * n * 0.5 <= run["per_fallback"] <= n * n * 20),
        ("the longest honest log is not empty", run["committed"] > 0),
    )
    return Verdict("E3", "Figure 3 — fallback anatomy",
                   (f"stage (n={n})", "measured", "paper (Figure 3)"), rows, bounds)


LEMMA7_SEEDS = tuple(range(8))


@_claim("E4")
def liveness() -> Verdict:
    """Lemma 7 / Theorem 8: fallbacks commit w.p. ≥ 2/3 and always exit."""
    committed = sum(_lemma7_seed(seed)[0] for seed in LEMMA7_SEEDS)
    total = sum(_lemma7_seed(seed)[1] for seed in LEMMA7_SEEDS)
    estimate = proportion_ci(committed, total)
    ours = _attacked_decisions("fallback-3chain")
    diem = _attacked_decisions("diembft")
    exits = _fallback_exits()
    rows = (
        (f"fraction of fallback views committing a block "
         f"({total} fallbacks, {len(LEMMA7_SEEDS)} seeds, n=4)",
         f"{estimate.mean:.2f} "
         f"(Wilson 95% CI [{estimate.low:.2f}, {estimate.high:.2f}])",
         "≥ 2/3 in expectation"),
        ("ours: decisions during 2000 s of leader-targeting attack", ours,
         "keeps committing"),
        ("DiemBFT: decisions during the same attack", diem, "not live"),
        ("entered fallbacks that exit (n=7)", f"{exits['exited']}/{exits['entered']}",
         "all terminate"),
    )
    bounds = (
        ("at least 20 fallback views observed", total >= 20),
        ("Wilson upper bound ≥ 2/3", estimate.high >= 2 / 3),
        ("commit fraction ≥ 0.45", estimate.mean >= 0.45),
        ("ours commits under the attack", ours > 0),
        ("DiemBFT commits nothing under the attack", diem == 0),
        ("no replica stuck in a fallback entered more than 300 s before the end",
         exits["stuck"] == 0),
    )
    return Verdict("E4", "Lemma 7 / Theorem 8 — liveness",
                   ("experiment", "measured", "paper claim"), rows, bounds)


THEOREM9_SIZES = (4, 7, 10, 16, 31)


@_claim("E5")
def scaling(sizes: Sequence[int] = THEOREM9_SIZES) -> Verdict:
    """Theorem 9: O(n) messages per decision in sync, O(n²) under attack."""
    sync = [_sync("fallback-3chain", n, 2, 30) for n in sizes]
    attack = [_attack("fallback-3chain", n, 2, 8, 50_000) for n in sizes]
    msgs = fit_loglog_slope(sizes, [r.messages_per_decision for r in sync])
    nbytes = fit_loglog_slope(sizes, [r.bytes_per_decision for r in sync])
    amsgs = fit_loglog_slope(sizes, [r.messages_per_decision for r in attack])
    rows = [
        (n, fmt_cost(s.messages_per_decision), f"{s.bytes_per_decision:.0f}",
         fmt_cost(a.messages_per_decision))
        for n, s, a in zip(sizes, sync, attack)
    ]
    rows.append(("log-log slope",
                 *(f"{slope:.2f} ({classify_complexity(slope)})"
                   for slope in (msgs, nbytes, amsgs))))
    bounds = (
        ("live under the attack at every n", all(r.live for r in attack)),
        ("sync msgs/decision slope within 0.7–1.3 (O(n))", 0.7 <= msgs <= 1.3),
        ("async msgs/decision slope within 1.6–2.4 (O(n²))", 1.6 <= amsgs <= 2.4),
        ("sync bytes/decision slope ≤ 1.4 (constant-size certificates)",
         nbytes <= 1.4),
    )
    return Verdict("E5", "Theorem 9 — scaling",
                   ("n", "sync msgs/decision", "sync bytes/decision",
                    "async msgs/decision"), tuple(rows), bounds)


@_claim("E6")
def two_chain() -> Verdict:
    """Section 4: the 2-chain variant commits one round sooner for free."""
    three, two = _chain_sync("fallback-3chain"), _chain_sync("fallback-2chain")
    three_a, two_a = _chain_attack("fallback-3chain"), _chain_attack("fallback-2chain")
    rows = (
        ("chain depth at commit (rounds)", three["depth"], two["depth"],
         "commit rule depth 3 → 2"),
        ("commit lag after round entry", _secs(three["lag"], 2), _secs(two["lag"], 2),
         "6 rounds → 4 rounds"),
        ("max f-chain height under attack", three_a["height"], two_a["height"],
         "one fewer certified hop per f-chain"),
        ("sync msgs/decision", f"{three['msgs']:.1f}", f"{two['msgs']:.1f}",
         "without sacrificing anything else"),
    )
    bounds = (
        ("commit depth 3 → 2", (three["depth"], two["depth"]) == (3, 2)),
        ("2-chain commit lag < 3-chain commit lag", two["lag"] < three["lag"]),
        ("f-chain height 3 → 2, each its variant's top height",
         (three_a["height"], two_a["height"]) == (3, 2)
         and all(r["height"] == r["top"] for r in (three_a, two_a))),
        ("both variants commit ≥ 5 blocks under attack",
         min(three_a["decisions"], two_a["decisions"]) >= 5),
        ("sync msgs/decision within 25% of each other",
         abs(three["msgs"] - two["msgs"]) / three["msgs"] < 0.25),
    )
    return Verdict("E6", "Section 4 — 2-chain commit",
                   ("metric (n=4)", "3-chain", "2-chain", "paper (Section 4)"),
                   rows, bounds)


ADOPTION_SEEDS = (7, 8, 9)


@_claim("E7")
def adoption() -> Verdict:
    """Ablation of chain adoption ("Optimization in Practice")."""
    rows, bounds, means = [], [], {}
    for flag in (False, True):
        runs = [_adoption(flag, seed) for seed in ADOPTION_SEEDS]
        first = runs[0]
        durations = [d for run in runs for d in run["durations"]]
        means[flag] = sum(durations) / len(durations) if durations else float("nan")
        label = "on" if flag else "off"
        own = first["durations"]
        rows.append((
            f"adoption {label}",
            f"{sum(own) / len(own):.1f} s" if own else "-",
            f"{means[flag]:.1f} s",
            f"{first['per_fallback']:.0f}",
            first["decisions"],
        ))
        bounds.append((f"adoption {label}: ≥ 8 decisions with fallbacks "
                       f"(seed {ADOPTION_SEEDS[0]})",
                       first["decisions"] >= 8 and bool(own)))
    bounds.append(("mean fallback duration with adoption ≤ 1.25 × without",
                   means[True] <= means[False] * 1.25))
    return Verdict(
        "E7", "Chain-adoption ablation",
        ("config", f"mean fallback duration, seed {ADOPTION_SEEDS[0]}",
         f"mean over seeds {ADOPTION_SEEDS[0]}–{ADOPTION_SEEDS[-1]}",
         f"view-change msgs/fallback, seed {ADOPTION_SEEDS[0]}",
         f"decisions, seed {ADOPTION_SEEDS[0]}"),
        tuple(rows), tuple(bounds),
    )


@_claim("E8")
def partial_synchrony() -> Verdict:
    """Across GST: ours commits before it and returns to the fast path."""
    cases = (("fallback-3chain", 3), ("diembft", 3), ("fallback-3chain", 5))
    runs = {case: _gst(*case) for case in cases}
    rows = tuple(
        (f"{protocol} (seed {seed})", run["pre"],
         f"+{run['first_post']:.1f} s" if run["first_post"] is not None else "-",
         run["late_fallbacks"], f"{run['late_rate']:.2f}")
        for (protocol, seed), run in runs.items()
    )
    ours, _diem, resumed = runs.values()
    bounds = (
        ("fallback-3chain commits before GST", ours["pre"] > 0),
        ("both protocols commit after GST",
         all(runs[case]["first_post"] is not None for case in cases[:2])),
        ("no fallback entered after GST+120 s (seed 5)",
         resumed["late_fallbacks"] == 0),
        ("throughput after GST+120 s > 0.1 blocks/s (seed 5)",
         resumed["late_rate"] > 0.1),
    )
    return Verdict(
        "E8", "Partial synchrony / GST",
        ("protocol", "commits before GST", "first commit after GST",
         "fallbacks entered after GST+120 s", "blocks/s after GST+120 s"),
        rows, bounds,
    )


TIMEOUTS = (2.0, 5.0, 15.0)


@_claim("E9")
def round_timeout() -> Verdict:
    """Round-timeout ablation: a tight timeout costs fallbacks, not safety."""
    runs = {t: _timeout(t) for t in TIMEOUTS}
    rows = tuple(
        (f"{t:g} s", run["fallbacks"], f"{run['msgs']:.1f}", run["decisions"],
         _yes(run["safe"]))
        for t, run in runs.items()
    )
    tight, generous = runs[TIMEOUTS[0]], runs[TIMEOUTS[-1]]
    bounds = (
        ("≥ 40 decisions and no safety violation at every timeout",
         all(run["decisions"] >= 40 and run["safe"] for run in runs.values())),
        ("15 s timeout: no spurious fallback", generous["fallbacks"] == 0),
        ("2 s timeout: at least one spurious fallback", tight["fallbacks"] >= 1),
        ("2 s timeout costs more msgs/decision than 15 s",
         tight["msgs"] > generous["msgs"]),
    )
    return Verdict("E9", "Round-timeout ablation",
                   ("round timeout", "spurious fallbacks", "msgs/decision",
                    "decisions", "safe"), rows, bounds)


FAULT_CASES = ((0, "silent"), (1, "silent"), (2, "silent"), (2, "withholding"),
               (2, "equivocating"), (2, "stale-qc"))


@_claim("E10")
def byzantine_faults() -> Verdict:
    """Throughput under up to f Byzantine replicas: degraded, never stopped."""
    runs = {case: _faults(*case) for case in FAULT_CASES}
    rows = tuple(
        (count, behaviour if count else "—",
         f"{run['decisions'] / FAULT_RUN_FOR:.2f}", run["fallbacks"], _yes(run["safe"]))
        for (count, behaviour), run in runs.items()
    )
    bounds = tuple(
        (f"{count} {behaviour}: commits and stays safe",
         run["decisions"] > 0 and run["safe"])
        for (count, behaviour), run in runs.items()
    )
    return Verdict("E10", "Byzantine faults",
                   ("faults", "behaviour", "decisions/s", "fallbacks", "safe"),
                   rows, bounds)


BATCH_SIZES = (1, 10, 50)


@_claim("E11")
def batching() -> Verdict:
    """Batch-size ablation on bandwidth-limited links."""
    runs = {size: _batch(size) for size in BATCH_SIZES}
    rows = tuple(
        (size, f"{run['tx_per_s']:.1f}", run["blocks"],
         _secs(run["p50"]), f"{run['bytes_per_tx']:.0f}")
        for size, run in runs.items()
    )
    bounds = (
        ("every batch size commits", all(run["blocks"] > 0 for run in runs.values())),
        ("batch 50 carries > 2× the tx/s of batch 1",
         runs[50]["tx_per_s"] > 2 * runs[1]["tx_per_s"]),
    )
    return Verdict("E11", "Batch-size ablation",
                   ("batch", "tx/s", "blocks", "p50 tx latency", "bytes/tx"),
                   rows, bounds)


@_claim("E12")
def client_latency() -> Verdict:
    """Client-observed confirmation latency at f+1 matching replies."""
    runs = {"sync": _clients(False), "async (leader attack)": _clients(True)}
    rows = tuple(
        (network, run["latencies"], _secs(run["p50"]), _secs(run["p95"]),
         f"{_secs(run['mean'].mean)} [{run['mean'].low:.1f}, {run['mean'].high:.1f}]"
         if run["mean"] else "-")
        for network, run in runs.items()
    )
    bounds = (
        ("≥ 40 confirmations in both regimes",
         all(run["latencies"] >= 40 and run["confirmations"] >= 40
             for run in runs.values())),
        ("sync p50 < 30 s", _below(runs["sync"]["p50"], 30.0)),
    )
    return Verdict("E12", "Client confirmation latency",
                   ("network", "confirmations", "p50", "p95", "mean [95% CI]"),
                   rows, bounds)


# ----------------------------------------------------------------------
# EXPERIMENTS.md's generated blocks
# ----------------------------------------------------------------------
EXPERIMENTS_MD = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"
_BLOCK = re.compile(
    r"(<!-- claim (E\d+): generated by `repro claims --write` -->\n)"
    r"(.*?)(<!-- /claim \2 -->)",
    re.S,
)


def splice(document: str, verdicts: Sequence[Verdict]) -> str:
    """``document`` with each claim's generated block replaced by its fresh
    render; the hand-written prose around the blocks is kept verbatim."""
    rendered = {verdict.key: verdict.markdown() for verdict in verdicts}
    missing = sorted(set(rendered) - set(m.group(2) for m in _BLOCK.finditer(document)))
    if missing:
        raise ValueError(f"no generated block for {', '.join(missing)}")
    return _BLOCK.sub(
        lambda m: m.group(1) + rendered[m.group(2)] + "\n" + m.group(4)
        if m.group(2) in rendered
        else m.group(0),
        document,
    )
