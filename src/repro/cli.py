"""Command-line interface: run protocols and experiments from a shell.

Examples::

    python -m repro protocols
    python -m repro run --protocol fallback-3chain --n 7 --network attack --commits 20
    python -m repro run --n 4 --byzantine 0:withhold --commits 30
    python -m repro claims            # the paper's claims E1-E12, judged
    python -m repro claims --write    # ... and refresh EXPERIMENTS.md's tables
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.safety import check_cluster_safety
from repro.analysis.tables import fmt_cost, render_table
from repro.experiments.scenarios import leader_attack_factory
from repro.faults import (
    CrashReplica,
    EquivocatingLeader,
    NonVoter,
    SilentReplica,
    StaleQCLeader,
    WithholdingLeader,
    byzantine,
)
from repro.net.conditions import (
    AsynchronousDelay,
    PartialSynchronyDelay,
    PartitionDelay,
    SynchronousDelay,
)
from repro.protocols import PROTOCOLS, preset
from repro.runtime.cluster import ClusterBuilder

BEHAVIOURS = {
    "silent": lambda arg: byzantine(SilentReplica),
    "crash": lambda arg: byzantine(CrashReplica, crash_at=float(arg or 30.0)),
    "nonvoter": lambda arg: byzantine(NonVoter),
    "withhold": lambda arg: byzantine(WithholdingLeader),
    "equivocate": lambda arg: byzantine(EquivocatingLeader),
    "staleqc": lambda arg: byzantine(StaleQCLeader),
}


def _parse_byzantine(specs: Sequence[str]):
    """Parse ``replica:behaviour[@arg]`` specs, e.g. ``2:crash@25``."""
    parsed = []
    for spec in specs:
        try:
            replica_text, behaviour_text = spec.split(":", 1)
            if "@" in behaviour_text:
                name, arg = behaviour_text.split("@", 1)
            else:
                name, arg = behaviour_text, None
            factory = BEHAVIOURS[name](arg)
        except (ValueError, KeyError):
            known = ", ".join(sorted(BEHAVIOURS))
            raise SystemExit(
                f"bad --byzantine spec {spec!r}; expected replica:behaviour[@arg] "
                f"with behaviour in {{{known}}}"
            )
        parsed.append((int(replica_text), factory))
    return parsed


def _network_args(args, builder: ClusterBuilder) -> None:
    if args.network == "sync":
        builder.with_delay_model(SynchronousDelay(delta=args.delta))
    elif args.network == "async":
        builder.with_delay_model(
            AsynchronousDelay(base_delay=args.delta, tail_scale=8 * args.delta,
                              max_delay=60 * args.delta)
        )
    elif args.network == "attack":
        builder.with_delay_model_factory(leader_attack_factory())
    elif args.network == "gst":
        builder.with_delay_model(
            PartialSynchronyDelay(
                gst=args.gst,
                before=AsynchronousDelay(base_delay=6.0, tail_scale=10.0, max_delay=35.0),
                after=SynchronousDelay(delta=args.delta),
            )
        )
    elif args.network == "partition":
        half = args.n // 2
        builder.with_delay_model(
            PartitionDelay(
                groups=[list(range(half)), list(range(half, args.n))],
                heal_time=args.heal,
                base=SynchronousDelay(delta=args.delta),
            )
        )


def cmd_protocols(args) -> int:
    rows = [
        [name, spec.description, spec.paper_sync_cost,
         "always live" if spec.paper_async_live else "not live if async"]
        for name, spec in PROTOCOLS.items()
    ]
    print(render_table(["name", "description", "sync cost", "asynchrony"], rows,
                       title="Available protocols"))
    return 0


def cmd_run(args) -> int:
    config = preset(args.protocol).config(
        args.n,
        round_timeout=args.timeout,
        **({"fallback_adoption": True} if args.adoption else {}),
    )
    builder = ClusterBuilder(config=config, seed=args.seed).with_preload(args.preload)
    _network_args(args, builder)
    for replica_id, factory in _parse_byzantine(args.byzantine):
        builder.with_byzantine(replica_id, factory)
    cluster = builder.build()
    result = cluster.run_until_commits(args.commits, until=args.until)
    metrics = cluster.metrics
    violations = check_cluster_safety(cluster.honest_replicas())
    payload = {
        "protocol": args.protocol,
        "n": args.n,
        "seed": args.seed,
        "network": args.network,
        "decisions": metrics.decisions(),
        "live": metrics.decisions() > 0,
        "simulated_time": result.stopped_at,
        "messages": metrics.honest_messages,
        "bytes": metrics.honest_bytes,
        "messages_per_decision": metrics.messages_per_decision(),
        "fallbacks": metrics.fallback_count(),
        "phases": metrics.phase_messages(),
        "safety_violations": [str(v) for v in violations],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(metrics.summary())
        print(f"simulated time: {result.stopped_at:.1f}s")
        print(f"safety: {'OK' if not violations else violations}")
    return 0 if not violations else 2


def cmd_live(args) -> int:
    """Run the protocol over real localhost TCP sockets (live mode).

    Three shapes share this subcommand:

    - default: the whole cluster in one process (threads of one event loop),
    - ``--replica I --cluster-spec S``: run exactly one replica process
      (this is what the supervisor spawns),
    - ``--processes``: spawn one OS process per replica under the
      supervisor, with optional SIGKILL chaos (``--kills``) and a client
      swarm (``--swarm``).
    """
    from repro.analysis.complexity import per_decision_costs
    from repro.runtime.live import LiveCluster

    if args.replica is not None:
        return _cmd_live_replica(args)
    if args.write_spec or args.processes:
        return _cmd_live_processes(args)

    config = preset(args.protocol).config(args.n, round_timeout=args.timeout)
    cluster = LiveCluster(
        n=args.n,
        seed=args.seed,
        preload=args.preload,
        durable=args.durable,
        config=config,
    )
    report = cluster.run(
        target_commits=args.commits,
        timeout=args.duration if args.duration is not None else 60.0,
        force_fallback=args.force_fallback,
    )
    assert cluster.metrics is not None
    costs = per_decision_costs(cluster.metrics)
    payload = {
        "mode": "live",
        "protocol": args.protocol,
        "n": args.n,
        "seed": args.seed,
        "decisions": report.decisions,
        "min_honest_height": report.min_honest_height,
        "fallbacks": report.fallbacks,
        "wall_seconds": report.wall_seconds,
        "encoded_bytes": report.encoded_bytes,
        "bytes_per_decision": costs.bytes_per_decision,
        "messages_per_decision": costs.messages_per_decision,
        "messages_dropped": report.messages_dropped,
        "ledgers_consistent": report.ledgers_consistent,
        "timed_out": report.timed_out,
        "transport": report.transport,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"decisions: {report.decisions} (min height {report.min_honest_height})")
        print(f"fallbacks entered: {report.fallbacks}")
        print(f"wall time: {report.wall_seconds:.2f}s")
        print(f"encoded bytes: {report.encoded_bytes}"
              f" ({fmt_cost(costs.bytes_per_decision)}/decision)")
        print(f"transport: {report.transport}")
        print(f"ledgers consistent: {report.ledgers_consistent}")
        if report.timed_out:
            print("TIMED OUT before reaching the commit target")
    return 0 if report.ok else 2


def _cmd_live_replica(args) -> int:
    """Run one replica as this OS process (the supervisor's spawn target)."""
    from repro.runtime.replica_process import run_replica_process
    from repro.runtime.spec import ClusterSpec

    if not args.cluster_spec:
        raise SystemExit("--replica requires --cluster-spec")
    spec = ClusterSpec.load(args.cluster_spec)
    return run_replica_process(spec, args.replica, duration=args.duration)


def _cmd_live_processes(args) -> int:
    """Supervised multi-process cluster with optional chaos and swarm."""
    import asyncio
    import tempfile

    from repro.client.swarm import ClientSwarm
    from repro.runtime.spec import ClusterSpec
    from repro.runtime.supervisor import Supervisor, kill_schedule

    data_dir = args.data_dir or tempfile.mkdtemp(prefix="repro-live-")
    spec = ClusterSpec.create(
        args.n,
        data_dir,
        seed=args.seed,
        protocol=args.protocol,
        round_timeout=args.timeout,
        preload=args.preload,
        fsync=args.fsync,
    )
    if args.write_spec:
        path = spec.save(args.write_spec)
        print(f"cluster spec written to {path}")
        return 0
    duration = args.duration if args.duration is not None else 60.0
    schedule = kill_schedule(args.kills, args.n) if args.kills else None

    async def run():
        supervisor = Supervisor(spec, schedule=schedule)
        swarm = (
            ClientSwarm(spec, clients=args.swarm, mode=args.swarm_mode)
            if args.swarm
            else None
        )
        swarm_task = None
        await supervisor.start()
        try:
            if swarm is not None:
                swarm_task = asyncio.get_running_loop().create_task(
                    swarm.run(duration=duration), name="cli-swarm"
                )
            report = await supervisor.wait(
                target_commits=args.commits, duration=duration
            )
        finally:
            if swarm_task is not None:
                swarm_task.cancel()
                await asyncio.gather(swarm_task, return_exceptions=True)
            await supervisor.stop()
        return report, (swarm.report() if swarm is not None else None)

    report, swarm_report = asyncio.run(run())
    payload = {
        "mode": "live-processes",
        "protocol": args.protocol,
        "n": args.n,
        "seed": args.seed,
        "data_dir": str(data_dir),
        **report.to_json(),
    }
    if swarm_report is not None:
        payload["swarm"] = swarm_report.to_json()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"commits (min height): {report.commits} (max {report.max_height})")
        print(f"prefixes consistent: {report.prefixes_consistent}")
        print(f"kills: {len(report.kills)}, restarts: {report.restarts}, "
              f"down: {report.down}")
        for record in report.kills:
            recovery = record.recovery_seconds
            print(f"  replica {record.replica}: killed at {record.killed_at:.2f}s, "
                  f"recovery "
                  f"{f'{recovery:.2f}s' if recovery is not None else 'incomplete'}")
        print(f"wall time: {report.wall_seconds:.2f}s")
        if swarm_report is not None:
            print(f"swarm: {swarm_report.confirmed}/{swarm_report.submitted} "
                  f"confirmed, {swarm_report.throughput_tps:.1f} tx/s, "
                  f"p50 {swarm_report.latency_p50}")
        if report.timed_out:
            print("TIMED OUT before reaching the commit target")
    return 0 if report.ok else 2


def cmd_lint(args) -> int:
    """Run the protocol-aware static analysis suite over the source tree."""
    from pathlib import Path

    import repro
    from repro.lint import (
        LintError,
        collect_modules,
        get_rules,
        lint_modules,
        render_json,
        render_text,
        rule_catalogue,
        should_fail,
    )
    from repro.lint.flow import Project

    if args.list_rules:
        for rule in rule_catalogue():
            print(f"{rule.id:<20} {rule.description}")
        return 0
    src_root = (
        Path(args.src) if args.src else Path(repro.__file__).resolve().parent.parent
    )
    try:
        modules = collect_modules(src_root)
        # Dumps replace linting; any combination is written from one project.
        dumps = [
            dump
            for dump in (
                ("graph", args.graph, "call graph",
                 [args.graph_prefix] if args.graph_prefix else []),
                ("effects", args.effects, "effect summaries", args.effects_prefix),
                ("persistence", args.persistence, "persistence summaries",
                 args.persistence_prefix),
            )
            if dump[1] is not None
        ]
        if dumps:
            project = Project(modules)
            for analysis, target, label, prefixes in dumps:
                text = project.dump(analysis, prefixes)
                if target == "-":
                    print(text, end="")
                else:
                    Path(target).write_text(text, encoding="utf-8")
                    print(f"{label} written to {target}")
            return 0
        changed_paths = None
        if args.changed:
            changed_paths = _git_changed_paths(src_root.parent)
            if not changed_paths:
                print("repro lint: no changed python files")
                return 0
        # lint_modules widens changed_paths to their call-graph
        # neighborhood, so a cross-function regression is never skipped.
        findings = lint_modules(
            modules, get_rules(args.rule or None), changed_paths=changed_paths
        )
    except LintError as exc:
        raise SystemExit(f"repro lint: {exc}")
    print(render_json(findings) if args.format == "json" else render_text(findings))
    return 1 if should_fail(findings, args.fail_on) else 0


def _git_changed_paths(repo_root) -> "set[str]":
    """Repo-relative ``*.py`` paths changed vs HEAD, plus untracked files.

    The display paths in findings are repo-relative posix paths, so the
    output of ``git diff --name-only`` matches them directly.
    """
    import subprocess

    changed: "set[str]" = set()
    for command in (
        ["git", "-C", str(repo_root), "diff", "--name-only", "HEAD"],
        ["git", "-C", str(repo_root), "ls-files", "--others", "--exclude-standard"],
    ):
        result = subprocess.run(command, capture_output=True, text=True)
        if result.returncode != 0:
            raise SystemExit(
                "repro lint: --changed needs a git checkout "
                f"({' '.join(command[3:])} failed: {result.stderr.strip()})"
            )
        changed.update(
            line.strip()
            for line in result.stdout.splitlines()
            if line.strip().endswith(".py")
        )
    return changed


def cmd_claims(args) -> int:
    """Run every paper claim (EXPERIMENTS.md rows E1-E12) and judge it."""
    from repro.experiments import claims

    verdicts = []
    for key, measure in claims.CLAIMS.items():
        verdict = measure()
        verdicts.append(verdict)
        print(f"## {key} — {verdict.title}: "
              f"{'FAILS' if verdict.failures else 'holds'}\n")
        print(verdict.markdown() + "\n")
    if args.write:
        path = claims.EXPERIMENTS_MD
        path.write_text(
            claims.splice(path.read_text(encoding="utf-8"), verdicts), encoding="utf-8"
        )
        print(f"rewrote the generated tables of {path}")
    return 1 if any(verdict.failures for verdict in verdicts) else 0


def cmd_saturate(args) -> int:
    """Find max sustainable throughput (the knee) per scenario."""
    from repro.traffic.saturation import (
        compare_batching,
        default_scenarios,
        find_knee,
    )

    scenarios = default_scenarios()
    if args.scenario != "all":
        scenarios = {args.scenario: scenarios[args.scenario]}
    report = {}
    rows = []
    for name, scenario in scenarios.items():
        result = find_knee(
            scenario,
            duration=args.duration,
            drain=args.drain,
            seed=args.seed,
            max_rate=args.max_rate,
        )
        report[name] = result.to_json()
        knee = result.knee
        rows.append([
            name,
            f"{result.knee_rate:g}",
            f"{knee.goodput:.1f}" if knee else "-",
            f"{knee.latency.p50:.2f}" if knee and knee.latency.p50 else "-",
            f"{knee.latency.p99:.2f}" if knee and knee.latency.p99 else "-",
            len(result.curve),
        ])
    print(render_table(
        ["scenario", "knee (tx/s)", "goodput", "p50 (s)", "p99 (s)", "probes"],
        rows,
        title="Saturation search (goodput >= 95% of offered)",
    ))
    if args.compare and "steady-n4" in report:
        comparison = compare_batching(
            default_scenarios()["steady-n4"],
            report["steady-n4"]["max_sustainable_rate"],
            duration=args.duration,
            drain=args.drain,
            seed=args.seed,
        )
        report["batching_comparison"] = comparison
        verdict = "matches" if comparison["adaptive_matches_best_fixed"] else "TRAILS"
        print(
            f"adaptive batching {verdict} best fixed size "
            f"(batch={comparison['best_fixed_size']}) at the knee"
        )
    if args.json:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BFT SMR with asynchronous fallback (PODC'21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("protocols", help="list available protocol presets")

    run = sub.add_parser("run", help="run one cluster and report metrics")
    run.add_argument("--protocol", default="fallback-3chain", choices=sorted(PROTOCOLS))
    run.add_argument("--n", type=int, default=4)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--network", default="sync",
                     choices=["sync", "async", "attack", "gst", "partition"])
    run.add_argument("--commits", type=int, default=30)
    run.add_argument("--until", type=float, default=50_000.0)
    run.add_argument("--timeout", type=float, default=5.0, help="round timeout")
    run.add_argument("--delta", type=float, default=1.0, help="sync delay bound")
    run.add_argument("--gst", type=float, default=300.0)
    run.add_argument("--heal", type=float, default=60.0, help="partition heal time")
    run.add_argument("--preload", type=int, default=10_000)
    run.add_argument("--adoption", action="store_true",
                     help="enable fallback chain adoption")
    run.add_argument("--byzantine", action="append", default=[],
                     metavar="ID:BEHAVIOUR[@ARG]",
                     help="e.g. 0:withhold or 2:crash@25 (repeatable)")
    run.add_argument("--json", action="store_true")

    live = sub.add_parser(
        "live", help="run the protocol over real localhost TCP sockets"
    )
    live.add_argument("--protocol", default="fallback-3chain", choices=sorted(PROTOCOLS))
    live.add_argument("--n", type=int, default=4)
    live.add_argument("--seed", type=int, default=0)
    live.add_argument("--commits", type=int, default=20,
                      help="stop once every replica committed this many blocks")
    live.add_argument("--duration", type=float, default=None,
                      help="wall-clock budget in seconds (default 60; "
                           "replica processes run until signalled)")
    live.add_argument("--timeout", type=float, default=1.0, help="round timeout (s)")
    live.add_argument("--preload", type=int, default=1000)
    live.add_argument("--force-fallback", action="store_true",
                      help="stall Proposals mid-run to force a real view change")
    live.add_argument("--durable", action="store_true",
                      help="run DurableReplica (journaled safety state)")
    live.add_argument("--processes", action="store_true",
                      help="one OS process per replica under the supervisor")
    live.add_argument("--cluster-spec", default=None, metavar="PATH",
                      help="cluster spec JSON (with --replica)")
    live.add_argument("--replica", type=int, default=None, metavar="I",
                      help="run replica I as this process (supervisor spawn)")
    live.add_argument("--data-dir", default=None, metavar="DIR",
                      help="journals/status/logs directory for --processes "
                           "(default: fresh temp dir)")
    live.add_argument("--kills", type=int, default=0,
                      help="SIGKILL/restart chaos pairs for --processes")
    live.add_argument("--swarm", type=int, default=0, metavar="C",
                      help="drive C swarm clients at the cluster (--processes)")
    live.add_argument("--swarm-mode", default="closed", choices=["closed", "open"])
    live.add_argument("--fsync", action="store_true",
                      help="fsync the safety journal on every write")
    live.add_argument("--write-spec", default=None, metavar="PATH",
                      help="write the generated cluster spec and exit")
    live.add_argument("--json", action="store_true")

    lint = sub.add_parser(
        "lint", help="protocol-aware static analysis (see docs/STATIC_ANALYSIS.md)"
    )
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument("--rule", action="append", default=[],
                      metavar="RULE-ID", help="run only these rules (repeatable)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.add_argument("--src", default=None,
                      help="source root containing the repro package "
                           "(default: auto-detected)")
    lint.add_argument("--fail-on", choices=["error", "warning"], default="error",
                      help="exit non-zero on errors only (default) or on "
                           "any finding including warnings")
    lint.add_argument("--graph", nargs="?", const="-", default=None,
                      metavar="FILE",
                      help="instead of linting, dump the interprocedural "
                           "call graph as JSON to FILE (stdout by default)")
    lint.add_argument("--graph-prefix", default=None, metavar="MODULE",
                      help="restrict --graph output to modules under this "
                           "dotted prefix (e.g. repro.core)")
    lint.add_argument("--effects", nargs="?", const="-", default=None,
                      metavar="FILE",
                      help="instead of linting, dump per-function effect "
                           "summaries (suspension points, self reads/writes, "
                           "tasks, blocking closure) as JSON to FILE "
                           "(stdout by default)")
    lint.add_argument("--effects-prefix", action="append", default=[],
                      metavar="MODULE",
                      help="restrict --effects output to modules under these "
                           "dotted prefixes (repeatable; e.g. repro.runtime)")
    lint.add_argument("--persistence", nargs="?", const="-", default=None,
                      metavar="FILE",
                      help="instead of linting, dump per-function persistence "
                           "summaries (safety-state mutations, journal ops, "
                           "file-write idioms, network sends) as JSON to FILE "
                           "(stdout by default)")
    lint.add_argument("--persistence-prefix", action="append", default=[],
                      metavar="MODULE",
                      help="restrict --persistence output to modules under "
                           "these dotted prefixes (repeatable; e.g. "
                           "repro.storage)")
    lint.add_argument("--changed", action="store_true",
                      help="lint only files changed vs git HEAD (plus "
                           "untracked files), widened to their call-graph "
                           "neighborhood so interprocedural rules still see "
                           "cross-function regressions")

    claims = sub.add_parser(
        "claims", help="run and judge the paper's claims (EXPERIMENTS.md E1-E12)"
    )
    claims.add_argument("--write", action="store_true",
                        help="also rewrite the generated tables in EXPERIMENTS.md")

    saturate = sub.add_parser(
        "saturate",
        help="binary-search max sustainable throughput per scenario",
    )
    from repro.traffic.saturation import default_scenarios as _traffic_scenarios

    saturate.add_argument(
        "--scenario",
        default="all",
        choices=["all", *sorted(_traffic_scenarios())],
    )
    saturate.add_argument("--seed", type=int, default=1)
    saturate.add_argument("--duration", type=float, default=120.0,
                          help="offered-load window per probe (sim seconds)")
    saturate.add_argument("--drain", type=float, default=60.0,
                          help="post-window drain time per probe (sim seconds)")
    saturate.add_argument("--max-rate", type=float, default=1024.0)
    saturate.add_argument("--compare", action="store_true",
                          help="also run adaptive-vs-fixed batching at the "
                               "steady-n4 knee")
    saturate.add_argument("--json", type=Path, default=None,
                          help="write the full report to this file")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "protocols":
        return cmd_protocols(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "live":
        return cmd_live(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "claims":
        return cmd_claims(args)
    if args.command == "saturate":
        return cmd_saturate(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
