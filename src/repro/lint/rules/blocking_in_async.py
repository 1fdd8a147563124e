"""Blocking I/O transitively reachable from an async def.

The lexical asyncio-hygiene rule catches a literal ``time.sleep`` inside
an async function; it is blind to the two-hop version — an async handler
calling a sync helper that calls ``open()`` or ``os.fsync``.  Every
replica, the supervisor's chaos schedule, and the client swarm share one
event loop per process: a single blocking syscall stalls them all, which
the protocol layer observes as spurious round timeouts and needless
fallbacks — the exact failure the paper's fallback path exists to absorb,
manufactured in our own runtime.

This rule walks the effect summaries' *may-block* closure.  A finding is
reported at the closest async function to the blocking leaf (callers
further up are skipped: one root cause, one finding).  The journal's
fsync path and the status/spec snapshot helpers are **sanctioned** —
their blocking is deliberate, bounded, and documented (they are the
durability guarantee) — and listed in ``SANCTIONED_BLOCKING``; anything
else must move behind ``asyncio.to_thread``-style offload, become async,
or carry an explicit per-line pragma.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.lint.engine import Finding, ProjectRule, register_rule
from repro.lint.flow.project import Project
from repro.lint.rules.scopes import in_runtime_scope

#: Qualname prefixes whose blocking calls are deliberate durability
#: boundaries (matched with ``startswith``).  The journal *is* the
#: fsync path the recovery argument depends on; the status/spec files
#: are tiny single-write snapshots read by the supervisor.
SANCTIONED_BLOCKING = (
    "repro.storage.journal.",
    "repro.runtime.replica_process.write_status",
    "repro.runtime.replica_process.read_status",
    "repro.runtime.spec.ClusterSpec.save",
    "repro.runtime.spec.ClusterSpec.load",
)


def _sanctioned(qualname: str) -> bool:
    return any(qualname.startswith(prefix) for prefix in SANCTIONED_BLOCKING)


@register_rule
class BlockingInAsyncRule(ProjectRule):
    """Async functions that (transitively) reach blocking syscalls."""

    id = "blocking-in-async"
    description = (
        "blocking I/O (file ops, fsync, subprocess, sync sockets) "
        "reachable from an async def stalls every replica on the loop"
    )
    rationale = (
        "All replicas in live mode share an event loop per process; one "
        "blocking syscall freezes every timer and socket at once, which "
        "surfaces as spurious timeouts and fallbacks the protocol then "
        "has to survive.  Only the journal's deliberate fsync durability "
        "path (and the tiny status/spec snapshots) are exempt."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        if not any(in_runtime_scope(module) for module in project.paths):
            return
        index = project.effects
        for qualname in index.qualnames():
            fx = index.effects(qualname)
            if fx is None or not fx.is_async or not in_runtime_scope(fx.module):
                continue
            path = project.paths[fx.module]
            for line, name in sorted(set(fx.blocking_calls)):
                if name == "time.sleep":
                    continue  # asyncio-hygiene owns the lexical case
                if _sanctioned(qualname):
                    continue
                yield Finding(
                    path=path,
                    line=line,
                    col=1,
                    rule=self.id,
                    message=(
                        f"blocking {name}() inside async {qualname} stalls "
                        "the shared event loop; offload it, make the path "
                        "async, or sanction it with a pragma"
                    ),
                    severity=self.severity,
                )
            for owner, name in sorted(index.blocking_reached(qualname)):
                if owner == qualname or _sanctioned(owner):
                    continue
                chain = _call_path(index.graph, qualname, owner)
                if chain is None:
                    continue
                # Report at the closest async frame only: if any hop on
                # the way down (the leaf included) is itself async, the
                # finding belongs there, not here.
                if any(
                    getattr(index.effects(hop), "is_async", False)
                    for hop in chain[1:]
                ):
                    continue
                line = _first_edge_line(index.graph, qualname, chain[1])
                yield Finding(
                    path=path,
                    line=line or fx.lineno,
                    col=1,
                    rule=self.id,
                    message=(
                        f"async {qualname} reaches blocking {name}() in "
                        f"{owner} via {' -> '.join(chain)}; offload the "
                        "blocking step or sanction the leaf"
                    ),
                    severity=self.severity,
                )


def _call_path(graph, start: str, goal: str) -> Optional[List[str]]:
    """Shortest call-graph path from ``start`` to ``goal`` (inclusive)."""
    if start == goal:
        return [start]
    previous: Dict[str, Optional[str]] = {start: None}
    frontier = [start]
    while frontier:
        next_frontier: List[str] = []
        for current in frontier:
            node = graph.functions.get(current)
            if node is None:
                continue
            for callee in sorted(node.calls):
                if callee in previous:
                    continue
                previous[callee] = current
                if callee == goal:
                    path = [callee]
                    step: Optional[str] = current
                    while step is not None:
                        path.append(step)
                        step = previous[step]
                    return list(reversed(path))
                next_frontier.append(callee)
        frontier = next_frontier
    return None


def _first_edge_line(graph, caller: str, callee: str) -> Optional[int]:
    """Line of the first call site in ``caller`` that targets ``callee``."""
    node = graph.functions.get(caller)
    if node is None:
        return None
    lines = [
        line
        for (line, _col), target in node.call_targets.items()
        if target == callee
    ]
    return min(lines) if lines else None
