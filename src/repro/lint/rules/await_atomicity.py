"""Async TOCTOU: read-check-write of shared state across a suspension.

A single-threaded event loop makes every run of code *between* awaits
atomic — and nothing else.  The live runtime leans on that constantly:
``_handle_inbound`` checks ``self._closed`` and then registers a channel,
``close()`` reads a task handle and then awaits it.  When a read of a
``self`` attribute flows into a write of the same attribute **after** an
intervening suspension point, any other task may have mutated the
attribute in between; the write then clobbers state it never saw.  On
the recovery path (crash → SIGKILL → rejoin, docs/LIVE_RUNTIME.md) that
is exactly how a restarting replica's catch-up races the supervisor's
bookkeeping.

The rule scans each async function's evaluation-ordered effect stream
(:meth:`EffectsIndex.event_stream`): a read marks the attribute *fresh*;
a resolved suspension point marks every fresh attribute *stale*; a write
to a stale attribute is a finding; a re-read after the suspension
re-validates (clears staleness).  Suspensions under a lock-shaped
``async with`` are ignored — the lock serializes the racing writer too.
Fix by re-reading after the await, swapping before suspending
(``task, self.t = self.t, None``), or holding a lock across the span.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.engine import Finding, ProjectRule, register_rule
from repro.lint.flow.project import Project
from repro.lint.rules.scopes import in_runtime_scope


@register_rule
class AwaitAtomicityRule(ProjectRule):
    """Stale self-attribute writes after a suspension point."""

    id = "await-atomicity"
    description = (
        "a self attribute read before an await and written after it, "
        "without a re-read or a held lock, races every other task"
    )
    rationale = (
        "Handler atomicity between awaits is the only mutual exclusion "
        "the live runtime has; a read-check-write spanning a suspension "
        "point silently clobbers concurrent channel/replica bookkeeping, "
        "which is how a rejoining replica's catch-up path corrupts "
        "supervisor or transport state mid-fallback."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        if not any(in_runtime_scope(module) for module in project.paths):
            return
        index = project.effects
        for qualname in index.qualnames():
            fx = index.effects(qualname)
            if fx is None or not fx.is_async or not in_runtime_scope(fx.module):
                continue
            yield from self._scan(index, qualname, project.paths[fx.module])

    def _scan(self, index, qualname: str, path: str) -> Iterator[Finding]:
        fresh: Dict[str, int] = {}  # attr -> line of the validating read
        stale: Dict[str, int] = {}  # attr -> line of the staling suspension
        reported: Set[Tuple[str, int]] = set()
        findings: List[Finding] = []
        for event in index.event_stream(qualname):
            if event.kind == "read":
                fresh[event.attr] = event.line
                stale.pop(event.attr, None)
            elif event.kind == "suspend":
                if not event.locked:
                    for attr in fresh:
                        stale[attr] = event.line
            elif event.kind == "write":
                attr = event.attr
                if attr in stale and (attr, event.line) not in reported:
                    reported.add((attr, event.line))
                    findings.append(
                        Finding(
                            path=path,
                            line=event.line,
                            col=event.col + 1,
                            rule=self.id,
                            message=(
                                f"self.{attr} read at line {fresh[attr]} is written "
                                f"here after a suspension point at line "
                                f"{stale[attr]}: another task may have changed it; "
                                "re-read after the await, swap-before-suspend, or "
                                "hold a lock across the span "
                                f"({qualname})"
                            ),
                            severity=self.severity,
                        )
                    )
                fresh[event.attr] = event.line
                stale.pop(event.attr, None)
        # The event stream visits loop bodies twice; dedup happened via
        # ``reported``, and ordering is restored by the engine's sort.
        yield from findings
