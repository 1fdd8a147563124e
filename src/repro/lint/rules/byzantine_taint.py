"""Byzantine taint: message data must be verified before touching safety state.

Every parameter of an ``on_message`` / ``handle_*`` entry point in
``repro.core`` is attacker-controlled until a ``verify_*`` check (or a
``may_vote_*`` safety gate) has vouched for it.  This rule runs the
field-level interprocedural dataflow in :mod:`repro.lint.flow.taint` and
flags any path on which an unsanitized message field reaches a write to
``r_vote`` / ``rank_lock`` / ``qc_high`` / ``_fallback_votes``, a
vote/lock-mutating safety call, or a ledger commit — the exact flow shape
that breaks Lemmas 4-5 and Theorem 8 if a verification gate goes missing
in a refactor.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator

from repro.lint.engine import Finding, ProjectRule, register_rule
from repro.lint.flow.persistence import SAFETY_FIELDS
from repro.lint.flow.project import Project
from repro.lint.flow.taint import TaintEngine

#: Modules whose handler entry points are treated as taint sources.
SOURCE_MODULE_PREFIX = "repro.core"


def handler_sources(graph) -> FrozenSet[str]:
    """Qualnames of the message-handler entry points (taint sources)."""
    return frozenset(
        qualname
        for qualname, node in graph.functions.items()
        if node.module.startswith(SOURCE_MODULE_PREFIX)
        and (node.name == "on_message" or node.name.startswith("handle_"))
    )


@register_rule
class ByzantineTaintRule(ProjectRule):
    """Unsanitized message data reaching safety state or the ledger."""

    id = "byzantine-taint"
    description = (
        "message-handler input must pass a verify_*/may_vote_* gate before "
        "reaching r_vote/rank_lock/qc_high/_fallback_votes or a commit"
    )
    rationale = (
        "A Byzantine peer controls every field of every message; Lemmas 4-5 "
        "and Theorem 8 hold only for certificates the validation layer has "
        "accepted.  One handler writing unverified input into the vote/lock "
        "state is enough to let two conflicting blocks gather quorums."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        graph = project.graph
        sources = handler_sources(graph)
        engine = TaintEngine(graph, frozenset(SAFETY_FIELDS), sources)
        for qualname in sorted(sources):
            handler = graph.functions[qualname]
            summary = engine.summary(qualname)
            for param in sorted(summary.param_sinks):
                for hit in summary.param_sinks[param]:
                    origins = ", ".join(sorted(hit.origins))
                    via = (
                        " via " + " -> ".join(hit.via)
                        if hit.via
                        else ""
                    )
                    yield Finding(
                        path=project.paths[handler.module],
                        line=hit.line,
                        col=hit.col + 1,
                        rule=self.id,
                        message=(
                            f"{handler.name}: unverified handler input "
                            f"({origins}) reaches {hit.sink}{via}; route it "
                            "through a verify_*/may_vote_* gate first"
                        ),
                        severity=self.severity,
                    )
