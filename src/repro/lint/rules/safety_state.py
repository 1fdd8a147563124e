"""Safety-state discipline: lock/vote/high-QC state has exactly one owner.

HotStuff-lineage view-change bugs live in the state-update paths: a lock
regression or an out-of-band ``r_vote`` reset is exactly how two conflicting
blocks both gather quorums (the paper's Lemma 4/5 territory, and the bug
class Jolteon/Ditto call out in their safety arguments).  This rule pins
every assignment to those fields to the modules whose invariants the
proofs were checked against.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.engine import Finding, ParsedModule, Rule, register_rule
from repro.lint.flow.persistence import SAFETY_FIELDS


@register_rule
class SafetyStateRule(Rule):
    """Safety-critical fields may only be assigned from their owner module."""

    id = "safety-state"
    description = (
        "rank_lock/r_vote/qc_high-style fields only assigned inside "
        "core/safety.py, core/replica.py, or the durable restore path"
    )
    rationale = (
        "Lemma 4/5 safety depends on the lock and vote state moving only "
        "through the monotone rules in core/safety.py (and qc_high through "
        "the replica's max_cert update); an assignment anywhere else "
        "bypasses the proof obligations."
    )

    def applies_to(self, module: ParsedModule) -> bool:
        return not module.is_test and module.module.startswith("repro")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in module.walk():
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                allowed = SAFETY_FIELDS.get(target.attr)
                if allowed is None or module.module in allowed:
                    continue
                owners = ", ".join(sorted(allowed))
                yield self.finding(
                    module,
                    node,
                    f"assignment to safety-critical field .{target.attr} "
                    f"outside its owner module(s) {owners}; route the update "
                    "through the safety API",
                )
