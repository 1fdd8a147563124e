"""Quorum literals: threshold comparisons must go through the config.

The 2f+1 / f+1 arithmetic lives in exactly one place —
``ProtocolConfig.quorum_size`` and ``coin_threshold`` (and the replica's
cached ``quorum``).  A hand-rolled ``len(votes) >= 3`` or
``len(votes) >= 2 * f + 1`` scattered through core/ can silently diverge
from it (wrong n, off-by-one, stale f), which is precisely the quorum-
intersection arithmetic Lemma 7's coin election and every quorum-overlap
argument depend on.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import Finding, ParsedModule, Rule, register_rule

#: Terminal names that mark a comparison as routed through the config.
ALLOWED_THRESHOLDS = frozenset({"quorum", "quorum_size", "coin_threshold"})

#: Bare names whose appearance in threshold arithmetic marks a hand-rolled
#: 2f+1 / f+1 / n-f expression.
FAULT_PARAM_NAMES = frozenset({"f", "n", "num_faulty", "num_replicas"})


def _is_len_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
    )


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    return None


def _uses_allowed_threshold(module: ParsedModule, node: ast.AST) -> bool:
    for child in module.walk(node):
        name = _terminal_name(child)
        if name in ALLOWED_THRESHOLDS:
            return True
    return False


def _offending_threshold(module: ParsedModule, node: ast.AST) -> Optional[str]:
    """Describe why a comparator is a hand-rolled quorum, or None."""
    if _uses_allowed_threshold(module, node):
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        if node.value >= 2 and not isinstance(node.value, bool):
            return f"literal {node.value}"
        return None
    if isinstance(node, ast.BinOp):
        for child in module.walk(node):
            name = _terminal_name(child)
            if name in FAULT_PARAM_NAMES:
                return "arithmetic over f/n"
        return None
    return None


@register_rule
class QuorumLiteralRule(Rule):
    """Hand-rolled quorum thresholds in core/ protocol code."""

    id = "quorum-literal"
    description = (
        "len(...) compared against an integer literal or f/n arithmetic in "
        "core/ instead of config.quorum_size()/coin_threshold/replica.quorum"
    )
    rationale = (
        "Quorum intersection (2f+1 of n = 3f+1) and the coin-unpredictability "
        "threshold (f+1) are Lemma 7's load-bearing arithmetic; a hand-rolled "
        "literal diverges silently when n or f changes."
    )

    def applies_to(self, module: ParsedModule) -> bool:
        return not module.is_test and module.module.startswith("repro.core")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for first, second in zip(operands, operands[1:]):
                for len_side, other in ((first, second), (second, first)):
                    if not _is_len_call(len_side):
                        continue
                    why = _offending_threshold(module, other)
                    if why is not None:
                        yield self.finding(
                            module,
                            node,
                            f"quorum-style comparison against {why}; use "
                            "config.quorum_size/coin_threshold (or the "
                            "replica's cached quorum) instead",
                        )
