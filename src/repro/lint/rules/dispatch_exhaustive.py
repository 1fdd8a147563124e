"""Dispatch exhaustiveness: every message type must be handled somewhere.

The replica's ``on_message`` dispatches by ``isinstance`` through the
pacemaker and fallback engines.  A message type declared in
``types/messages.py`` (and therefore encodable, billable, and sendable)
that no ``isinstance`` check along that chain ever matches is silently
dropped on receipt — the liveness-shaped failure mode: timeouts fire,
fallbacks trigger, and nothing points at the missing branch.  This rule
walks the call graph from every ``on_message`` entry point and demands
each concrete ``Message`` subclass appears in some reachable
``isinstance`` test.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.lint.engine import Finding, ParsedModule, ProjectRule, register_rule
from repro.lint.flow.project import Project

MESSAGES_MODULE = "repro.types.messages"
MESSAGE_BASE = "Message"
DISPATCH_MODULE_PREFIX = "repro.core"


def _message_classes(module: ParsedModule) -> Dict[str, ast.ClassDef]:
    """Concrete Message subclasses (transitively) in the messages module."""
    by_name: Dict[str, ast.ClassDef] = {}
    parents: Dict[str, Set[str]] = {}
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            by_name[node.name] = node
            parents[node.name] = {
                base.id for base in node.bases if isinstance(base, ast.Name)
            }

    def descends(name: str, seen: Set[str]) -> bool:
        if name in seen:
            return False
        seen.add(name)
        bases = parents.get(name, set())
        return MESSAGE_BASE in bases or any(
            descends(base, seen) for base in bases
        )

    return {
        name: node
        for name, node in by_name.items()
        if name != MESSAGE_BASE and descends(name, set())
    }


def _isinstance_names(module: ParsedModule, func: ast.AST) -> Set[str]:
    """Class names tested by ``isinstance(x, ...)`` inside one function."""
    names: Set[str] = set()
    for node in module.walk(func):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        spec = node.args[1]
        candidates = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        for candidate in candidates:
            if isinstance(candidate, ast.Name):
                names.add(candidate.id)
            elif isinstance(candidate, ast.Attribute):
                names.add(candidate.attr)
    return names


@register_rule
class DispatchExhaustiveRule(ProjectRule):
    """Every concrete Message subclass is matched by the dispatch chain."""

    id = "dispatch-exhaustive"
    description = (
        "every concrete Message subclass in types/messages.py is isinstance-"
        "matched somewhere reachable from an on_message dispatch chain"
    )
    rationale = (
        "An unmatched message type is received and silently dropped; the "
        "symptom is spurious timeouts and fallbacks, never an error naming "
        "the missing branch.  Exhaustive dispatch keeps a new message type "
        "from shipping half-wired."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        messages = next(
            (m for m in project.all_modules if m.module == MESSAGES_MODULE), None
        )
        if messages is None:
            return  # partial tree (fixture run)
        graph = project.graph
        roots = [
            qualname
            for qualname, node in graph.functions.items()
            if node.name == "on_message"
            and node.module.startswith(DISPATCH_MODULE_PREFIX)
        ]
        if not roots:
            return  # no dispatch chain in scope (fixture run)
        matched: Set[str] = set()
        for qualname in graph.reachable_from(sorted(roots)):
            function = graph.functions[qualname]
            matched |= _isinstance_names(graph.modules[function.module], function.node)
        for name, node in sorted(_message_classes(messages).items()):
            if name not in matched:
                yield self.finding(
                    messages,
                    node,
                    f"message type {name} is never isinstance-matched on "
                    "the on_message dispatch chain; it would be received "
                    "and silently dropped",
                )
