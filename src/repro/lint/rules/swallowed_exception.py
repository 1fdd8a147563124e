"""Swallowed exceptions: core/sim/wire may not silently eat errors.

A bare ``except:`` (or ``except Exception:``) whose body neither re-raises
nor even looks at the error turns every bug downstream of it into silence.
In this codebase the stakes are concrete: a swallowed decode error makes a
lossy-network run look like packet loss (skewing the chaos benchmarks), a
swallowed handler error makes a safety violation look like a timeout.
Catching *specific* exceptions (``SignatureError``, ``FrameError``) as
protocol outcomes is the supported pattern; catching everything and
discarding it is not.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import (
    Finding,
    ParsedModule,
    Rule,
    SEVERITY_WARNING,
    register_rule,
)

#: Handler types considered "catch everything".
BROAD_TYPES = frozenset({"Exception", "BaseException"})

SCOPE_PREFIXES = ("repro.core", "repro.sim", "repro.wire")


def _is_broad(type_node: ast.AST) -> bool:
    if type_node is None:
        return True  # bare except
    if isinstance(type_node, ast.Name):
        return type_node.id in BROAD_TYPES
    if isinstance(type_node, ast.Attribute):
        return type_node.attr in BROAD_TYPES
    if isinstance(type_node, ast.Tuple):
        return any(_is_broad(element) for element in type_node.elts)
    return False


def _discards_error(module: ParsedModule, handler: ast.ExceptHandler) -> bool:
    """True when the handler neither re-raises nor touches the exception."""
    for node in handler.body:
        for child in module.walk(node):
            if isinstance(child, ast.Raise):
                return False
            if (
                handler.name is not None
                and isinstance(child, ast.Name)
                and child.id == handler.name
            ):
                return False
    return True


@register_rule
class SwallowedExceptionRule(Rule):
    """Bare/broad except blocks that discard the error in core/sim/wire."""

    id = "swallowed-exception"
    severity = SEVERITY_WARNING
    description = (
        "bare or broad except in core/sim/wire whose body neither re-raises "
        "nor uses the caught exception"
    )
    rationale = (
        "A swallowed error downgrades a protocol bug to silence: decode "
        "failures masquerade as packet loss and handler crashes as "
        "timeouts, corrupting both the benchmarks and any safety diagnosis."
    )

    def applies_to(self, module: ParsedModule) -> bool:
        return not module.is_test and module.module.startswith(SCOPE_PREFIXES)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if _is_broad(handler.type) and _discards_error(module, handler):
                    label = (
                        "bare except"
                        if handler.type is None
                        else "broad except"
                    )
                    yield self.finding(
                        module,
                        handler,
                        f"{label} discards the error; catch the specific "
                        "exception, re-raise, or at least record it",
                    )
