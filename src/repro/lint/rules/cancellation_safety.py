"""Cancellation must flow: no swallowed CancelledError, shielded finally.

``asyncio`` shutdown is a chain of ``CancelledError`` propagations: the
supervisor cancels a replica's tasks, each task unwinds through its
``finally`` blocks, and the cancellation *re-raises* out of every frame
so the canceller's ``await task`` completes.  Two patterns break the
chain:

- an ``except`` clause that catches ``CancelledError`` — naming it,
  via ``except BaseException``, or with a bare ``except:`` — and does
  not re-raise.  The task reports itself finished-normally; its
  canceller hangs or, worse, proceeds believing teardown completed
  (note ``except Exception`` is fine: ``CancelledError`` derives from
  ``BaseException`` precisely so broad handlers miss it);
- an ``await`` inside a ``finally`` block without ``asyncio.shield``.
  If the task is already being cancelled, the *first* await in the
  finally re-raises immediately and every cleanup step after it is
  silently skipped — half-closed sockets and unjoined subtasks, on the
  exact kill/restart path docs/LIVE_RUNTIME.md argues about.

Sanctioned shapes: a handler whose body (conditionally) re-raises is
correct keyed-cancellation handling; an await in a finally that is
wrapped in ``asyncio.shield`` or sits inside a nested ``try`` that
itself handles ``CancelledError`` is deliberate.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.engine import Finding, ParsedModule, Rule, register_rule
from repro.lint.flow.callgraph import _attribute_chain
from repro.lint.flow.base import iter_own_body
from repro.lint.rules.scopes import imports_asyncio, in_runtime_scope

_CANCELLED_TAILS = ("CancelledError", "BaseException")


@register_rule
class CancellationSafetyRule(Rule):
    """Swallowed CancelledError and unshielded awaits in finally."""

    id = "cancellation-safety"
    description = (
        "except clauses must re-raise CancelledError; awaits inside "
        "finally need asyncio.shield or explicit cancellation handling"
    )
    rationale = (
        "Clean SIGKILL/restart recovery depends on cancellation "
        "unwinding every frame: a handler that swallows CancelledError "
        "makes the canceller hang on await task, and an unshielded "
        "await in finally aborts the rest of the cleanup the moment "
        "cancellation lands, leaking sockets and subtasks."
    )

    def applies_to(self, module: ParsedModule) -> bool:
        if module.is_test or not in_runtime_scope(module.module):
            return False
        return imports_asyncio(module)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for function in module.walk():
            if not isinstance(function, ast.AsyncFunctionDef):
                continue
            tries = [
                item
                for item in iter_own_body(function)
                if isinstance(item, ast.Try)
            ]
            yield from self._check_handlers(module, tries)
            yield from self._check_finally_awaits(module, function, tries)

    # -- swallowed CancelledError --------------------------------------
    def _check_handlers(
        self, module: ParsedModule, tries: List[ast.Try]
    ) -> Iterator[Finding]:
        for try_node in tries:
            for handler in try_node.handlers:
                matched = _cancellation_catcher(handler.type)
                if matched is None:
                    continue
                if any(
                    isinstance(item, ast.Raise)
                    for body_item in handler.body
                    for item in module.walk(body_item)
                ):
                    continue  # (conditional) re-raise present
                yield self.finding(
                    module,
                    handler,
                    f"{matched} swallows asyncio.CancelledError: the "
                    "cancelled task reports normal completion and its "
                    "canceller's `await task` never finishes cancelling; "
                    "re-raise (optionally keyed on shutdown state)",
                )

    # -- unshielded awaits in finally ----------------------------------
    def _check_finally_awaits(
        self,
        module: ParsedModule,
        function: ast.AsyncFunctionDef,
        tries: List[ast.Try],
    ) -> Iterator[Finding]:
        guarded = _guarded_spans(tries)
        for try_node in tries:
            for statement in try_node.finalbody:
                for item in module.walk(statement):
                    if not isinstance(item, ast.Await):
                        continue
                    if _is_shielded(module, item.value):
                        continue
                    if any(
                        first <= item.lineno <= last for first, last in guarded
                    ):
                        continue
                    yield self.finding(
                        module,
                        item,
                        "await inside finally without asyncio.shield: if "
                        "this task is being cancelled, the first await "
                        "re-raises immediately and the remaining cleanup "
                        "is skipped; wrap the teardown coroutine in "
                        "asyncio.shield(...) or catch CancelledError "
                        "around it",
                    )


def _cancellation_catcher(node: Optional[ast.AST]) -> Optional[str]:
    """Human-readable description when a handler can catch cancellation."""
    if node is None:
        return "bare except"
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            matched = _cancellation_catcher(element)
            if matched is not None:
                return matched
        return None
    chain = _attribute_chain(node)
    if chain and chain[-1] in _CANCELLED_TAILS:
        return f"except {'.'.join(chain)}"
    return None


def _is_shielded(module: ParsedModule, value: ast.AST) -> bool:
    """The awaited expression runs under asyncio.shield somewhere."""
    for item in module.walk(value):
        if isinstance(item, ast.Call):
            chain = _attribute_chain(item.func)
            if chain and chain[-1] == "shield":
                return True
    return False


def _guarded_spans(tries: List[ast.Try]) -> List[Tuple[int, int]]:
    """Body spans of try statements that handle CancelledError themselves."""
    spans: List[Tuple[int, int]] = []
    for try_node in tries:
        if not any(
            _cancellation_catcher(handler.type) is not None
            for handler in try_node.handlers
        ):
            continue
        if not try_node.body:
            continue
        first = try_node.body[0].lineno
        last = getattr(try_node.body[-1], "end_lineno", None) or try_node.body[
            -1
        ].lineno
        spans.append((first, last))
    return spans
