"""Asyncio hygiene for the live runtime.

Covers every ``repro`` module that imports asyncio — today that is
`runtime/live.py`, `net/tcp.py`, the multi-process side
(`runtime/supervisor.py`, `runtime/replica_process.py`), and the client
swarm (`client/swarm.py`); new asyncio modules are picked up
automatically.

The live runtime promises handler atomicity on a single-threaded loop and
clean shutdown (every task cancelled, every socket closed, every
subprocess reaped).  The classic ways that promise rots: a fire-and-forget
``create_task`` whose handle is dropped (the task can never be awaited,
cancelled, or have its exception observed), a coroutine called without
``await`` (silently never runs), and a blocking ``time.sleep`` that stalls
every replica — or the supervisor's whole chaos schedule — sharing the
loop.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import (
    async_function_names,
    enclosing_async_spans,
    resolve_call,
)
from repro.lint.engine import Finding, ParsedModule, Rule, register_rule
from repro.lint.rules.scopes import imports_asyncio

_TASK_SPAWNERS = ("create_task", "ensure_future")


@register_rule
class AsyncioHygieneRule(Rule):
    """Untracked tasks, un-awaited coroutines, blocking sleeps."""

    id = "asyncio-hygiene"
    description = (
        "track every create_task handle, await coroutines, no time.sleep "
        "on the event loop, no deprecated get_event_loop"
    )
    rationale = (
        "Live-mode liveness and clean shutdown require every spawned task "
        "to be cancellable and every coroutine to actually run; a blocking "
        "sleep on the shared loop stalls all replicas at once, which "
        "manifests as spurious round timeouts and fallbacks."
    )

    def applies_to(self, module: ParsedModule) -> bool:
        if module.is_test or not module.module.startswith("repro"):
            return False
        return imports_asyncio(module)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        imports = module.imports
        async_names = async_function_names(module)
        async_spans = enclosing_async_spans(module)

        def inside_async(line: int) -> bool:
            return any(first <= line <= last for first, last in async_spans)

        for node in module.walk():
            if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
                continue
            call = node.value
            resolved = resolve_call(imports, call.func) or ""
            tail = resolved.rsplit(".", 1)[-1]
            if tail in _TASK_SPAWNERS:
                yield self.finding(
                    module,
                    node,
                    f"{tail}() result discarded: the task cannot be awaited, "
                    "cancelled at shutdown, or have its exception observed; "
                    "store the handle",
                )
            elif self._is_local_coroutine_call(call.func, async_names):
                yield self.finding(
                    module,
                    node,
                    f"coroutine {tail}(...) called without await: it never "
                    "runs (bare call only builds the coroutine object)",
                )

        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call(imports, node.func)
            if resolved == "time.sleep" and inside_async(node.lineno):
                yield self.finding(
                    module,
                    node,
                    "blocking time.sleep() inside an async function stalls "
                    "the whole event loop; use await asyncio.sleep",
                )
            elif resolved == "asyncio.get_event_loop":
                yield self.finding(
                    module,
                    node,
                    "asyncio.get_event_loop() is deprecated outside a "
                    "running loop and can create a second loop; use "
                    "asyncio.get_running_loop()",
                )

    @staticmethod
    def _is_local_coroutine_call(func: ast.AST, async_names: set) -> bool:
        """A bare call that builds (but never runs) a module-local coroutine.

        Only unambiguous receivers are matched — a plain name, or a
        ``self.<method>`` — so a sync ``.close()`` on some other object is
        never confused with an async method that shares the name.
        """
        if isinstance(func, ast.Name):
            return func.id in async_names
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return func.attr in async_names
        return False
