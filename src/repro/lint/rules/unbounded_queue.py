"""Bounded queues only: backpressure is a correctness feature here.

The transport's send queues are the live runtime's backpressure
mechanism — when a peer stalls, producers must feel it (``QueueFull``
shed accounting) instead of buffering without limit until the process
OOMs mid-fallback, which the rest of the cluster observes as a crash.
Three shapes defeat that:

- ``asyncio.Queue()`` (or Lifo/Priority variants) with no ``maxsize``,
- ``collections.deque()`` with no ``maxlen`` in runtime modules,
- ``put_nowait(...)`` with no enclosing ``QueueFull`` handler — the one
  call shape whose overflow signal is an exception, not an await.

A deliberate unbounded buffer (rare, and it should be rare) carries a
per-line pragma with a comment saying why the producer can't outrun the
consumer.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.lint.astutil import resolve_call
from repro.lint.engine import Finding, ParsedModule, Rule, register_rule
from repro.lint.flow.callgraph import _attribute_chain
from repro.lint.rules.scopes import in_runtime_scope

_UNBOUNDED_QUEUES = {
    "asyncio.Queue": "maxsize",
    "asyncio.LifoQueue": "maxsize",
    "asyncio.PriorityQueue": "maxsize",
    "collections.deque": "maxlen",
    "queue.Queue": "maxsize",
    "queue.SimpleQueue": None,
}
_FULL_TAILS = ("QueueFull", "Full")


@register_rule
class UnboundedQueueRule(Rule):
    """Unbounded queues/deques and unhandled put_nowait overflow."""

    id = "unbounded-queue"
    description = (
        "asyncio.Queue/deque in runtime scopes need maxsize/maxlen, and "
        "put_nowait needs QueueFull handling"
    )
    rationale = (
        "Bounded send queues are how a stalled peer's backpressure "
        "reaches producers as measurable shed instead of unbounded "
        "buffering; an unbounded queue turns sustained asynchrony into "
        "memory growth and an eventual crash that looks Byzantine to "
        "the rest of the cluster."
    )

    def applies_to(self, module: ParsedModule) -> bool:
        return not module.is_test and in_runtime_scope(module.module)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        imports = module.imports
        handled = _queue_full_spans(module)
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call(imports, node.func) or ""
            if resolved in _UNBOUNDED_QUEUES:
                bound = _UNBOUNDED_QUEUES[resolved]
                if bound is None:
                    yield self.finding(
                        module,
                        node,
                        f"{resolved} cannot be bounded; use a bounded "
                        "queue so backpressure reaches producers",
                    )
                elif not _has_bound(node, resolved, bound):
                    yield self.finding(
                        module,
                        node,
                        f"{resolved}() without {bound}= is unbounded: a "
                        "stalled consumer grows it until OOM; size it "
                        f"(pass {bound}=) so producers see backpressure",
                    )
                continue
            chain = _attribute_chain(node.func)
            if chain and chain[-1] == "put_nowait":
                if not any(
                    first <= node.lineno <= last for first, last in handled
                ):
                    yield self.finding(
                        module,
                        node,
                        "put_nowait() outside a QueueFull handler: on a "
                        "full (bounded) queue this raises and the item "
                        "is silently dropped with the exception; catch "
                        "asyncio.QueueFull and account for the shed",
                    )


def _has_bound(node: ast.Call, resolved: str, bound: str) -> bool:
    """A positional or keyword capacity argument is present and not None."""
    position = 1 if resolved == "collections.deque" else 0
    if len(node.args) > position:
        return True
    for keyword in node.keywords:
        if keyword.arg == bound:
            return not (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is None
            )
        if keyword.arg is None:
            return True  # **kwargs: assume the caller knows
    return False


def _queue_full_spans(module: ParsedModule) -> List[Tuple[int, int]]:
    """Body spans of try statements with a QueueFull/Full handler."""
    spans: List[Tuple[int, int]] = []
    for node in module.walk():
        if not isinstance(node, ast.Try) or not node.body:
            continue
        for handler in node.handlers:
            if _catches_queue_full(handler.type):
                first = node.body[0].lineno
                last = getattr(node.body[-1], "end_lineno", None) or node.body[
                    -1
                ].lineno
                spans.append((first, last))
                break
    return spans


def _catches_queue_full(node) -> bool:
    if node is None:
        return True  # bare except certainly catches QueueFull
    if isinstance(node, ast.Tuple):
        return any(_catches_queue_full(element) for element in node.elts)
    chain = _attribute_chain(node)
    return bool(chain) and chain[-1] in _FULL_TAILS
