"""Machinery the flow analyses share: one body walker, one closure.

:class:`EvalOrderWalker` emits a function body in evaluation order — the
traversal behind both the effect streams (:mod:`repro.lint.flow.effects`)
and the persistence streams (:mod:`repro.lint.flow.persistence`); each
subclass only adds hooks for the events it records.  :class:`Closure` is
the memoised fixed point every transitive summary is computed with.
"""

from __future__ import annotations

import ast
from typing import (
    Callable, Dict, Generic, Hashable, Iterator, List, Optional, Sequence, Set, TypeVar,
)

__all__ = ["Closure", "EvalOrderWalker", "iter_own_body"]

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

K = TypeVar("K", bound=Hashable)
T = TypeVar("T")


def iter_own_body(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own body, skipping nested defs and lambdas."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(current, _DEF_NODES):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


class Closure(Generic[K, T]):
    """A memoised per-key fixed point over the call graph.

    ``compute(key)`` may recurse through the closure itself.  A key met
    again while it is still being computed — a call-graph cycle — yields
    ``optimistic()`` uncached, so every summary is a least fixed point.
    """

    __slots__ = ("_compute", "_optimistic", "_done", "_active")

    def __init__(self, compute: Callable[[K], T], optimistic: Callable[[], T]) -> None:
        self._compute = compute
        self._optimistic = optimistic
        self._done: Dict[K, T] = {}
        self._active: Set[K] = set()

    def __call__(self, key: K) -> T:
        if key in self._done:
            return self._done[key]
        if key in self._active:
            return self._optimistic()
        self._active.add(key)
        try:
            value = self._compute(key)
        finally:
            self._active.discard(key)
        self._done[key] = value
        return value


class EvalOrderWalker:
    """Emit a function body in evaluation order.

    Nested defs and lambdas are skipped, loop bodies are emitted twice so
    a loop-back hazard is visible to one linear scan, and store targets
    recurse through tuples, lists and starred names down to
    :meth:`emit_store`.  Subclasses add ``_emit_<NodeType>`` hooks for the
    nodes they record; every other node is walked child by child.
    """

    def emit(self, item: Optional[ast.AST]) -> None:
        if item is None or isinstance(item, _DEF_NODES):
            return
        method = getattr(self, f"_emit_{type(item).__name__}", None)
        if method is not None:
            method(item)
            return
        for child in ast.iter_child_nodes(item):
            self.emit(child)

    def emit_all(self, items: Sequence[ast.AST]) -> None:
        for item in items:
            self.emit(item)

    def emit_target(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.emit_target(element)
        elif isinstance(target, ast.Starred):
            self.emit_target(target.value)
        else:
            self.emit_store(target)

    def emit_store(self, target: ast.AST) -> None:
        """One store target (a name, attribute or subscript)."""
        raise NotImplementedError

    # -- statements with non-source-order evaluation --------------------
    def _emit_Assign(self, item: ast.Assign) -> None:
        self.emit(item.value)
        for target in item.targets:
            self.emit_target(target)

    def _emit_AnnAssign(self, item: ast.AnnAssign) -> None:
        if item.value is not None:
            self.emit(item.value)
            self.emit_target(item.target)

    def _emit_Delete(self, item: ast.Delete) -> None:
        for target in item.targets:
            self.emit_target(target)

    def _emit_For(self, item: ast.For) -> None:
        self.emit(item.iter)
        for _ in range(2):  # loop-back visibility
            self.emit_target(item.target)
            self.emit_all(item.body)
        self.emit_all(item.orelse)

    def _emit_While(self, item: ast.While) -> None:
        for _ in range(2):
            self.emit(item.test)
            self.emit_all(item.body)
        self.emit_all(item.orelse)
