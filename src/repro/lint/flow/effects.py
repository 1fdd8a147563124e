"""Per-function effect summaries over the project call graph.

The live runtime (`net/tcp.py`, `runtime/*.py`, `client/swarm.py`,
`traffic/loadgen.py`) is asyncio code, and the bugs that break its
crash-recovery story are *effects*, not expressions: a read of shared
state that goes stale across an ``await``, a blocking ``open()`` reached
three calls below an ``async def``, a task handle nobody will ever
cancel.  This module computes, for every function in the call graph:

- **suspension points** — ``await`` / ``async for`` / ``async with``
  sites, with awaited *project* calls resolved through the graph: an
  ``await self.helper()`` where ``helper`` never suspends is **not** a
  suspension point, which is exactly the precision the await-atomicity
  rule needs;
- **self-attribute reads and writes** (subscript stores and ``del``
  count as writes; mutating method calls like ``.append`` count as
  reads — single-threaded handlers make in-place mutation atomic);
- **tasks created** (``create_task`` / ``ensure_future`` sites and the
  name the handle is retained on, if any);
- **locks acquired** (``with`` / ``async with`` over lock-shaped
  context managers);
- **blocking calls** (file ops, ``fsync``, ``subprocess``, sync socket
  calls) and their transitive *may-block* closure, so a rule can say
  "this async def reaches ``os.fsync`` in ``journal.append``" with the
  owning leaf named — sanctioned-list filtering happens per leaf.

Transitive **may-suspend** and **may-block** are least fixed points over
the call graph, memoized with optimistic cycle-breaking (the
:class:`~repro.lint.flow.base.Closure` the taint engine uses too).  The
index serializes to JSON with every collection sorted, so two builds of
the same tree are byte-identical and the CI artifact (``repro lint
--effects``) diffs cleanly per PR; ``tests/lint/goldens/digests.json``
pins its digest.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.astutil import resolve_call, under_prefix
from repro.lint.flow.base import Closure, EvalOrderWalker, iter_own_body
from repro.lint.flow.callgraph import (
    CallGraph,
    FunctionNode,
    _attribute_chain,
)

__all__ = [
    "BLOCKING_CALLS",
    "BLOCKING_METHOD_TAILS",
    "EffectsIndex",
    "Event",
    "FunctionEffects",
    "build_effects",
]

#: Calls that block the event loop, matched on their import-resolved
#: dotted name (``open`` is the builtin).  ``time.sleep`` is listed for
#: the *transitive* case — a sync helper reached from an async def; the
#: direct-in-async case stays with the lexical asyncio-hygiene rule.
BLOCKING_CALLS = frozenset(
    {
        "open",
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "os.replace",
        "os.rename",
        "os.remove",
        "os.unlink",
        "os.makedirs",
        "os.listdir",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "shutil.rmtree",
        "shutil.copy",
        "shutil.copytree",
        "shutil.move",
    }
)

#: Method names that are blocking I/O on any receiver (Path file ops).
BLOCKING_METHOD_TAILS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})

#: Substrings that mark a context-manager chain as a lock acquisition.
_LOCK_HINTS = ("lock", "mutex", "sem")

def _context_chain(with_item: ast.withitem) -> Optional[List[str]]:
    """The attribute chain a ``with`` item enters (call parens stripped)."""
    chain = _attribute_chain(with_item.context_expr)
    if chain is None and isinstance(with_item.context_expr, ast.Call):
        chain = _attribute_chain(with_item.context_expr.func)
    return chain


def _is_lockish(chain: Optional[List[str]]) -> bool:
    if not chain:
        return False
    return any(hint in part.lower() for part in chain for hint in _LOCK_HINTS)


class Event:
    """One step of a function's evaluation-ordered effect stream."""

    __slots__ = ("kind", "attr", "line", "col", "locked")

    def __init__(
        self, kind: str, attr: Optional[str], line: int, col: int, locked: bool
    ) -> None:
        self.kind = kind  # "read" | "write" | "suspend"
        self.attr = attr
        self.line = line
        self.col = col
        self.locked = locked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.kind}, {self.attr}, line={self.line})"


class FunctionEffects:
    """Direct (non-transitive) effect facts for one function."""

    __slots__ = (
        "qualname",
        "module",
        "class_name",
        "lineno",
        "is_async",
        "await_sites",
        "always_suspends",
        "self_reads",
        "self_writes",
        "tasks",
        "locks",
        "lock_spans",
        "blocking_calls",
    )

    def __init__(self, node: FunctionNode) -> None:
        self.qualname = node.qualname
        self.module = node.module
        self.class_name = node.class_name
        self.lineno = node.lineno
        self.is_async = isinstance(node.node, ast.AsyncFunctionDef)
        #: ``await <call>`` sites: (line, col, resolved target or None).
        self.await_sites: List[Tuple[int, int, Optional[str]]] = []
        #: Unconditional suspension lines (async for / async with / await
        #: of a non-call or external call).
        self.always_suspends: Set[int] = set()
        self.self_reads: Set[str] = set()
        self.self_writes: Set[str] = set()
        #: (line, retained-on) per create_task/ensure_future site.
        self.tasks: List[Tuple[int, Optional[str]]] = []
        #: Lock-shaped context-manager chains acquired in the body.
        self.locks: Set[str] = set()
        #: (first, last) line spans of lock-guarded blocks.
        self.lock_spans: List[Tuple[int, int]] = []
        #: (line, name) of direct blocking calls.
        self.blocking_calls: List[Tuple[int, str]] = []


class EffectsIndex:
    """Effect summaries for every function in a :class:`CallGraph`."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self._fx: Dict[str, FunctionEffects] = {}
        for qualname, node in graph.functions.items():
            self._fx[qualname] = self._collect_direct(node)
        self._suspends = Closure(self._compute_suspends, bool)
        self._blocking = Closure(self._compute_blocking, set)
        #: Keyed ``(writes, qualname)``: the self reads or writes closure.
        self._attrs = Closure(self._compute_attrs, set)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def effects(self, qualname: str) -> Optional[FunctionEffects]:
        return self._fx.get(qualname)

    def qualnames(self) -> List[str]:
        return sorted(self._fx)

    # ------------------------------------------------------------------
    # Direct facts (one own-body pass per function)
    # ------------------------------------------------------------------
    def _collect_direct(self, node: FunctionNode) -> FunctionEffects:
        fx = FunctionEffects(node)
        imports = self.graph.modules[node.module].imports
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in iter_own_body(node.node):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for child in ast.iter_child_nodes(node.node):
            parents[child] = node.node

        for item in iter_own_body(node.node):
            if isinstance(item, ast.Await):
                value = item.value
                if isinstance(value, ast.Call):
                    target = node.call_targets.get(
                        (value.lineno, value.col_offset)
                    )
                    fx.await_sites.append((item.lineno, item.col_offset, target))
                else:
                    fx.always_suspends.add(item.lineno)
            elif isinstance(item, ast.AsyncFor):
                fx.always_suspends.add(item.lineno)
            elif isinstance(item, (ast.With, ast.AsyncWith)):
                if isinstance(item, ast.AsyncWith):
                    fx.always_suspends.add(item.lineno)
                for with_item in item.items:
                    chain = _context_chain(with_item)
                    if _is_lockish(chain):
                        fx.locks.add(".".join(chain or []))
                        end = getattr(item, "end_lineno", item.lineno)
                        fx.lock_spans.append((item.lineno, end or item.lineno))
            elif isinstance(item, ast.Attribute):
                self._record_self_attr(fx, node, item, parents)
            elif isinstance(item, ast.Call):
                self._record_call(fx, node, item, parents, imports)
        # iter_own_body is an unordered walk; sort for determinism.
        fx.await_sites.sort(key=lambda site: (site[0], site[1], site[2] or ""))
        fx.tasks.sort(key=lambda task: (task[0], task[1] or ""))
        fx.blocking_calls.sort()
        fx.lock_spans.sort()
        return fx

    def _record_self_attr(
        self,
        fx: FunctionEffects,
        node: FunctionNode,
        item: ast.Attribute,
        parents: Dict[ast.AST, ast.AST],
    ) -> None:
        if not (isinstance(item.value, ast.Name) and item.value.id == "self"):
            return
        parent = parents.get(item)
        if isinstance(parent, ast.Call) and parent.func is item:
            # ``self.method(...)``: an edge when resolved, a read of the
            # attribute when not (``self.on_message(...)`` callbacks).
            if (parent.lineno, parent.col_offset) not in node.call_targets:
                fx.self_reads.add(item.attr)
            return
        if (
            isinstance(parent, ast.Subscript)
            and parent.value is item
            and isinstance(parent.ctx, (ast.Store, ast.Del))
        ):
            fx.self_writes.add(item.attr)
            return
        if isinstance(item.ctx, (ast.Store, ast.Del)):
            fx.self_writes.add(item.attr)
            if isinstance(parent, ast.AugAssign):
                fx.self_reads.add(item.attr)
            return
        fx.self_reads.add(item.attr)

    def _record_call(
        self,
        fx: FunctionEffects,
        node: FunctionNode,
        item: ast.Call,
        parents: Dict[ast.AST, ast.AST],
        imports: Dict[str, str],
    ) -> None:
        chain = _attribute_chain(item.func)
        tail = chain[-1] if chain else None
        if tail in _TASK_SPAWNERS:
            fx.tasks.append((item.lineno, _retention_target(item, parents)))
            return
        if (item.lineno, item.col_offset) in node.call_targets:
            return  # a project edge; its effects arrive transitively
        resolved = resolve_call(imports, item.func)
        if resolved in BLOCKING_CALLS:
            fx.blocking_calls.append((item.lineno, resolved))
        elif tail in BLOCKING_METHOD_TAILS:
            fx.blocking_calls.append((item.lineno, f"{tail}"))

    # ------------------------------------------------------------------
    # Transitive may-suspend
    # ------------------------------------------------------------------
    def may_suspend(self, qualname: str) -> bool:
        """Can calling (and awaiting) this function yield to the loop?

        Sync functions never suspend.  An async function suspends when it
        has an unconditional suspension point, awaits something external,
        or awaits a project function that itself may suspend.  Cycles
        resolve optimistically (least fixed point).
        """
        return self._suspends(qualname)

    def _compute_suspends(self, qualname: str) -> bool:
        fx = self._fx.get(qualname)
        if fx is None or not fx.is_async:
            return False
        return bool(fx.always_suspends) or any(
            target is None or target not in self._fx or self.may_suspend(target)
            for _line, _col, target in fx.await_sites
        )

    def suspension_lines(self, qualname: str) -> List[int]:
        """Resolved suspension-point lines, sorted and deduplicated."""
        fx = self._fx.get(qualname)
        if fx is None or not fx.is_async:
            return []
        lines = set(fx.always_suspends)
        for line, _col, target in fx.await_sites:
            if target is None or target not in self._fx or self.may_suspend(target):
                lines.add(line)
        return sorted(lines)

    # ------------------------------------------------------------------
    # Transitive may-block
    # ------------------------------------------------------------------
    def blocking_reached(self, qualname: str) -> Set[Tuple[str, str]]:
        """Every ``(owner, call)`` blocking site reachable from here.

        ``owner`` is the function whose body contains the direct blocking
        call — the unit the sanctioned-list is matched against.
        """
        return self._blocking(qualname)

    def _compute_blocking(self, qualname: str) -> Set[Tuple[str, str]]:
        fx = self._fx.get(qualname)
        if fx is None:
            return set()
        reached = {(qualname, name) for _line, name in fx.blocking_calls}
        for callee in self.graph.functions[qualname].calls:
            reached |= self.blocking_reached(callee)
        return reached

    def may_block(self, qualname: str) -> bool:
        return bool(self.blocking_reached(qualname))

    # ------------------------------------------------------------------
    # Self-attribute closures (through same-class-family method calls)
    # ------------------------------------------------------------------
    def _same_family(self, a: Optional[str], b: Optional[str]) -> bool:
        if a is None or b is None:
            return False
        return a == b or b in self.graph.mro(a) or a in self.graph.mro(b)

    def _compute_attrs(self, key: Tuple[bool, str]) -> Set[str]:
        writes, qualname = key
        fx = self._fx.get(qualname)
        if fx is None:
            return set()
        out = set(fx.self_writes if writes else fx.self_reads)
        for callee in self.graph.functions[qualname].calls:
            callee_fx = self._fx.get(callee)
            if callee_fx is not None and self._same_family(
                fx.class_name, callee_fx.class_name
            ):
                out |= self._attrs((writes, callee))
        return out

    def self_reads_closure(self, qualname: str) -> Set[str]:
        return self._attrs((False, qualname))

    def self_writes_closure(self, qualname: str) -> Set[str]:
        return self._attrs((True, qualname))

    # ------------------------------------------------------------------
    # Evaluation-ordered event stream (the await-atomicity substrate)
    # ------------------------------------------------------------------
    def event_stream(self, qualname: str) -> List[Event]:
        """Reads, writes, and suspension points in evaluation order.

        Loop bodies are emitted twice so loop-back hazards (a write at
        the top of an iteration after an ``await`` at the bottom of the
        previous one) are visible to a single linear scan.  Self-method
        calls inject the callee's transitive self reads/writes at the
        call site.
        """
        node = self.graph.functions.get(qualname)
        fx = self._fx.get(qualname)
        if node is None or fx is None:
            return []
        out: List[Event] = []
        _EventWalker(self, node, out).emit_all(node.node.body)
        return out

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self, prefixes: Optional[Sequence[str]] = None) -> dict:
        """JSON-ready dict; every collection sorted for byte-stability."""

        functions = {}
        for qualname in sorted(self._fx):
            fx = self._fx[qualname]
            if prefixes and not under_prefix(fx.module, prefixes):
                continue
            via = sorted(
                {
                    owner
                    for owner, _name in self.blocking_reached(qualname)
                    if owner != qualname
                }
            )
            functions[qualname] = {
                "module": fx.module,
                "line": fx.lineno,
                "async": fx.is_async,
                "may_suspend": self.may_suspend(qualname),
                "may_block": self.may_block(qualname),
                "suspends": self.suspension_lines(qualname),
                "self_reads": sorted(fx.self_reads),
                "self_writes": sorted(fx.self_writes),
                "tasks": [
                    {"line": line, "target": target}
                    for line, target in sorted(
                        fx.tasks, key=lambda t: (t[0], t[1] or "")
                    )
                ],
                "locks": sorted(fx.locks),
                "blocking": sorted({name for _line, name in fx.blocking_calls}),
                "blocking_via": via,
            }
        return {"version": 1, "functions": functions}


class _EventWalker(EvalOrderWalker):
    """Emit a function body as an evaluation-ordered effect stream."""

    def __init__(
        self, index: EffectsIndex, node: FunctionNode, out: List[Event]
    ) -> None:
        self.index = index
        self.node = node
        self.out = out
        self.lock_depth = 0

    # -- event emission -------------------------------------------------
    def _event(self, kind: str, attr: Optional[str], node: ast.AST) -> None:
        self.out.append(
            Event(
                kind,
                attr,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                self.lock_depth > 0,
            )
        )

    def _is_self_attr(self, item: ast.AST) -> bool:
        return (
            isinstance(item, ast.Attribute)
            and isinstance(item.value, ast.Name)
            and item.value.id == "self"
        )

    def emit_store(self, target: ast.AST) -> None:
        """Writes for self attrs, reads for the indices of a store."""
        if self._is_self_attr(target):
            self._event("write", target.attr, target)  # type: ignore[attr-defined]
        elif isinstance(target, ast.Subscript):
            self.emit(target.slice)
            if self._is_self_attr(target.value):
                self._event("write", target.value.attr, target)  # type: ignore[attr-defined]
            else:
                self.emit(target.value)
        elif isinstance(target, ast.Attribute):
            self.emit(target.value)

    # -- statements with non-source-order evaluation --------------------
    def _emit_AugAssign(self, item: ast.AugAssign) -> None:
        if self._is_self_attr(item.target):
            self._event("read", item.target.attr, item.target)  # type: ignore[attr-defined]
        else:
            self.emit(item.target.value if isinstance(item.target, ast.Attribute) else item.target)
        self.emit(item.value)
        self.emit_target(item.target)

    def _emit_AsyncFor(self, item: ast.AsyncFor) -> None:
        self.emit(item.iter)
        for _ in range(2):
            self._event("suspend", None, item)
            self.emit_target(item.target)
            self.emit_all(item.body)
        self.emit_all(item.orelse)

    def _with_lockish(self, item) -> bool:
        return any(_is_lockish(_context_chain(with_item)) for with_item in item.items)

    def _emit_With(self, item: ast.With) -> None:
        for with_item in item.items:
            self.emit(with_item.context_expr)
            if with_item.optional_vars is not None:
                self.emit_target(with_item.optional_vars)
        locked = self._with_lockish(item)
        self.lock_depth += 1 if locked else 0
        self.emit_all(item.body)
        self.lock_depth -= 1 if locked else 0

    def _emit_AsyncWith(self, item: ast.AsyncWith) -> None:
        for with_item in item.items:
            self.emit(with_item.context_expr)
        self._event("suspend", None, item)
        locked = self._with_lockish(item)
        self.lock_depth += 1 if locked else 0
        for with_item in item.items:
            if with_item.optional_vars is not None:
                self.emit_target(with_item.optional_vars)
        self.emit_all(item.body)
        self.lock_depth -= 1 if locked else 0
        self._event("suspend", None, item)  # __aexit__ at block end

    def _emit_Await(self, item: ast.Await) -> None:
        self.emit(item.value)
        value = item.value
        if isinstance(value, ast.Call):
            target = self.node.call_targets.get((value.lineno, value.col_offset))
            if target is not None and self.index.effects(target) is not None:
                if not self.index.may_suspend(target):
                    return  # awaiting a never-suspending project coroutine
        self._event("suspend", None, item)

    # -- expressions ----------------------------------------------------
    def _emit_Attribute(self, item: ast.Attribute) -> None:
        if self._is_self_attr(item):
            if isinstance(item.ctx, ast.Load):
                self._event("read", item.attr, item)
            return
        self.emit(item.value)

    def _emit_Subscript(self, item: ast.Subscript) -> None:
        self.emit(item.value)
        self.emit(item.slice)

    def _emit_Call(self, item: ast.Call) -> None:
        func = item.func
        if self._is_self_attr(func):
            target = self.node.call_targets.get((item.lineno, item.col_offset))
            self.emit_all(item.args)
            for keyword in item.keywords:
                self.emit(keyword.value)
            if target is not None:
                fx = self.index.effects(target)
                if fx is not None and self.index._same_family(
                    self.node.class_name, fx.class_name
                ):
                    # Inline the callee's self effects at the call site:
                    # reads first, then writes (its own read-modify-write
                    # is atomic unless *it* suspends, which it reports on
                    # its own lines).
                    for attr in sorted(self.index.self_reads_closure(target)):
                        self._event("read", attr, item)
                    for attr in sorted(self.index.self_writes_closure(target)):
                        self._event("write", attr, item)
                    return
                return  # resolved non-family call (constructor via attr)
            self._event("read", func.attr, func)  # type: ignore[attr-defined]
            return
        self.emit(func)
        self.emit_all(item.args)
        for keyword in item.keywords:
            self.emit(keyword.value)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _retention_target(
    call: ast.Call, parents: Dict[ast.AST, ast.AST]
) -> Optional[str]:
    """Where a spawned task's handle lands: a dotted name, or None.

    Climbs from the ``create_task`` call to its statement: an assignment
    target names the retainer (through comprehensions); a call argument
    (``self._tasks.add(task)``) names the receiver collection; a bare
    expression statement retains nothing.
    """
    current: ast.AST = call
    while True:
        parent = parents.get(current)
        if parent is None:
            return None
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            chain = _attribute_chain(parent.targets[0])
            return ".".join(chain) if chain else None
        if isinstance(parent, ast.Call) and current in parent.args:
            chain = _attribute_chain(parent.func)
            return ".".join(chain) if chain else None
        if isinstance(parent, ast.Await):
            return "<awaited>"
        if isinstance(parent, ast.Return):
            return "<returned>"
        if isinstance(parent, ast.Expr):
            return None
        if isinstance(parent, ast.stmt):
            return None
        current = parent


def build_effects(graph: CallGraph) -> EffectsIndex:
    """Effect summaries over ``graph``."""
    return EffectsIndex(graph)
