"""Byzantine-taint dataflow over the project call graph.

Threat model: every field of a network message is attacker-controlled
until a cryptographic check has vouched for it.  The engine tracks, per
function and across project-internal calls, which *origin paths* (field
accesses rooted at a handler parameter, e.g. ``message.block.qc``) can
reach a **sink** — a write to the safety-critical state the paper's
Lemmas 4-5 and Theorem 8 reason about, or a ledger commit — without first
passing a **sanitizer** (the ``verify_*`` certificate/share checks in
``core/validation.py`` and ``CryptoContext``, or the ``may_vote_*``
safety-rule gates).

The analysis is deliberately a lint-grade approximation:

- **flow-sensitive, path-insensitive**: statements are visited in source
  order; a sanitizer call covers its argument paths for the rest of the
  function, and branch bodies are visited sequentially.  The dominant
  project idiom — ``if not verify_x(...): return`` before any use — is
  modeled exactly; exotic control flow errs toward fewer findings.
- **field-level**: sanitizing ``block.qc`` covers ``message.block.qc``
  and everything below it, but not the rest of ``message.block``; a
  tuple/constructor built from covered fields is itself covered (this is
  how ``verify_share(share, payload)`` vouches for the payload fields a
  later QC is assembled from).
- **summary-based interprocedural**: each function gets a memoized
  summary — which parameters reach a sink unsanitized, and which flow to
  the return value — computed over the call graph with cycles broken
  optimistically.  A handler passing an unverified message field into
  ``process_certificate`` is flagged at the handler's call site.

Soundness disclaimer: a ``verify_*`` name is trusted by construction and
aliasing through containers is approximated (a tainted value stored into
a collection taints the collection variable, not the heap).  The point is
to catch the real-world regression shape — a new handler or refactor that
forgets a verify gate — not to prove non-interference.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.astutil import under_prefix
from repro.lint.flow.base import Closure
from repro.lint.flow.callgraph import CallGraph, FunctionNode

__all__ = [
    "GUARD_METHODS",
    "SINK_METHODS",
    "Summary",
    "SinkHit",
    "TaintEngine",
    "is_sanitizer_name",
]

#: Methods whose call *is* a safety-state/ledger sink regardless of how
#: the receiver resolves (name-based, so an unresolvable receiver still
#: counts).  The safety-state field writes themselves are matched via
#: :data:`repro.lint.flow.persistence.SAFETY_FIELDS`.
SINK_METHODS: FrozenSet[str] = frozenset(
    {
        "record_regular_vote",
        "record_fallback_vote",
        "update_lock",
        "adopt_leader_votes",
        "reset_fallback_votes",
        "stop_voting_below",
        "stop_voting_for",
        "commit_through",
    }
)

#: Boolean gates that vouch for their arguments: the safety-rule vote
#: predicates and external validity.  ``verify_*`` is matched by prefix.
GUARD_METHODS: FrozenSet[str] = frozenset(
    {"may_vote_regular", "may_vote_fallback", "batch_valid"}
)

_SANITIZER_PREFIX = "verify_"


def is_sanitizer_name(name: str) -> bool:
    """True when a call to ``name`` vouches for its arguments."""
    return name.startswith(_SANITIZER_PREFIX) or name in GUARD_METHODS


@dataclass(frozen=True)
class SinkHit:
    """One unsanitized flow into a sink, located in some function body."""

    line: int
    col: int
    #: Human-readable sink, e.g. ``assignment to .qc_high`` or
    #: ``call to record_regular_vote``.
    sink: str
    #: Call chain (callee qualnames) crossed between the analyzed
    #: function and the sink; empty for a direct hit.
    via: Tuple[str, ...]
    #: The origin paths that reached the sink (``message.block`` ...).
    origins: FrozenSet[str]


@dataclass
class Summary:
    """What a function does with each of its parameters."""

    #: param name -> unsanitized sink flows when that param is tainted.
    param_sinks: Dict[str, List[SinkHit]] = field(default_factory=dict)
    #: params whose data can flow into the return value.
    param_returns: Set[str] = field(default_factory=set)


class TaintEngine:
    """Computes per-function taint summaries over a call graph."""

    def __init__(
        self,
        graph: CallGraph,
        safety_fields: FrozenSet[str],
        sources: FrozenSet[str],
    ) -> None:
        self.graph = graph
        self.safety_fields = safety_fields
        #: Source-handler qualnames: never descended into from a caller
        #: (each is analyzed as its own root, so findings are not
        #: duplicated through the dispatch chain).
        self.sources = sources
        self._summaries = Closure(self._analyze, Summary)

    def summary(self, qualname: str) -> Summary:
        """Memoized summary; optimistic (empty) on recursion cycles."""
        return self._summaries(qualname)

    def _analyze(self, qualname: str) -> Summary:
        node = self.graph.function(qualname)
        return Summary() if node is None else _FunctionAnalyzer(self, node).run()


class _FunctionAnalyzer:
    """One pass over a function body with every parameter tainted."""

    def __init__(self, engine: TaintEngine, node: FunctionNode) -> None:
        self.engine = engine
        self.graph = engine.graph
        self.node = node
        self.module = engine.graph.modules[node.module]
        #: variable -> origin paths it carries.
        self.env: Dict[str, Set[str]] = {p: {p} for p in node.params}
        #: origin paths vouched for by a sanitizer so far.
        self.sanitized: Set[str] = set()
        self.hits: List[SinkHit] = []
        self.return_origins: Set[str] = set()

    # ------------------------------------------------------------------
    def run(self) -> Summary:
        for stmt in getattr(self.node.node, "body", []):
            self.visit(stmt)
        summary = Summary()
        params = set(self.node.params)
        for hit in self.hits:
            for root in {origin.split(".", 1)[0] for origin in hit.origins}:
                if root in params:
                    summary.param_sinks.setdefault(root, []).append(hit)
        summary.param_returns = {
            origin.split(".", 1)[0]
            for origin in self.return_origins
            if origin.split(".", 1)[0] in params
        }
        return summary

    # ------------------------------------------------------------------
    # Taint helpers
    # ------------------------------------------------------------------
    def effective(self, origins: Set[str]) -> FrozenSet[str]:
        """Origins not covered by any sanitized path prefix."""
        return frozenset(
            origin for origin in origins if not under_prefix(origin, self.sanitized)
        )

    def record_hit(self, node: ast.AST, sink: str, origins: FrozenSet[str],
                   via: Tuple[str, ...] = ()) -> None:
        self.hits.append(
            SinkHit(
                line=getattr(node, "lineno", self.node.lineno),
                col=getattr(node, "col_offset", 0),
                sink=sink,
                via=via,
                origins=origins,
            )
        )

    # ------------------------------------------------------------------
    # Statements (visited in source order)
    # ------------------------------------------------------------------
    def visit(self, stmt: ast.AST) -> None:
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self.assign(target, value, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval(stmt.value), stmt)
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env.setdefault(stmt.target.id, set()).update(value)
            else:
                self.assign(stmt.target, value, stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_origins.update(self.eval(stmt.value))
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            for child in stmt.body + stmt.orelse:
                self.visit(child)
        elif isinstance(stmt, (ast.While,)):
            self.eval(stmt.test)
            for child in stmt.body + stmt.orelse:
                self.visit(child)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self.eval(stmt.iter)
            self.assign(stmt.target, iterable, stmt)
            for child in stmt.body + stmt.orelse:
                self.visit(child)
        elif isinstance(stmt, ast.Try):
            for child in stmt.body:
                self.visit(child)
            for handler in stmt.handlers:
                for child in handler.body:
                    self.visit(child)
            for child in stmt.orelse + stmt.finalbody:
                self.visit(child)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, value, stmt)
            for child in stmt.body:
                self.visit(child)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, ast.Delete):
            pass
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested scopes are out of this pass's reach
        # Pass/Break/Continue/Global/Import...: no dataflow effect.

    def assign(self, target: ast.AST, value: Set[str], stmt: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.assign(element, value, stmt)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, value, stmt)
        elif isinstance(target, ast.Attribute):
            if target.attr in self.engine.safety_fields:
                origins = self.effective(value)
                if origins:
                    self.record_hit(
                        stmt, f"assignment to .{target.attr}", origins
                    )
        elif isinstance(target, ast.Subscript):
            inner = target.value
            if isinstance(inner, ast.Name):
                # ``bucket[k] = v`` taints the collection variable.
                self.env.setdefault(inner.id, set()).update(value)
            elif (
                isinstance(inner, ast.Attribute)
                and inner.attr in self.engine.safety_fields
            ):
                origins = self.effective(value | self.eval(target.slice))
                if origins:
                    self.record_hit(
                        stmt, f"write into .{inner.attr}[...]", origins
                    )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def eval(self, node: ast.AST) -> Set[str]:
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Lambda):
            return set()
        # Tuples, dicts, comparisons, f-strings, comprehensions, slices...
        origins: Set[str] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.comprehension, ast.keyword)):
                origins |= self.eval(child)
            elif isinstance(child, ast.AST):
                for grandchild in self.module.walk(child):
                    if isinstance(grandchild, ast.expr):
                        origins |= self.eval(grandchild)
                        break
        return origins

    def _eval_attribute(self, node: ast.Attribute) -> Set[str]:
        parts: List[str] = []
        current: ast.AST = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            base = self.env.get(current.id)
            if not base:
                return set()
            suffix = ".".join(reversed(parts))
            return {f"{origin}.{suffix}" for origin in base}
        return self.eval(current)

    def _eval_call(self, call: ast.Call) -> Set[str]:
        func = call.func
        arg_origins: List[Set[str]] = [self.eval(arg) for arg in call.args]
        kw_origins: Dict[Optional[str], Set[str]] = {
            kw.arg: self.eval(kw.value) for kw in call.keywords
        }
        receiver: Set[str] = set()
        terminal: Optional[str] = None
        if isinstance(func, ast.Attribute):
            terminal = func.attr
            receiver = self.eval(func.value)
        elif isinstance(func, ast.Name):
            terminal = func.id
        else:
            receiver = self.eval(func)

        all_origins: Set[str] = set(receiver)
        for origins in arg_origins:
            all_origins |= origins
        for origins in kw_origins.values():
            all_origins |= origins

        if terminal is not None and is_sanitizer_name(terminal):
            self.sanitized |= all_origins
            return set()

        if terminal is not None and terminal in SINK_METHODS:
            effective = self.effective(all_origins)
            if effective:
                self.record_hit(call, f"call to {terminal}()", effective)
            return set()

        target = self.node.call_targets.get((call.lineno, call.col_offset))
        if target is not None and target in self.graph.classes:
            return all_origins  # constructed object carries its arguments
        if (
            target is not None
            and target in self.graph.functions
            and target not in self.engine.sources
        ):
            returned = self._apply_summary(call, target, arg_origins,
                                           kw_origins, receiver)
            if self.graph.functions[target].name == "__init__":
                # Constructor edge: the object carries its arguments even
                # though ``__init__`` itself returns None.
                return all_origins
            return returned
        # Unknown target (stdlib, unresolvable, or a stopped source):
        # conservatively, the result carries every argument's taint.
        return all_origins

    def _apply_summary(
        self,
        call: ast.Call,
        target: str,
        arg_origins: List[Set[str]],
        kw_origins: Dict[Optional[str], Set[str]],
        receiver: Set[str],
    ) -> Set[str]:
        callee = self.graph.functions[target]
        summary = self.engine.summary(target)
        params = callee.params
        mapped: List[Tuple[str, Set[str]]] = []
        for index, origins in enumerate(arg_origins):
            if index < len(params):
                mapped.append((params[index], origins))
        for name, origins in kw_origins.items():
            if name is not None and name in params:
                mapped.append((name, origins))

        returned: Set[str] = set(receiver)
        for param, origins in mapped:
            effective = self.effective(origins)
            if effective and param in summary.param_sinks:
                for hit in summary.param_sinks[param]:
                    self.record_hit(
                        call, hit.sink, effective, via=(target,) + hit.via
                    )
            if param in summary.param_returns:
                returned |= origins
        return returned
