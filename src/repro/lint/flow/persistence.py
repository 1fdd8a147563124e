"""Interprocedural persistence summaries: the write-ahead substrate.

The paper's safety argument survives crashes only if a replica never
contradicts a vote it already sent — which operationally means every
mutation of the journaled safety state (``r_vote`` / ``rank_lock`` /
``_fallback_votes`` / the proposal watermarks) must reach the safety
journal *before* any externally visible send.  This module computes, for
every function in the project call graph, an **evaluation-ordered stream
of persistence events**:

- ``mutate`` — a store into a tracked safety-state attribute (plain
  assignment, subscript store, augmented assignment, ``del``, or a
  mutator-method call like ``self._proposed.add(...)``);
- ``call`` — every call site, with its raw attribute chain and the
  statically resolved target, so the linearizer can *re-resolve* it
  against the dynamic class of the object actually running the handler;
- ``open_write`` / ``fsync`` / ``replace`` — the file-write idioms the
  atomic-replace discipline is made of (open-for-write / ``write_text``
  with a tmp-vs-plain target classification, ``os.fsync``,
  ``os.replace``).

On top of the per-function streams, :meth:`PersistenceIndex.linearize`
expands a handler root into one transitively inlined stream.  The
expansion is **dynamic-class aware** — the one property the write-ahead
rule cannot live without:

- ``self``-rooted calls keep the root's dynamic class, so
  ``super().deliver`` inside ``DurableReplica`` walks ``Replica``'s
  handler bodies *as a DurableReplica*;
- attribute hops resolve through the dynamic class's MRO, so
  ``self.network`` inside a steady-state handler resolves to the
  durable replica's deferred-send outbox, not the raw ``Network``;
- objects constructed as ``Engine(self)`` carry the constructor's
  dynamic class into their back-reference attributes, so an engine's
  ``self.replica.network.multicast(...)`` (and the common
  ``replica = self.replica`` local alias) resolves like the replica
  itself made the call.

Journal writes (``*Journal.write`` / ``*Journal.checkpoint``) and
network egress (``*Network.send`` / ``*Transport.multicast`` …) are
classified on the **re-resolved** target and emitted as ``journal`` /
``send`` events instead of being expanded, each carrying the frame
stack (``via``) that reached it.  The index serializes to JSON with
every collection in deterministic order, so two builds of the same tree
are byte-identical and the CI artifact (``repro lint --persistence``)
diffs cleanly per PR; ``tests/lint/goldens/digests.json`` pins its digest.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.astutil import under_prefix
from repro.lint.flow.base import EvalOrderWalker
from repro.lint.flow.callgraph import (
    CallGraph,
    FunctionNode,
    _attribute_chain,
    _super_attr,
)

__all__ = [
    "EGRESS_CHAIN_HINTS",
    "EGRESS_CLASS_SUFFIXES",
    "EGRESS_METHODS",
    "JOURNAL_CLASS_SUFFIX",
    "JOURNAL_METHODS",
    "MUTATOR_TAILS",
    "PersistenceEvent",
    "FunctionPersistence",
    "PersistenceIndex",
    "SAFETY_FIELDS",
    "TRACKED_SAFETY_FIELDS",
    "build_persistence",
]

#: Journal operations: matched on the re-resolved method name when the
#: receiving class ends with this suffix (SafetyJournal, FileSafetyJournal).
JOURNAL_CLASS_SUFFIX = "Journal"
JOURNAL_METHODS = frozenset({"write", "checkpoint"})

#: Network egress: matched on the re-resolved method name when the
#: receiving class ends with one of these suffixes (Network,
#: ReliableNetwork, ProcessNetwork, TcpTransport, ...).
EGRESS_CLASS_SUFFIXES = ("Network", "Transport")
EGRESS_METHODS = frozenset({"send", "multicast", "enqueue"})

#: Fallback for chains the resolver cannot type: a ``send``/``multicast``
#: tail reached through something that *names* a transport is treated as
#: egress rather than silently dropped.
EGRESS_CHAIN_HINTS = ("network", "transport", "channel")

#: In-place mutator tails that count as writes to a tracked container
#: (``self._proposed.add(key)``).
MUTATOR_TAILS = frozenset(
    {"add", "append", "clear", "discard", "extend", "pop", "remove",
     "setdefault", "update"}
)

#: Substrings marking a file-write target as a tmp staging file.
_TMP_HINTS = ("tmp", "temp")

#: Hard ceiling on one linearized stream (runaway-recursion backstop).
_MAX_EVENTS = 100_000


#: Safety-critical attribute -> modules allowed to assign it.
#:
#: - ``r_vote`` / ``rank_lock`` / ``_fallback_votes`` belong to
#:   :mod:`repro.core.safety` (the vote/lock state machine); the durable
#:   journal restore path re-installs them verbatim on recovery.
#: - ``qc_high`` belongs to :mod:`repro.core.replica` (monotone
#:   ``max_cert`` update; the fallback adoption path reads it but mutates
#:   through the replica).
#: - ``locked_round`` / ``highest_qc`` are the common names for the same
#:   state in related codebases; reserving them keeps a refactor from
#:   quietly re-introducing an unguarded variant.
SAFETY_FIELDS: Dict[str, FrozenSet[str]] = {
    "r_vote": frozenset({"repro.core.safety", "repro.storage.durable"}),
    "rank_lock": frozenset({"repro.core.safety", "repro.storage.durable"}),
    "_fallback_votes": frozenset({"repro.core.safety", "repro.storage.durable"}),
    "qc_high": frozenset({"repro.core.replica"}),
    "locked_round": frozenset({"repro.core.safety"}),
    "highest_qc": frozenset({"repro.core.replica"}),
}

#: The fields whose mutations the streams record: the ownership map plus
#: the proposal watermark.
TRACKED_SAFETY_FIELDS: FrozenSet[str] = frozenset(SAFETY_FIELDS) | {"_proposed"}


class PersistenceEvent:
    """One step of a function's persistence-event stream."""

    __slots__ = ("kind", "detail", "line", "col", "chain", "static", "via")

    def __init__(
        self,
        kind: str,
        detail: str,
        line: int,
        col: int,
        chain: Optional[Tuple[str, ...]] = None,
        static: Optional[str] = None,
        via: Tuple[str, ...] = (),
    ) -> None:
        #: "mutate" | "call" | "journal" | "send" | "open_write" |
        #: "fsync" | "replace"
        self.kind = kind
        self.detail = detail
        self.line = line
        self.col = col
        #: Raw attribute chain of a call site (linearizer re-resolves it).
        self.chain = chain
        #: Statically resolved call target, if any.
        self.static = static
        #: Frame stack (function qualnames) that reached this event.
        self.via = via

    def replaced(self, kind: str, detail: str, via: Tuple[str, ...]) -> "PersistenceEvent":
        return PersistenceEvent(
            kind, detail, self.line, self.col, self.chain, self.static, via
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PersistenceEvent({self.kind}, {self.detail!r}, line={self.line})"


class FunctionPersistence:
    """Direct (non-transitive) persistence facts for one function."""

    __slots__ = ("qualname", "module", "class_name", "lineno", "stream",
                 "self_aliases")

    def __init__(self, node: FunctionNode) -> None:
        self.qualname = node.qualname
        self.module = node.module
        self.class_name = node.class_name
        self.lineno = node.lineno
        #: Evaluation-ordered direct events (loop bodies emitted twice).
        self.stream: List[PersistenceEvent] = []
        #: local name -> self attribute (``replica = self.replica``).
        self.self_aliases: Dict[str, str] = {}


class PersistenceIndex:
    """Persistence summaries for every function in a :class:`CallGraph`."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.tracked = TRACKED_SAFETY_FIELDS
        self._fp: Dict[str, FunctionPersistence] = {}
        for qualname, node in graph.functions.items():
            self._fp[qualname] = self._collect_direct(node)
        #: class qualname -> self attributes assigned ``Cls(self, ...)``.
        self._with_self: Dict[str, Set[str]] = {}
        self._collect_constructed_with_self()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def persistence(self, qualname: str) -> Optional[FunctionPersistence]:
        return self._fp.get(qualname)

    def qualnames(self) -> List[str]:
        return sorted(self._fp)

    # ------------------------------------------------------------------
    # Direct facts
    # ------------------------------------------------------------------
    def _collect_direct(self, node: FunctionNode) -> FunctionPersistence:
        fp = FunctionPersistence(node)
        _StreamWalker(self, node, fp).emit_all(node.node.body)
        return fp

    def _collect_constructed_with_self(self) -> None:
        """Record ``self.<attr> = Cls(self, ...)`` constructor back-refs."""
        for qualname, node in self.graph.functions.items():
            if node.class_name is None:
                continue
            for stmt in self.graph.modules[node.module].walk(node.node):
                if not (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Attribute)
                    and isinstance(stmt.targets[0].value, ast.Name)
                    and stmt.targets[0].value.id == "self"
                    and isinstance(stmt.value, ast.Call)
                ):
                    continue
                if not any(
                    isinstance(arg, ast.Name) and arg.id == "self"
                    for arg in stmt.value.args
                ):
                    continue
                attr = stmt.targets[0].attr
                if self.graph.attr_type(node.class_name, attr) is not None:
                    self._with_self.setdefault(node.class_name, set()).add(attr)

    # ------------------------------------------------------------------
    # Dynamic-class-aware linearization
    # ------------------------------------------------------------------
    def linearize(
        self, root_qualname: str, dyn_class: Optional[str] = None
    ) -> List[PersistenceEvent]:
        """The root's transitively inlined stream under ``dyn_class``.

        ``dyn_class`` is the dynamic type of ``self`` for the whole
        expansion (defaults to the root's defining class); virtual
        dispatch, attribute types, and ``super()`` all resolve against
        its MRO, frame by frame.
        """
        out: List[PersistenceEvent] = []
        node = self.graph.functions.get(root_qualname)
        if node is None:
            return out
        if dyn_class is None:
            dyn_class = node.class_name
        self._expand(root_qualname, dyn_class, {}, out, [], ())
        return out

    def _expand(
        self,
        qualname: str,
        dyn_class: Optional[str],
        overrides: Dict[str, str],
        out: List[PersistenceEvent],
        stack: List[str],
        via: Tuple[str, ...],
    ) -> None:
        if qualname in stack or len(out) >= _MAX_EVENTS:
            return
        fp = self._fp.get(qualname)
        node = self.graph.functions.get(qualname)
        if fp is None or node is None:
            return
        stack.append(qualname)
        try:
            for event in fp.stream:
                if len(out) >= _MAX_EVENTS:
                    return
                if event.kind != "call":
                    out.append(event.replaced(event.kind, event.detail, via))
                    continue
                target, callee_dyn, callee_over = self._resolve_call(
                    node, fp, dyn_class, overrides, event
                )
                if target is None:
                    if self._heuristic_egress(event.chain):
                        out.append(event.replaced("send", event.detail, via))
                    continue
                callee = self.graph.functions.get(target)
                owner = callee.class_name if callee is not None else None
                kind = self._classify(owner, target)
                if kind is not None:
                    out.append(event.replaced(kind, target, via))
                    continue
                self._expand(
                    target, callee_dyn, callee_over, out, stack, via + (target,)
                )
        finally:
            stack.pop()

    def _classify(self, owner: Optional[str], target: str) -> Optional[str]:
        """``journal`` / ``send`` when the resolved target is a boundary."""
        if owner is None:
            return None
        cls = self.graph.classes.get(owner)
        if cls is None:
            return None
        method = target.rsplit(".", 1)[-1]
        if cls.name.endswith(JOURNAL_CLASS_SUFFIX) and method in JOURNAL_METHODS:
            return "journal"
        if method in EGRESS_METHODS and any(
            cls.name.endswith(suffix) for suffix in EGRESS_CLASS_SUFFIXES
        ):
            return "send"
        return None

    @staticmethod
    def _heuristic_egress(chain: Optional[Tuple[str, ...]]) -> bool:
        if not chain or chain[-1] not in {"send", "multicast"}:
            return False
        return any(
            hint in part.lower() for part in chain[:-1] for hint in EGRESS_CHAIN_HINTS
        )

    def _resolve_call(
        self,
        node: FunctionNode,
        fp: FunctionPersistence,
        dyn_class: Optional[str],
        overrides: Dict[str, str],
        event: PersistenceEvent,
    ) -> Tuple[Optional[str], Optional[str], Dict[str, str]]:
        """Re-resolve one call site under the frame's dynamic class.

        Returns ``(target qualname, callee dyn_class, callee overrides)``;
        falls back to the statically resolved target when dynamic
        resolution has nothing better.
        """
        graph = self.graph
        chain = event.chain
        d = dyn_class or node.class_name
        if chain and chain[0] == "super" and node.class_name is not None and d:
            mro = graph.mro(d)
            start = mro.index(node.class_name) + 1 if node.class_name in mro else 0
            for cls in mro[start:]:
                qual = graph.classes[cls].methods.get(chain[1])
                if qual is not None:
                    # super() dispatches the *method* up the MRO; self (and
                    # therefore the dynamic class) is unchanged.
                    return qual, d, overrides
            return self._static_fallback(event)
        if chain:
            parts: Tuple[str, ...] = chain
            if parts[0] != "self" and parts[0] in fp.self_aliases:
                parts = ("self", fp.self_aliases[parts[0]]) + parts[1:]
            if parts[0] == "self" and d is not None:
                if len(parts) == 2:
                    qual = graph.resolve_method(d, parts[1])
                    if qual is not None:
                        return qual, d, overrides
                elif len(parts) >= 3:
                    attr0 = parts[1]
                    owner: Optional[str] = overrides.get(attr0) or graph.attr_type(
                        d, attr0
                    )
                    for part in parts[2:-1]:
                        owner = (
                            graph.attr_type(owner, part)
                            if owner is not None
                            else None
                        )
                    if owner is not None:
                        qual = graph.resolve_method(owner, parts[-1])
                        if qual is not None:
                            callee_over = (
                                self._back_ref_overrides(d, attr0, owner)
                                if len(parts) == 3
                                else {}
                            )
                            return qual, owner, callee_over
        return self._static_fallback(event)

    def _static_fallback(
        self, event: PersistenceEvent
    ) -> Tuple[Optional[str], Optional[str], Dict[str, str]]:
        if event.static is None:
            return None, None, {}
        callee = self.graph.functions.get(event.static)
        return event.static, callee.class_name if callee else None, {}

    def _back_ref_overrides(
        self, d: str, attr0: str, callee_class: str
    ) -> Dict[str, str]:
        """Dynamic types for a ``Cls(self)``-constructed object's back-refs.

        When ``self.<attr0>`` was assigned ``Cls(self)`` somewhere in
        ``d``'s MRO, every attribute of ``Cls`` whose *static* type is a
        base of ``d`` actually holds ``d`` itself at runtime — the
        engines' ``self.replica`` pattern.
        """
        constructed = any(
            attr0 in self._with_self.get(cls, ())
            for cls in self.graph.mro(d)
        )
        if not constructed:
            return {}
        d_mro = self.graph.mro(d)
        overrides: Dict[str, str] = {}
        for cls in self.graph.mro(callee_class):
            node = self.graph.classes.get(cls)
            if node is None:
                continue
            for attr, static_type in node.attr_types.items():
                if attr in overrides:
                    continue
                if static_type != d and static_type in d_mro:
                    overrides[attr] = d
        return overrides

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self, prefixes: Optional[Sequence[str]] = None) -> dict:
        """JSON-ready dict; deterministic order for byte-stability."""

        def keep(module: str) -> bool:
            return not prefixes or under_prefix(module, prefixes)

        functions = {}
        for qualname in sorted(self._fp):
            fp = self._fp[qualname]
            if not keep(fp.module):
                continue
            events = []
            for event in fp.stream:
                entry = {
                    "kind": event.kind,
                    "detail": event.detail,
                    "line": event.line,
                }
                if event.kind == "call" and event.static is not None:
                    entry["target"] = event.static
                events.append(entry)
            functions[qualname] = {
                "module": fp.module,
                "class": fp.class_name,
                "line": fp.lineno,
                "events": events,
                "self_aliases": dict(sorted(fp.self_aliases.items())),
            }
        constructed = {
            cls: sorted(attrs)
            for cls, attrs in sorted(self._with_self.items())
            if keep(self.graph.classes[cls].module)
        }
        return {
            "version": 1,
            "functions": functions,
            "constructed_with_self": constructed,
        }


class _StreamWalker(EvalOrderWalker):
    """Emit a function body as an evaluation-ordered persistence stream."""

    def __init__(
        self, index: PersistenceIndex, node: FunctionNode, fp: FunctionPersistence
    ) -> None:
        self.index = index
        self.node = node
        self.fp = fp
        self.module = index.graph.modules[node.module]
        self.imports = self.module.imports

    # -- event emission -------------------------------------------------
    def _event(
        self,
        kind: str,
        detail: str,
        node: ast.AST,
        chain: Optional[Tuple[str, ...]] = None,
        static: Optional[str] = None,
    ) -> None:
        self.fp.stream.append(
            PersistenceEvent(
                kind,
                detail,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                chain,
                static,
            )
        )

    def emit_store(self, target: ast.AST) -> None:
        """A mutate event for a tracked field, else the target's parts."""
        if isinstance(target, ast.Subscript):
            self.emit(target.slice)
            owner = target.value
        elif isinstance(target, ast.Attribute):
            owner = target
        else:
            return
        chain = _attribute_chain(owner)
        if chain and chain[-1] in self.index.tracked:
            self._event("mutate", chain[-1], target)
        else:
            self.emit(target.value)

    def _emit_Assign(self, item: ast.Assign) -> None:
        super()._emit_Assign(item)
        # ``replica = self.replica``: a local alias the linearizer treats
        # as self-rooted (first binding wins; good enough for the repo's
        # read-only aliasing idiom).
        if (
            len(item.targets) == 1
            and isinstance(item.targets[0], ast.Name)
            and isinstance(item.value, ast.Attribute)
            and isinstance(item.value.value, ast.Name)
            and item.value.value.id == "self"
        ):
            self.fp.self_aliases.setdefault(
                item.targets[0].id, item.value.attr
            )

    def _emit_AugAssign(self, item: ast.AugAssign) -> None:
        self.emit(item.value)
        self.emit_target(item.target)

    # -- calls ----------------------------------------------------------
    def _emit_Call(self, item: ast.Call) -> None:
        self.emit_all(item.args)
        for keyword in item.keywords:
            self.emit(keyword.value)
        chain_list = _attribute_chain(item.func)
        chain = tuple(chain_list) if chain_list else None
        if chain is None:
            sup = _super_attr(item.func)
            if sup is not None:
                chain = ("super", sup)
            else:
                # e.g. ``factory()(args)`` — walk the callable expression.
                self.emit(item.func)
        static = self.node.call_targets.get((item.lineno, item.col_offset))
        if chain is not None:
            # In-place mutators on a tracked container are writes.
            if (
                len(chain) >= 2
                and chain[-1] in MUTATOR_TAILS
                and chain[-2] in self.index.tracked
            ):
                self._event("mutate", chain[-2], item)
                return
            self._file_idioms(item, chain)
        self._event(
            "call",
            ".".join(chain) if chain else (static or "<dynamic>"),
            item,
            chain=chain,
            static=static,
        )

    # -- file-write idioms ----------------------------------------------
    def _file_idioms(self, item: ast.Call, chain: Tuple[str, ...]) -> None:
        tail = chain[-1]
        resolved = ".".join([self.imports.get(chain[0], chain[0])] + list(chain[1:]))
        if resolved in {"os.fsync", "os.fdatasync"} or tail in {
            "fsync",
            "fdatasync",
        }:
            self._event("fsync", resolved, item)
            return
        if resolved in {"os.replace", "os.rename"}:
            self._event("replace", resolved, item)
            return
        if chain == ("open",):
            mode = self._open_mode(item)
            if mode is not None and any(flag in mode for flag in "wxa+"):
                target = item.args[0] if item.args else None
                self._event(
                    "open_write", f"{mode}@{self._target_kind(target)}", item
                )
            return
        if tail in {"write_text", "write_bytes"}:
            receiver = (
                item.func.value if isinstance(item.func, ast.Attribute) else None
            )
            self._event(
                "open_write", f"{tail}@{self._target_kind(receiver)}", item
            )

    @staticmethod
    def _open_mode(item: ast.Call) -> Optional[str]:
        mode_node: Optional[ast.AST] = None
        if len(item.args) >= 2:
            mode_node = item.args[1]
        for keyword in item.keywords:
            if keyword.arg == "mode":
                mode_node = keyword.value
        if mode_node is None:
            return "r"
        if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
            return mode_node.value
        return None

    def _target_kind(self, target: Optional[ast.AST]) -> str:
        """``tmp`` when the write target names a staging file, else ``plain``."""
        if target is None:
            return "plain"
        for node in self.module.walk(target):
            text: Optional[str] = None
            if isinstance(node, ast.Name):
                text = node.id
            elif isinstance(node, ast.Attribute):
                text = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
            if text is not None and any(
                hint in text.lower() for hint in _TMP_HINTS
            ):
                return "tmp"
        return "plain"


def build_persistence(graph: CallGraph) -> PersistenceIndex:
    """Persistence summaries over ``graph``."""
    return PersistenceIndex(graph)
