"""Crash-consistency rules: the write-ahead discipline, verified.

Four rules consume the persistence summaries in
:mod:`repro.lint.flow.persistence` (and a little direct AST inspection)
to prove the contract the recovery lemmas assume:

- ``persist-before-send`` — on every handler path of a journaled
  replica class, a safety-state mutation must reach the journal before
  any externally visible send.  A vote that leaves the box before its
  journal record lands is the equivocation-after-crash window: SIGKILL
  in between, restart, and the replica can vote differently for the
  same round.
- ``journal-coverage`` — the snapshot dataclass, the dict codec
  (``snapshot_to_dict`` / ``snapshot_from_dict``), and the replica's
  ``_persist`` / ``_restore`` must agree field-for-field, and every
  safety-state field owned by the durable restore path must be covered.
  A field persisted-but-never-restored (or vice versa) is state the
  recovery argument silently loses.
- ``atomic-replace`` — file writes in the storage and runtime layers
  must be append-mode (self-validating CRC-framed logs) or staged as
  tmp-write → fsync → ``os.replace``; anything else can leave a
  half-written file a reader will trust.
- ``monotonic-restore`` — restored snapshot values may only flow into
  adopt/max-merge sinks, never plain assignment that could regress
  ``rank_lock`` or ``r_vote`` below what a previous incarnation already
  acted on.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.astutil import under_prefix
from repro.lint.engine import (
    Finding,
    ParsedModule,
    ProjectRule,
    Rule,
    register_rule,
)
from repro.lint.flow.callgraph import _attribute_chain
from repro.lint.flow.persistence import SAFETY_FIELDS
from repro.lint.flow.project import Project

#: Handler roots whose linearized streams the write-ahead rule checks.
HANDLER_ROOTS = ("deliver", "on_timer", "on_start", "recover")

#: Snapshot fields that persist each durable-owned safety-state field.
OWNED_SNAPSHOT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "r_vote": ("r_vote",),
    "rank_lock": ("rank_lock",),
    "_fallback_votes": ("fallback_view", "fallback_r_vote", "fallback_h_vote"),
}

#: The module that owns the durable restore path (per the ownership map).
RESTORE_OWNER_MODULE = "repro.storage.durable"

#: Snapshot fields whose restore must be an adopt/max-merge, never a
#: plain assignment (they are monotone over a replica's lifetime).
MONOTONE_FIELDS = frozenset(
    {"r_vote", "rank_lock", "v_cur", "fallbacks_entered", "entered_view"}
)


@register_rule
class PersistBeforeSendRule(ProjectRule):
    """A journaled replica must persist safety mutations before sending."""

    id = "persist-before-send"
    description = (
        "on journaled replica classes, every handler path must reach the "
        "safety journal before any network send that follows a "
        "safety-state mutation"
    )
    rationale = (
        "The recovery lemmas assume (sent => persisted): a vote that is "
        "externally visible before its journal record lands lets a "
        "SIGKILL between the send and the write produce a restarted "
        "replica that equivocates — two conflicting quorums, Lemma 4/5 "
        "broken.  Defer sends (outbox) and flush after the journal write."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        index = project.persistence
        graph = index.graph
        reported: Set[str] = set()
        for class_qual in sorted(graph.classes):
            streams: Dict[str, Tuple[str, list]] = {}
            durable = False
            for root in HANDLER_ROOTS:
                fn_qual = graph.resolve_method(class_qual, root)
                if fn_qual is None:
                    continue
                stream = index.linearize(fn_qual, dyn_class=class_qual)
                streams[root] = (fn_qual, stream)
                durable = durable or any(e.kind == "journal" for e in stream)
            if not durable:
                continue  # not a journaled class; nothing to order against
            for root in HANDLER_ROOTS:
                if root not in streams:
                    continue
                fn_qual, stream = streams[root]
                if fn_qual in reported:
                    continue
                violation = self._first_violation(stream)
                if violation is None:
                    continue
                reported.add(fn_qual)
                fields, send_event = violation
                handler = graph.functions[fn_qual]
                via = " -> ".join(send_event.via) if send_event.via else ""
                yield Finding(
                    path=project.paths[handler.module],
                    line=handler.lineno,
                    col=1,
                    rule=self.id,
                    message=(
                        f"{class_qual.rsplit('.', 1)[-1]}.{root}: mutates "
                        f"safety state ({', '.join(fields)}) and reaches "
                        f"{send_event.detail} (line {send_event.line}"
                        + (f", via {via}" if via else "")
                        + ") before any journal write; defer the send until "
                        "after _persist (persist-then-flush outbox)"
                    ),
                    severity=self.severity,
                )

    @staticmethod
    def _first_violation(stream) -> Optional[Tuple[List[str], object]]:
        pending: Set[str] = set()
        for event in stream:
            if event.kind == "mutate":
                pending.add(event.detail)
            elif event.kind == "journal":
                pending.clear()
            elif event.kind == "send" and pending:
                return sorted(pending), event
        return None


@register_rule
class JournalCoverageRule(ProjectRule):
    """Snapshot codec, persist and restore must agree field-for-field."""

    id = "journal-coverage"
    description = (
        "SafetySnapshot fields, snapshot_to_dict/snapshot_from_dict keys, "
        "and _persist/_restore field sets must be the same set; "
        "durable-owned safety fields must be covered"
    )
    rationale = (
        "A field persisted but never restored is safety state the "
        "recovery path silently zeroes (r_vote regression => double "
        "vote); one restored but never persisted reads garbage.  The "
        "recovery lemmas quantify over *all* journaled state, so the "
        "three layers must enumerate the same fields."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        subjects = _CoverageSubjects.collect(project.modules)
        if subjects.snapshot_fields is None:
            return  # no snapshot dataclass in this tree; rule is inert
        fields = subjects.snapshot_fields
        checks = [
            (subjects.to_dict, "snapshot_to_dict", "serializes"),
            (subjects.from_dict, "snapshot_from_dict", "rebuilds"),
            (subjects.persist, "_persist", "persists"),
            (subjects.restore, "_restore", "restores"),
        ]
        for found, name, verb in checks:
            if found is None:
                continue
            module, node, seen = found
            missing = sorted(fields - seen)
            extra = sorted(seen - fields)
            if missing:
                yield self._finding(
                    module,
                    node,
                    f"{name} never {verb} snapshot field(s) "
                    f"{', '.join(missing)}; a crash forgets them",
                )
            if extra:
                yield self._finding(
                    module,
                    node,
                    f"{name} handles field(s) {', '.join(extra)} that "
                    "SafetySnapshot does not declare",
                )
        # Ownership coverage: every safety field the durable restore path
        # owns must round-trip through persist and restore.
        owned = sorted(
            field
            for field, owners in SAFETY_FIELDS.items()
            if RESTORE_OWNER_MODULE in owners
        )
        for found, name in (
            (subjects.persist, "_persist"),
            (subjects.restore, "_restore"),
        ):
            if found is None:
                continue
            module, node, seen = found
            for field in owned:
                snapshot_fields = OWNED_SNAPSHOT_FIELDS.get(field, (field,))
                uncovered = sorted(set(snapshot_fields) - seen)
                if uncovered:
                    yield self._finding(
                        module,
                        node,
                        f"{name} does not cover safety-state field "
                        f"{field} (snapshot field(s) "
                        f"{', '.join(uncovered)}); the ownership map says "
                        "the durable path must round-trip it",
                    )

    def _finding(self, module: ParsedModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
            severity=self.severity,
        )


class _CoverageSubjects:
    """Located snapshot codec and persist/restore subjects + field sets."""

    def __init__(self) -> None:
        self.snapshot_fields: Optional[FrozenSet[str]] = None
        #: (module, def node, field-name set) per located subject.
        self.to_dict: Optional[Tuple[ParsedModule, ast.AST, Set[str]]] = None
        self.from_dict: Optional[Tuple[ParsedModule, ast.AST, Set[str]]] = None
        self.persist: Optional[Tuple[ParsedModule, ast.AST, Set[str]]] = None
        self.restore: Optional[Tuple[ParsedModule, ast.AST, Set[str]]] = None

    @classmethod
    def collect(cls, project: Sequence[ParsedModule]) -> "_CoverageSubjects":
        subjects = cls()
        for module in project:
            for node in module.walk():
                if isinstance(node, ast.ClassDef) and node.name == "SafetySnapshot":
                    subjects.snapshot_fields = frozenset(
                        item.target.id
                        for item in node.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                    )
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if node.name == "snapshot_to_dict":
                        subjects.to_dict = (module, node, cls._dict_keys(module, node))
                    elif node.name == "snapshot_from_dict":
                        subjects.from_dict = (
                            module,
                            node,
                            cls._constructor_kwargs(module, node),
                        )
                    elif node.name == "_persist":
                        subjects.persist = (
                            module,
                            node,
                            cls._constructor_kwargs(module, node)
                            | cls._snapshot_stores(module, node),
                        )
                    elif node.name == "_restore":
                        subjects.restore = (
                            module, node, cls._snapshot_reads(module, node)
                        )
        return subjects

    @staticmethod
    def _dict_keys(module: ParsedModule, node: ast.AST) -> Set[str]:
        keys: Set[str] = set()
        for item in module.walk(node):
            if isinstance(item, ast.Dict):
                keys.update(
                    key.value
                    for key in item.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
        return keys

    @staticmethod
    def _constructor_kwargs(module: ParsedModule, node: ast.AST) -> Set[str]:
        kwargs: Set[str] = set()
        for item in module.walk(node):
            if not isinstance(item, ast.Call):
                continue
            chain = _attribute_chain(item.func)
            if chain and chain[-1] == "SafetySnapshot":
                kwargs.update(
                    keyword.arg
                    for keyword in item.keywords
                    if keyword.arg is not None
                )
        return kwargs

    @staticmethod
    def _snapshot_stores(module: ParsedModule, node: ast.AST) -> Set[str]:
        stores: Set[str] = set()
        for item in module.walk(node):
            if (
                isinstance(item, ast.Attribute)
                and isinstance(item.ctx, ast.Store)
                and isinstance(item.value, ast.Name)
                and item.value.id == "snapshot"
            ):
                stores.add(item.attr)
        return stores

    @staticmethod
    def _snapshot_reads(module: ParsedModule, node: ast.AST) -> Set[str]:
        reads: Set[str] = set()
        for item in module.walk(node):
            if (
                isinstance(item, ast.Attribute)
                and isinstance(item.ctx, ast.Load)
                and isinstance(item.value, ast.Name)
                and item.value.id == "snapshot"
            ):
                reads.add(item.attr)
        return reads


@register_rule
class AtomicReplaceRule(ProjectRule):
    """Storage/runtime file writes: append-mode or tmp -> fsync -> replace."""

    id = "atomic-replace"
    description = (
        "file writes under storage/ and runtime/ must be append-mode or "
        "staged tmp-write -> fsync -> os.replace"
    )
    rationale = (
        "A status/spec/journal file a crashed writer left half-written is "
        "read back by the supervisor or the next incarnation; append-mode "
        "CRC-framed logs self-validate their tail, and tmp+fsync+replace "
        "is atomic on POSIX — anything else turns kill -9 into corrupted "
        "recovery input."
    )

    _SCOPES = ("repro.storage", "repro.runtime")

    def check_project(self, project: Project) -> Iterator[Finding]:
        index = project.persistence
        for qualname in index.qualnames():
            fp = index.persistence(qualname)
            if fp is None or not under_prefix(fp.module, self._SCOPES):
                continue
            writes = [e for e in fp.stream if e.kind == "open_write"]
            if not writes:
                continue
            path = project.paths[fp.module]
            kinds = {e.kind for e in fp.stream}
            has_fsync = "fsync" in kinds
            has_replace = "replace" in kinds
            for write in writes:
                mode, _, target_kind = write.detail.partition("@")
                if mode.startswith("a"):
                    continue  # append-mode logs self-validate their tail
                if target_kind == "tmp":
                    missing = []
                    if not has_fsync:
                        missing.append("fsync")
                    if not has_replace:
                        missing.append("os.replace")
                    if missing:
                        yield Finding(
                            path=path,
                            line=write.line,
                            col=write.col + 1,
                            rule=self.id,
                            message=(
                                f"tmp-file write ({mode}) is missing "
                                f"{' and '.join(missing)} before it can be "
                                "atomically published"
                            ),
                            severity=self.severity,
                        )
                else:
                    yield Finding(
                        path=path,
                        line=write.line,
                        col=write.col + 1,
                        rule=self.id,
                        message=(
                            f"non-atomic file write ({mode}): a crash "
                            "mid-write leaves a torn file; stage it as "
                            "tmp-write -> fsync -> os.replace (or use an "
                            "append-mode framed log)"
                        ),
                        severity=self.severity,
                    )


@register_rule
class MonotonicRestoreRule(Rule):
    """Restored snapshot values must flow through adopt/max-merge sinks."""

    id = "monotonic-restore"
    description = (
        "restore paths may not plain-assign monotone snapshot fields "
        "(r_vote/rank_lock/v_cur/...); merge with max() or an adopt API"
    )
    rationale = (
        "r_vote and rank_lock only ever grow while a replica lives; a "
        "restore that plain-assigns them can regress the state below "
        "votes the previous incarnation already sent (a stale snapshot, "
        "a double restore), which is exactly the Lemma 4/5 violation the "
        "journal exists to prevent.  max-merge is a no-op on the normal "
        "fresh-state restore and a safety net everywhere else."
    )

    def applies_to(self, module: ParsedModule) -> bool:
        return not module.is_test and module.module.startswith("repro.storage")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for func in module.walk():
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            snapshot_params = {
                arg.arg
                for arg in list(func.args.args) + list(func.args.kwonlyargs)
                if arg.arg == "snapshot"
                or self._is_snapshot_annotation(arg.annotation)
            }
            if not snapshot_params:
                continue
            for stmt in module.walk(func):
                if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                    continue
                target = stmt.targets[0]
                if (
                    not isinstance(target, ast.Attribute)
                    or target.attr not in MONOTONE_FIELDS
                ):
                    continue
                chain = _attribute_chain(stmt.value)
                if chain is None or chain[0] not in snapshot_params:
                    continue
                yield self.finding(
                    module,
                    stmt,
                    f"plain assignment restores monotone field "
                    f".{target.attr} from {'.'.join(chain)}; use "
                    "max(current, restored) or an adopt API so a restore "
                    "can never regress it",
                )

    @staticmethod
    def _is_snapshot_annotation(annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        text = ast.dump(annotation)
        return "SafetySnapshot" in text
