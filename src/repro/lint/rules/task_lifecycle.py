"""Every spawned task must be joinable: awaited or cancellable somewhere.

The lexical asyncio-hygiene rule already rejects a ``create_task`` whose
result is discarded outright.  This rule upgrades it: a handle that *is*
stored — on ``self._retransmit_task``, in a ``drivers`` list, in a
``handle.monitor`` field — still leaks if no code path ever awaits,
gathers, or cancels what was stored.  A leaked task survives shutdown,
keeps sockets and file descriptors alive, and turns "clean teardown with
no leaked tasks" (the live-cluster recovery invariant) into a lie the
n=4 regression test would only catch by luck.

For a handle retained on an attribute, the rule accepts any of these as
a lifecycle use of that attribute elsewhere in the module: appearing
under an ``await``, being the receiver of ``.cancel()`` /
``.add_done_callback()``, being passed to ``gather`` / ``wait`` /
``wait_for`` / ``shield``, or being moved in an assignment value (the
swap-before-suspend pattern).  For a local, any later use of the name
suffices — locals that are only assigned die with the frame, task and
all.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.lint.engine import Finding, ParsedModule, Rule, register_rule
from repro.lint.flow.callgraph import _attribute_chain
from repro.lint.rules.scopes import imports_asyncio, in_runtime_scope

_TASK_SPAWNERS = ("create_task", "ensure_future")
_JOINERS = ("gather", "wait", "wait_for", "shield")
_LIFECYCLE_METHODS = ("cancel", "add_done_callback")
_COLLECTION_ADDERS = ("add", "append", "add_done_callback")


@register_rule
class TaskLifecycleRule(Rule):
    """Stored task handles that nothing ever awaits or cancels."""

    id = "task-lifecycle"
    description = (
        "a create_task handle stored on an attribute or local must be "
        "awaited, gathered, or cancelled on some path"
    )
    rationale = (
        "A task whose handle is stored but never joined survives "
        "shutdown, holding sockets and timers open; the supervisor's "
        "kill/restart chaos then leaks one orphan per cycle and the "
        "clean-teardown invariant of the recovery argument fails."
    )

    def applies_to(self, module: ParsedModule) -> bool:
        if module.is_test or not in_runtime_scope(module.module):
            return False
        return imports_asyncio(module)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in module.walk():
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if not chain or chain[-1] not in _TASK_SPAWNERS:
                continue
            kind, name = _classify_retention(node, parents)
            if kind == "attr":
                if not _attr_has_lifecycle_use(module, name):
                    yield self.finding(
                        module,
                        node,
                        f"task handle stored on .{name} is never awaited, "
                        "gathered, or cancelled anywhere in this module; "
                        "join it on the shutdown path (or cancel it in "
                        "close()/stop())",
                    )
            elif kind == "local":
                function = _enclosing_function(node, parents)
                if function is not None and not _local_reused(
                    module, function, name, node
                ):
                    yield self.finding(
                        module,
                        node,
                        f"task handle bound to local {name!r} is never used "
                        "again: the handle dies with the frame and the task "
                        "can no longer be awaited or cancelled",
                    )

    # ``discarded`` (a bare Expr statement) is asyncio-hygiene's finding;
    # ``retained``/``unknown`` shapes are accepted without further proof.


def _classify_retention(
    call: ast.Call, parents: Dict[ast.AST, ast.AST]
) -> Tuple[str, Optional[str]]:
    """Where the spawned handle lands: attr, local, retained, discarded."""
    current: ast.AST = call
    while True:
        parent = parents.get(current)
        if parent is None:
            return ("unknown", None)
        if isinstance(parent, ast.NamedExpr):
            target = parent.target
            if isinstance(target, ast.Name):
                return ("local", target.id)
            return ("unknown", None)
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            if isinstance(target, ast.Name):
                return ("local", target.id)
            if isinstance(target, ast.Attribute):
                return ("attr", target.attr)
            return ("unknown", None)
        if isinstance(parent, ast.AnnAssign) and isinstance(
            parent.target, ast.Attribute
        ):
            return ("attr", parent.target.attr)
        if isinstance(parent, ast.Call) and current is not parent.func:
            chain = _attribute_chain(parent.func)
            if chain and len(chain) >= 3 and chain[-1] in _COLLECTION_ADDERS:
                # ``self._tasks.add(create_task(...))``: retention is the
                # collection attribute.
                return ("attr", chain[-2])
            return ("retained", None)  # e.g. gather(create_task(...))
        if isinstance(parent, (ast.Await, ast.Return)):
            return ("retained", None)
        if isinstance(parent, ast.Expr):
            return ("discarded", None)
        if isinstance(parent, ast.stmt):
            return ("unknown", None)
        current = parent


def _attr_has_lifecycle_use(module: ParsedModule, attr: Optional[str]) -> bool:
    """Is attribute ``attr`` joined/cancelled/moved anywhere in the module?"""
    if attr is None:
        return True
    for node in module.walk():
        if isinstance(node, ast.Await):
            if _subtree_loads_attr(module, node.value, attr):
                return True
        elif isinstance(node, ast.Call):
            chain = _attribute_chain(node.func)
            if chain and chain[-1] in _LIFECYCLE_METHODS:
                if isinstance(node.func, ast.Attribute) and _subtree_loads_attr(
                    module, node.func.value, attr
                ):
                    return True
            if chain and chain[-1] in _JOINERS:
                for arg in node.args:
                    if _subtree_loads_attr(module, arg, attr):
                        return True
        elif isinstance(node, ast.Assign):
            if _subtree_loads_attr(module, node.value, attr):
                return True
    return False


def _subtree_loads_attr(module: ParsedModule, node: ast.AST, attr: str) -> bool:
    return any(
        isinstance(item, ast.Attribute)
        and item.attr == attr
        and isinstance(item.ctx, ast.Load)
        for item in module.walk(node)
    )


def _enclosing_function(
    node: ast.AST, parents: Dict[ast.AST, ast.AST]
) -> Optional[ast.AST]:
    current: Optional[ast.AST] = node
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = parents.get(current)
    return None


def _local_reused(
    module: ParsedModule, function: ast.AST, name: Optional[str], spawn: ast.Call
) -> bool:
    """Any use of local ``name`` besides the spawning statement itself."""
    if name is None:
        return True
    spawn_line = spawn.lineno
    for item in module.walk(function):
        if (
            isinstance(item, ast.Name)
            and item.id == name
            and isinstance(item.ctx, ast.Load)
            and item.lineno != spawn_line
        ):
            return True
    return False
