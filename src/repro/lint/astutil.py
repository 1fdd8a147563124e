"""Small AST helpers shared by the lint rules."""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.lint.engine import ParsedModule


def under_prefix(name: str, prefixes: Iterable[str]) -> bool:
    """True when dotted ``name`` is one of ``prefixes`` or lies below one."""
    return any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_map(module: "ParsedModule") -> Dict[str, str]:
    """Local name -> imported dotted path, for every import in the module.

    ``import time as t`` maps ``t -> time``; ``from datetime import
    datetime`` maps ``datetime -> datetime.datetime``.  Imports inside
    function bodies and ``TYPE_CHECKING`` blocks count too: the replica
    imports its view-change engines inside ``__init__`` to break a module
    cycle, and those are exactly the types the call graph needs.  Relative
    imports resolve against the module's package (``from . import x`` in
    ``a/b.py`` or ``a/__init__.py`` is ``a.x``).  Rules and the call graph
    read it as :attr:`ParsedModule.imports
    <repro.lint.engine.ParsedModule.imports>`, computed once per module.
    """
    package = module.module.split(".")
    if not module.path.endswith("__init__.py"):
        package = package[:-1]  # a plain module's package is its parent
    mapping: Dict[str, str] = {}
    for node in module.walk():
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                mapping[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # ``from . import x`` / ``from ..pkg import x``.
                if node.level - 1 >= len(package):
                    continue  # climbs above the scanned root
                parts = package[: len(package) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            else:
                base = node.module
            for alias in node.names:
                mapping[alias.asname or alias.name] = f"{base}.{alias.name}"
    return mapping


def resolve_call(imports: Dict[str, str], func: ast.AST) -> Optional[str]:
    """Resolve a call target through the import map.

    ``t.time`` with ``t -> time`` resolves to ``time.time``; a bare name
    imported via ``from time import perf_counter`` resolves to
    ``time.perf_counter``.  Unresolvable heads (locals, parameters) return
    the raw dotted chain so callers can still match explicit suffixes.
    """
    chain = dotted_name(func)
    if chain is None:
        return None
    head, _, rest = chain.partition(".")
    resolved_head = imports.get(head, head)
    return f"{resolved_head}.{rest}" if rest else resolved_head


def iter_comprehension_iters(
    module: "ParsedModule",
) -> Iterator[Tuple[ast.AST, ast.AST]]:
    """Yield ``(owner, iterable)`` for for-loops and comprehension clauses."""
    for node in module.walk():
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                yield node, generator.iter


def dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    """The ``@dataclass`` / ``@dataclasses.dataclass`` decorator, if any."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name in ("dataclass", "dataclasses.dataclass"):
            return decorator
    return None


def dataclass_is_frozen(decorator: ast.AST) -> bool:
    """True when the dataclass decorator passes ``frozen=True``."""
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            return isinstance(keyword.value, ast.Constant) and keyword.value.value is True
    return False


def class_defines_slots(node: ast.ClassDef) -> bool:
    """True when the class body assigns ``__slots__`` directly."""
    for statement in node.body:
        targets: List[ast.AST] = []
        if isinstance(statement, ast.Assign):
            targets = list(statement.targets)
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def is_set_expression(node: ast.AST) -> bool:
    """Syntactically set-valued: a set display, set comprehension, or a
    call to the ``set``/``frozenset`` builtins."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def async_function_names(module: "ParsedModule") -> set:
    """Names of every ``async def`` in the module (functions and methods)."""
    return {
        node.name
        for node in module.walk()
        if isinstance(node, ast.AsyncFunctionDef)
    }


def enclosing_async_spans(module: "ParsedModule") -> List[Tuple[int, int]]:
    """(first, last) line spans of every async function body."""
    spans: List[Tuple[int, int]] = []
    for node in module.walk():
        if isinstance(node, ast.AsyncFunctionDef):
            end = getattr(node, "end_lineno", node.lineno)
            spans.append((node.lineno, end or node.lineno))
    return spans
