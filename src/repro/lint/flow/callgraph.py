"""Project call graph over the parsed lint modules.

The graph resolves, statically and without importing anything:

- **bare-name calls** to functions defined in the same module;
- **imported calls**, through module-level *and* function-local import
  aliases (``from repro.core.validation import verify_qc as vq; vq(...)``);
- **``self.method(...)``** through the enclosing class and its project
  base classes (``Replica(Process)`` resolves ``self.set_timer`` into
  :mod:`repro.sim.process`);
- **typed-attribute calls** — ``self.safety.update_lock(...)`` resolves
  through the inferred type of ``self.safety`` (from ``self.safety =
  SafetyRules(...)`` constructor assignments, annotated ``self.x:
  Optional[T]`` declarations, and parameter annotations, including string
  annotations under ``TYPE_CHECKING``);
- **constructor calls**, which edge to the class's ``__init__`` when it
  defines one (and to the class node otherwise).

Anything else lands in the per-function ``unresolved`` list with its raw
dotted chain, so the serialized graph says what the analysis could *not*
see — a dataflow result is only trustworthy alongside that list.

The graph serializes to JSON (:meth:`CallGraph.to_json`) with every
collection sorted, so two builds of the same tree are byte-identical and
per-PR graph diffs are reviewable (the CI lint job uploads the dump as an
artifact).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.astutil import dotted_name, under_prefix
from repro.lint.engine import ParsedModule

__all__ = [
    "CallGraph",
    "ClassNode",
    "FunctionNode",
    "build_call_graph",
]


class FunctionNode:
    """One function or method definition in the project."""

    __slots__ = (
        "qualname",
        "module",
        "name",
        "class_name",
        "lineno",
        "params",
        "node",
        "calls",
        "call_targets",
        "unresolved",
    )

    def __init__(
        self,
        qualname: str,
        module: str,
        name: str,
        class_name: Optional[str],
        lineno: int,
        params: List[str],
        node: ast.AST,
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.name = name
        #: Enclosing class qualname, or None for a module-level function.
        self.class_name = class_name
        self.lineno = lineno
        #: Positional parameter names, ``self`` excluded for methods.
        self.params = params
        self.node = node
        #: Resolved project-internal call targets (qualnames).
        self.calls: Set[str] = set()
        #: Per-call-site resolution, keyed by ``(lineno, col_offset)`` of
        #: the ``ast.Call`` node — the dataflow engine's lookup table.
        self.call_targets: Dict[Tuple[int, int], str] = {}
        #: Raw dotted chains the resolver could not map to a project def.
        self.unresolved: Set[str] = set()

    def to_json(self) -> dict:
        return {
            "module": self.module,
            "class": self.class_name,
            "line": self.lineno,
            "params": list(self.params),
            "calls": sorted(self.calls),
            "unresolved": sorted(self.unresolved),
        }


class ClassNode:
    """One class definition: bases, methods, inferred attribute types."""

    __slots__ = ("qualname", "module", "name", "lineno", "bases", "methods", "attr_types")

    def __init__(self, qualname: str, module: str, name: str, lineno: int) -> None:
        self.qualname = qualname
        self.module = module
        self.name = name
        self.lineno = lineno
        #: Base-class qualnames resolved into the project (others dropped).
        self.bases: List[str] = []
        #: method name -> function qualname.
        self.methods: Dict[str, str] = {}
        #: ``self.<attr>`` name -> inferred class qualname.
        self.attr_types: Dict[str, str] = {}

    def to_json(self) -> dict:
        return {
            "module": self.module,
            "line": self.lineno,
            "bases": list(self.bases),
            "methods": dict(sorted(self.methods.items())),
            "attr_types": dict(sorted(self.attr_types.items())),
        }


class CallGraph:
    """Def/use-resolved call graph of the scanned project tree."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassNode] = {}
        #: dotted module name -> the parsed module it was built from (its
        #: ``imports`` is the import map every analysis resolves through).
        self.modules: Dict[str, ParsedModule] = {}

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def function(self, qualname: str) -> Optional[FunctionNode]:
        return self.functions.get(qualname)

    def mro(self, class_qualname: str) -> List[str]:
        """The class plus its project bases, depth-first, cycle-safe."""
        order: List[str] = []
        stack = [class_qualname]
        seen: Set[str] = set()
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            order.append(current)
            stack.extend(self.classes[current].bases)
        return order

    def resolve_method(self, class_qualname: str, method: str) -> Optional[str]:
        """Resolve ``method`` on a class through its project bases."""
        for cls in self.mro(class_qualname):
            qual = self.classes[cls].methods.get(method)
            if qual is not None:
                return qual
        return None

    def attr_type(self, class_qualname: str, attr: str) -> Optional[str]:
        """Inferred type of ``self.<attr>``, searched through the bases."""
        for cls in self.mro(class_qualname):
            found = self.classes[cls].attr_types.get(attr)
            if found is not None:
                return found
        return None

    def reachable_from(self, roots: Sequence[str]) -> Set[str]:
        """Every function qualname reachable from ``roots`` (inclusive)."""
        seen: Set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(
                callee
                for callee in self.functions[current].calls
                if callee not in seen and callee in self.functions
            )
        return seen

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self, prefixes: Optional[Sequence[str]] = None) -> dict:
        """JSON-ready dict; every collection sorted for byte-stability.

        ``prefixes`` restricts the dump to functions/classes under those
        dotted module prefixes (edges to the rest of the tree are kept, so
        a ``repro.core`` dump still names its calls into ``repro.ledger``).
        """

        def keep(module: str) -> bool:
            return not prefixes or under_prefix(module, prefixes)

        return {
            "version": 1,
            "functions": {
                qual: node.to_json()
                for qual, node in sorted(self.functions.items())
                if keep(node.module)
            },
            "classes": {
                qual: node.to_json()
                for qual, node in sorted(self.classes.items())
                if keep(node.module)
            },
        }


def _annotation_class(node: Optional[ast.AST]) -> Optional[str]:
    """Extract a plain class name from an annotation expression.

    Unwraps ``Optional[T]`` / ``"T"`` string annotations; gives up on
    anything fancier (unions, generics over project types).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = head.attr if isinstance(head, ast.Attribute) else (
            head.id if isinstance(head, ast.Name) else None
        )
        if head_name == "Optional":
            return _annotation_class(node.slice)
        return None
    return dotted_name(node)


def _attribute_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name-rooted chains."""
    name = dotted_name(node)
    return None if name is None else name.split(".")


def _iter_defs(
    tree: ast.Module,
) -> Iterator[Tuple[Optional[ast.ClassDef], ast.AST]]:
    """Yield ``(enclosing_class, def)`` for top-level functions, classes,
    and methods (nested defs stay attached to their enclosing function)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node, item


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
class _ModuleContext:
    """Per-module resolution state shared by the two build passes."""

    __slots__ = ("module", "local_defs")

    def __init__(self, module: ParsedModule) -> None:
        self.module = module
        #: name defined at module level -> qualname.
        self.local_defs: Dict[str, str] = {}


def build_call_graph(modules: Sequence[ParsedModule]) -> CallGraph:
    """Build the project call graph from parsed (non-test) modules."""
    graph = CallGraph()
    contexts: List[_ModuleContext] = []

    # Pass 1: declare every function, method, and class.
    for module in modules:
        if module.is_test or module.skipped:
            continue
        context = _ModuleContext(module)
        contexts.append(context)
        graph.modules.setdefault(module.module, module)
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                class_qual = f"{module.module}.{node.name}"
                graph.classes.setdefault(
                    class_qual,
                    ClassNode(class_qual, module.module, node.name, node.lineno),
                )
                context.local_defs.setdefault(node.name, class_qual)
        for class_def, func in _iter_defs(module.tree):
            params = [a.arg for a in func.args.args]
            if class_def is None:
                qual = f"{module.module}.{func.name}"
                context.local_defs.setdefault(func.name, qual)
                graph.functions[qual] = FunctionNode(
                    qual, module.module, func.name, None, func.lineno, params, func
                )
                continue
            class_qual = f"{module.module}.{class_def.name}"
            qual = f"{class_qual}.{func.name}"
            if params and params[0] == "self":
                params = params[1:]
            graph.functions[qual] = FunctionNode(
                qual, module.module, func.name, class_qual, func.lineno, params, func
            )
            graph.classes[class_qual].methods[func.name] = qual

    # Pass 2a: resolve base classes (needs every class declared).
    for context in contexts:
        for node in context.module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            class_node = graph.classes[f"{context.module.module}.{node.name}"]
            for base in node.bases:
                base_qual = _resolve_name(graph, context, base)
                if base_qual is not None and base_qual in graph.classes:
                    class_node.bases.append(base_qual)

    # Pass 2b: infer attribute types, then resolve call edges (attribute
    # types feed typed-attribute call resolution, so they go first).
    for context in contexts:
        for class_def, func in _iter_defs(context.module.tree):
            if class_def is not None:
                _infer_attr_types(graph, context, class_def, func)
    for context in contexts:
        for class_def, func in _iter_defs(context.module.tree):
            qual = (
                f"{context.module.module}.{func.name}"
                if class_def is None
                else f"{context.module.module}.{class_def.name}.{func.name}"
            )
            _resolve_calls(graph, context, graph.functions[qual], func)
    return graph


def _resolve_name(
    graph: CallGraph, context: _ModuleContext, node: ast.AST
) -> Optional[str]:
    """Resolve a Name/Attribute expression to a project qualname."""
    chain = _attribute_chain(node)
    if chain is None:
        return None
    head, rest = chain[0], chain[1:]
    candidates = []
    if head in context.local_defs:
        candidates.append(context.local_defs[head])
    imports = context.module.imports
    if head in imports:
        candidates.append(imports[head])
    candidates.append(head)  # a plain module reference (``repro.x.y``)
    for candidate in candidates:
        dotted = ".".join([candidate] + rest)
        if dotted in graph.classes or dotted in graph.functions:
            return dotted
    return None


def _param_types(
    graph: CallGraph, context: _ModuleContext, func: ast.AST
) -> Dict[str, str]:
    """Parameter name -> project class qualname, from annotations."""
    types: Dict[str, str] = {}
    for arg in list(func.args.args) + list(func.args.kwonlyargs):
        name = _annotation_class(arg.annotation)
        if name is None:
            continue
        qual = _lookup_class(graph, context, name)
        if qual is not None:
            types[arg.arg] = qual
    return types


def _lookup_class(
    graph: CallGraph, context: _ModuleContext, name: str
) -> Optional[str]:
    """Resolve a (possibly dotted) class name through the import map."""
    head, _, rest = name.partition(".")
    for candidate in (
        context.local_defs.get(head),
        context.module.imports.get(head),
        head,
    ):
        if candidate is None:
            continue
        dotted = f"{candidate}.{rest}" if rest else candidate
        if dotted in graph.classes:
            return dotted
    return None


def _infer_attr_types(
    graph: CallGraph,
    context: _ModuleContext,
    class_def: ast.ClassDef,
    func: ast.AST,
) -> None:
    """Record ``self.<attr>`` types visible in one method."""
    class_node = graph.classes[f"{context.module.module}.{class_def.name}"]
    param_types = _param_types(graph, context, func)
    for node in context.module.walk(func):
        target: Optional[ast.AST] = None
        value: Optional[ast.AST] = None
        annotation: Optional[ast.AST] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value, annotation = node.target, node.value, node.annotation
        if (
            not isinstance(target, ast.Attribute)
            or not isinstance(target.value, ast.Name)
            or target.value.id != "self"
        ):
            continue
        attr = target.attr
        # ``x if cond else Cls()`` defaults: either branch may carry the
        # type (``self.journal = journal if journal is not None else
        # SafetyJournal()``); take the first branch that infers.
        candidates: List[Optional[ast.AST]] = (
            [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
        )
        inferred: Optional[str] = None
        if annotation is not None:
            name = _annotation_class(annotation)
            if name is not None:
                inferred = _lookup_class(graph, context, name)
        for value in candidates:
            if inferred is not None:
                break
            if isinstance(value, ast.Call):
                inferred = _resolve_name(graph, context, value.func)
                if inferred is not None and inferred not in graph.classes:
                    inferred = None
            elif isinstance(value, ast.Name):
                inferred = param_types.get(value.id)
            elif isinstance(value, ast.Attribute):
                # ``self.crypto = replica.crypto``: chase one typed hop.
                chain = _attribute_chain(value)
                if chain is not None and len(chain) == 2:
                    owner = param_types.get(chain[0])
                    if owner is not None:
                        inferred = graph.attr_type(owner, chain[1])
        if inferred is not None:
            class_node.attr_types.setdefault(attr, inferred)


def _constructor_target(graph: CallGraph, class_qual: str) -> str:
    """Edge target for a constructor call: ``__init__`` when defined."""
    init = graph.resolve_method(class_qual, "__init__")
    return init if init is not None else class_qual


def _resolve_calls(
    graph: CallGraph,
    context: _ModuleContext,
    node: FunctionNode,
    func: ast.AST,
) -> None:
    param_types = _param_types(graph, context, func)
    #: local variable -> class qualname (``engine = FallbackEngine(...)``).
    local_types: Dict[str, str] = dict(param_types)
    for stmt in context.module.walk(func):
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            constructed = _resolve_name(graph, context, stmt.value.func)
            if constructed is not None and constructed in graph.classes:
                local_types[stmt.targets[0].id] = constructed

    for call in context.module.walk(func):
        if not isinstance(call, ast.Call):
            continue
        target = _resolve_call_target(graph, context, node, call.func, local_types)
        if target is not None:
            node.calls.add(target)
            node.call_targets[(call.lineno, call.col_offset)] = target
        else:
            chain = _attribute_chain(call.func)
            if chain is not None:
                node.unresolved.add(".".join(chain))
            elif _super_attr(call.func) is not None:
                node.unresolved.add(f"super().{_super_attr(call.func)}")


def _super_attr(func: ast.AST) -> Optional[str]:
    """``super().m`` -> ``"m"``; None for anything else (incl. 2-arg super)."""
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
        and not func.value.args
    ):
        return func.attr
    return None


def _resolve_call_target(
    graph: CallGraph,
    context: _ModuleContext,
    node: FunctionNode,
    func: ast.AST,
    local_types: Dict[str, str],
) -> Optional[str]:
    chain = _attribute_chain(func)
    if chain is None:
        # ``super().method(...)``: the MRO search starts *after* the
        # defining class, which is exactly Python's zero-arg super.
        method = _super_attr(func)
        if method is not None and node.class_name is not None:
            for cls in graph.mro(node.class_name)[1:]:
                qual = graph.classes[cls].methods.get(method)
                if qual is not None:
                    return qual
        return None
    head, rest = chain[0], chain[1:]

    # ``self.method(...)`` and ``self.attr.method(...)``.
    if head == "self" and node.class_name is not None:
        if len(rest) == 1:
            resolved = graph.resolve_method(node.class_name, rest[0])
            if resolved is not None:
                return resolved
            attr_cls = graph.attr_type(node.class_name, rest[0])
            if attr_cls is not None:  # ``self.factory(...)`` on a class attr
                return _constructor_target(graph, attr_cls)
        elif len(rest) == 2:
            attr_cls = graph.attr_type(node.class_name, rest[0])
            if attr_cls is not None:
                resolved = graph.resolve_method(attr_cls, rest[1])
                if resolved is not None:
                    return resolved
        return None

    # ``obj.method(...)`` with a typed parameter or local.
    if head in local_types and rest:
        owner: Optional[str] = local_types[head]
        for part in rest[:-1]:
            owner = graph.attr_type(owner, part) if owner is not None else None
        if owner is not None:
            resolved = graph.resolve_method(owner, rest[-1])
            if resolved is not None:
                return resolved
        return None

    # Bare or dotted names through local defs and the import map.
    resolved = _resolve_name(graph, context, func)
    if resolved is not None:
        if resolved in graph.classes:
            return _constructor_target(graph, resolved)
        return resolved
    return None
