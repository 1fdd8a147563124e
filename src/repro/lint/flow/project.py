"""The interprocedural project of one lint pass, analysed at most once.

:func:`repro.lint.engine.lint_modules` builds one :class:`Project` per
call, hands it to every :class:`~repro.lint.engine.ProjectRule` and
widens its changed paths through :meth:`Project.neighborhood`; the CLI's
dumps come from one too.  It owns the choice of modules that form the
interprocedural tree, and builds its call graph, effect summaries and
persistence summaries lazily, each exactly once, however many rules
consume them.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Optional, Sequence, Set

from repro.lint.astutil import under_prefix
from repro.lint.engine import ParsedModule
from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.flow.effects import EffectsIndex, build_effects
from repro.lint.flow.persistence import PersistenceIndex, build_persistence

__all__ = ["PROJECT_PACKAGE", "Project"]

#: The package whose modules form the interprocedural project.
PROJECT_PACKAGE = "repro"


class Project:
    """One pass's modules and the flow analyses built over them.

    Attributes:
        all_modules: every module the pass lints — tests included, files
            with a ``skip-file`` pragma left out.
        modules: the interprocedural project — the non-test modules of
            :data:`PROJECT_PACKAGE`.
        paths: dotted module name -> display path, for project modules.
    """

    def __init__(self, modules: Sequence[ParsedModule]) -> None:
        self.all_modules = [m for m in modules if not m.skipped]
        self.modules = [
            m
            for m in self.all_modules
            if not m.is_test and under_prefix(m.module, (PROJECT_PACKAGE,))
        ]
        self.paths = {m.module: m.path for m in self.modules}

    @cached_property
    def graph(self) -> CallGraph:
        return build_call_graph(self.modules)

    @cached_property
    def effects(self) -> EffectsIndex:
        return build_effects(self.graph)

    @cached_property
    def persistence(self) -> PersistenceIndex:
        return build_persistence(self.graph)

    def dump(self, analysis: str, prefixes: Optional[Sequence[str]] = None) -> str:
        """The byte-stable JSON dump of ``graph``, ``effects`` or
        ``persistence``, restricted to modules under ``prefixes``."""
        payload = getattr(self, analysis).to_json(prefixes or None)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def neighborhood(self, changed_paths: Iterable[str]) -> Set[str]:
        """Expand changed file paths to their call-graph neighborhood.

        Interprocedural rules (taint, effects, persistence) can produce a
        finding in file A because of an edit in file B; a path filter
        built from ``git diff`` alone would silently drop it.  This
        returns the changed set plus every file containing a direct
        caller or callee of a function defined in a changed file, so
        ``repro lint --changed`` re-reports those cross-file findings.
        """
        changed = set(changed_paths)
        out = set(changed)
        for node in self.graph.functions.values():
            caller_path = self.paths[node.module]
            for callee in node.calls:
                callee_node = self.graph.functions.get(callee)
                if callee_node is None:
                    continue
                callee_path = self.paths[callee_node.module]
                if caller_path in changed:
                    out.add(callee_path)
                if callee_path in changed:
                    out.add(caller_path)
        return out
