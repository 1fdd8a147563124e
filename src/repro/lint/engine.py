"""AST lint engine: parsed modules, rule registry, pragmas, reporters.

The engine is deliberately small: it parses every Python file in the
scanned roots exactly once into a :class:`ParsedModule` (source lines, AST,
dotted module name, suppression pragmas), hands the modules to each
registered :class:`Rule`, filters findings through per-line pragmas and
renders the survivors as text or JSON.  Each module is also walked once:
rules and flow builders traverse a subtree with :meth:`ParsedModule.walk`,
which keeps the node list of every subtree it has walked.

Two rule shapes exist:

- :class:`Rule` — checks one module at a time (most rules).
- :class:`ProjectRule` — sees every parsed module at once, for
  cross-module invariants such as "no blocking call is reachable from a
  coroutine", through the pass's one
  :class:`~repro.lint.flow.project.Project`, which also carries the
  interprocedural analyses the flow rules share.

Suppression: append ``# repro-lint: ignore[rule-id]`` (or a bare
``# repro-lint: ignore`` for all rules) to the flagged line, or put
``# repro-lint: skip-file`` in the first five lines to exempt a whole
file.  Pragmas are per-line and per-rule so a suppression cannot silently
widen.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Type,
)

from repro.lint.astutil import import_map

if TYPE_CHECKING:
    from repro.lint.flow.project import Project

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([A-Za-z0-9_\-, ]*)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*repro-lint:\s*skip-file")

#: How many leading lines may carry a file-level ``skip-file`` pragma.
_SKIP_FILE_WINDOW = 5


class LintError(Exception):
    """A problem with the lint run itself (bad rule id, unparsable file)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = SEVERITY_ERROR

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.severity} [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


class ParsedModule:
    """One source file, parsed and walked once and shared by every rule.

    Attributes:
        module: dotted module name (``repro.core.safety``,
            ``tests.wire.test_roundtrip``).
        path: display path used in findings (posix, repo-relative when
            built through :func:`collect_modules`).
        source: raw text.
        lines: source split into lines (1-indexed access via ``lines[i-1]``).
        tree: the parsed ``ast.Module``.
        is_test: True for files under the tests root.
        skipped: True when a file-level skip pragma was found.
        imports: local name -> imported dotted path
            (:func:`~repro.lint.astutil.import_map`), computed on first use.
    """

    def __init__(
        self,
        source: str,
        module: str,
        path: str,
        is_test: bool = False,
    ) -> None:
        self.source = source
        self.module = module
        self.path = path
        self.is_test = is_test
        self.lines = source.splitlines()
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise LintError(f"{path}: cannot parse: {exc}") from exc
        self.skipped = any(
            _SKIP_FILE_RE.search(line) for line in self.lines[:_SKIP_FILE_WINDOW]
        )
        #: id(subtree root) -> its nodes in ``ast.walk`` order.
        self._walks: Dict[int, List[ast.AST]] = {}
        #: line number -> suppressed rule ids; empty set means "all rules".
        self._ignores: Dict[int, set] = {}
        for number, line in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(line)
            if match is None:
                continue
            inner = match.group(1)
            if inner is None or not inner.strip():
                self._ignores[number] = set()
            else:
                self._ignores[number] = {
                    part.strip() for part in inner.split(",") if part.strip()
                }

    @classmethod
    def from_path(cls, path: Path, module: str, display: str, is_test: bool = False) -> "ParsedModule":
        return cls(
            path.read_text(encoding="utf-8"), module, display, is_test=is_test
        )

    def walk(self, node: Optional[ast.AST] = None) -> List[ast.AST]:
        """The nodes of ``node``'s subtree (the module tree by default),
        in :func:`ast.walk` order.

        A subtree is walked on its first request and its list kept for
        the module's lifetime, one lint pass, so rules and flow builders
        share one traversal.  The key is ``id(node)``: the kept list
        starts with ``node`` and so keeps it alive, and its id cannot be
        reused.  Callers must not mutate the list.
        """
        if node is None:
            node = self.tree
        nodes = self._walks.get(id(node))
        if nodes is None:
            nodes = self._walks[id(node)] = list(ast.walk(node))
        return nodes

    @cached_property
    def imports(self) -> Dict[str, str]:
        return import_map(self)

    def suppresses(self, line: int, rule_id: str) -> bool:
        """True when ``line`` carries a pragma covering ``rule_id``."""
        rules = self._ignores.get(line)
        if rules is None:
            return False
        return not rules or rule_id in rules

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParsedModule({self.module!r}, path={self.path!r})"


class Rule:
    """Base class: one lint invariant checked module-by-module.

    Subclasses set ``id`` / ``description`` / ``rationale`` and implement
    :meth:`check`; :meth:`applies_to` narrows the scanned module set.
    """

    id: str = ""
    severity: str = SEVERITY_ERROR
    description: str = ""
    #: Which protocol invariant the rule protects (shown in --list-rules
    #: and docs/STATIC_ANALYSIS.md).
    rationale: str = ""

    def applies_to(self, module: ParsedModule) -> bool:
        return not module.is_test

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ParsedModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
            severity=self.severity,
        )


class ProjectRule(Rule):
    """A rule that needs a cross-module view of the whole scanned tree."""

    def check(self, module: ParsedModule) -> Iterator[Finding]:  # pragma: no cover
        return iter(())

    def check_project(self, project: "Project") -> Iterator[Finding]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the global registry (unique id)."""
    if not rule_class.id:
        raise LintError(f"rule {rule_class.__name__} has no id")
    if rule_class.id in _REGISTRY:
        raise LintError(f"duplicate rule id {rule_class.id!r}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_rule_ids() -> List[str]:
    return sorted(_REGISTRY)


def rule_catalogue() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [_REGISTRY[rule_id]() for rule_id in all_rule_ids()]


def get_rules(rule_ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the requested rules (all registered rules by default)."""
    if rule_ids is None:
        return rule_catalogue()
    unknown = sorted(set(rule_ids) - set(_REGISTRY))
    if unknown:
        known = ", ".join(all_rule_ids())
        raise LintError(f"unknown rule id(s) {unknown}; known rules: {known}")
    return [_REGISTRY[rule_id]() for rule_id in sorted(set(rule_ids))]


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def collect_modules(
    src_root: Path, tests_root: Optional[Path] = None
) -> List[ParsedModule]:
    """Parse every ``*.py`` file under the source (and optional tests) root.

    ``src_root`` is the directory that *contains* the top-level package
    (i.e. ``src/``); module names are dotted paths relative to it.  The
    display path is relative to the root's parent (the repo root), so
    findings print as ``src/repro/core/safety.py:12``.
    """
    modules: List[ParsedModule] = []
    for root, is_test in ((src_root, False), (tests_root, True)):
        if root is None:
            continue
        root = root.resolve()
        base = root if is_test else root.parent
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(root)
            dotted_parts = list(relative.with_suffix("").parts)
            if dotted_parts[-1] == "__init__":
                dotted_parts = dotted_parts[:-1]
            prefix = ["tests"] if is_test else []
            module_name = ".".join(prefix + dotted_parts) or (
                "tests" if is_test else root.name
            )
            try:
                display = path.relative_to(base.parent if is_test else base)
            except ValueError:
                display = relative
            modules.append(
                ParsedModule.from_path(
                    path, module_name, display.as_posix(), is_test=is_test
                )
            )
    return modules


def lint_modules(
    modules: Sequence[ParsedModule],
    rules: Optional[Sequence[Rule]] = None,
    changed_paths: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run ``rules`` over ``modules`` and return pragma-filtered findings.

    ``changed_paths`` (display paths, as in ``Finding.path``) restricts
    the *reported* scope to those files and their call-graph
    neighborhood, without shrinking the analysis: per-module rules run
    only on the selected files, while project rules still see the whole
    tree (their interprocedural facts need it) and have their findings
    filtered to the selection afterwards.  Every project rule, and the
    neighborhood, share the call's one
    :class:`~repro.lint.flow.project.Project`.
    """
    from repro.lint.flow.project import Project  # the flow layer imports this module

    if rules is None:
        rules = get_rules()
    project = Project(modules)
    active = project.all_modules
    by_path = {module.path: module for module in active}
    selected = None if changed_paths is None else project.neighborhood(changed_paths)
    raw: List[Finding] = []
    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(project))
        else:
            for module in active:
                if selected is not None and module.path not in selected:
                    continue
                if rule.applies_to(module):
                    raw.extend(rule.check(module))
    findings = [
        finding
        for finding in raw
        if not (
            finding.path in by_path
            and by_path[finding.path].suppresses(finding.line, finding.rule)
        )
        and (selected is None or finding.path in selected)
    ]
    return sorted(set(findings))


def lint_tree(
    src_root: Path,
    tests_root: Optional[Path] = None,
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Collect, lint, and return findings for a whole source tree."""
    return lint_modules(collect_modules(src_root, tests_root), get_rules(rule_ids))


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def render_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "repro lint: clean (0 findings)"
    lines = [finding.render() for finding in findings]
    errors = sum(1 for finding in findings if finding.severity == SEVERITY_ERROR)
    warnings = len(findings) - errors
    lines.append(
        f"repro lint: {len(findings)} finding(s) "
        f"({errors} error(s), {warnings} warning(s))"
    )
    return "\n".join(lines)


def summarize(findings: Sequence[Finding]) -> dict:
    """Severity and per-rule counts for a finding list."""
    by_rule: Dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    return {
        "total": len(findings),
        "errors": sum(1 for f in findings if f.severity == SEVERITY_ERROR),
        "warnings": sum(1 for f in findings if f.severity == SEVERITY_WARNING),
        "by_rule": dict(sorted(by_rule.items())),
    }


def render_json(findings: Sequence[Finding]) -> str:
    summary = summarize(findings)
    payload = {
        "findings": [finding.to_json() for finding in findings],
        # Top-level errors/warnings predate the summary block; kept for
        # scripts already parsing them.
        "errors": summary["errors"],
        "warnings": summary["warnings"],
        "summary": summary,
    }
    return json.dumps(payload, indent=2)


def has_errors(findings: Iterable[Finding]) -> bool:
    return any(finding.severity == SEVERITY_ERROR for finding in findings)


def should_fail(findings: Sequence[Finding], fail_on: str = SEVERITY_ERROR) -> bool:
    """Exit-code policy: fail on errors, or on any finding at all when
    ``fail_on`` is ``"warning"``."""
    if fail_on == SEVERITY_WARNING:
        return bool(findings)
    return has_errors(findings)
