"""Each module is walked once: ``ParsedModule.walk`` and its guard."""

import ast
from pathlib import Path

import pytest

import repro
from repro.lint.engine import ParsedModule

LINT_ROOT = Path(repro.__file__).resolve().parent / "lint"
LINT_SOURCES = sorted(LINT_ROOT.rglob("*.py"))


def _parse(path):
    return ParsedModule.from_path(path, path.stem, path.as_posix())


@pytest.mark.parametrize(
    "path", LINT_SOURCES, ids=[p.relative_to(LINT_ROOT).as_posix() for p in LINT_SOURCES]
)
def test_walk_matches_ast_walk_for_every_node(path):
    module = _parse(path)
    assert module.walk() == list(ast.walk(module.tree))
    for node in module.walk():
        assert module.walk(node) == list(ast.walk(node))


def test_walk_is_computed_once_per_subtree():
    module = _parse(LINT_ROOT / "engine.py")
    function = next(
        node for node in module.walk() if isinstance(node, ast.FunctionDef)
    )
    assert module.walk() is module.walk(module.tree)
    assert module.walk(function) is module.walk(function)


def test_modules_from_the_same_source_share_no_lists():
    path = LINT_ROOT / "astutil.py"
    first, second = _parse(path), _parse(path)
    first_lists = {id(first.walk(node)) for node in first.walk()}
    second_lists = {id(second.walk(node)) for node in second.walk()}
    assert first_lists.isdisjoint(second_lists)


def _is_ast_walk(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "walk"
        and isinstance(node.value, ast.Name)
        and node.value.id == "ast"
    )


def test_lint_package_walks_only_through_parsed_module():
    """No rule or flow builder re-walks a tree behind the shared lists."""
    offenders = []
    for path in LINT_SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "engine.py":
            parsed = next(
                node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "ParsedModule"
            )
            walk = next(
                node for node in parsed.body
                if isinstance(node, ast.FunctionDef) and node.name == "walk"
            )
            allowed = {id(node) for node in ast.walk(walk)}
        for node in ast.walk(tree):
            where = f"{path.relative_to(LINT_ROOT)}:{getattr(node, 'lineno', 0)}"
            if _is_ast_walk(node) and id(node) not in allowed:
                offenders.append(where)
            elif isinstance(node, ast.ImportFrom) and node.module == "ast":
                if any(alias.name == "walk" for alias in node.names):
                    offenders.append(where)
    assert offenders == [], "walk subtrees with ParsedModule.walk: " + ", ".join(
        offenders
    )
