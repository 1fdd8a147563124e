"""Engine mechanics: parsing, pragmas, registry, reporters, tree collection."""

import ast
import json

import pytest

from repro.lint.engine import (
    Finding,
    LintError,
    ParsedModule,
    Rule,
    collect_modules,
    get_rules,
    has_errors,
    lint_modules,
    register_rule,
    render_json,
    render_text,
)
from repro.lint import all_rule_ids, rule_catalogue

from tests.lint.conftest import mod


class EveryCallRule(Rule):
    """Toy rule used to exercise engine plumbing: flags every call."""

    id = "every-call"
    description = "flags every function call (test helper)"

    def applies_to(self, module):
        return True

    def check(self, module):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield self.finding(module, node, "a call")


def test_parsed_module_basics():
    module = mod("x = 1\n", "repro.demo")
    assert module.module == "repro.demo"
    assert module.path == "repro/demo.py"
    assert not module.is_test and not module.skipped
    assert isinstance(module.tree, ast.Module)


def test_syntax_error_raises_lint_error():
    with pytest.raises(LintError, match="cannot parse"):
        mod("def broken(:\n", "repro.bad")


def test_line_pragma_suppresses_one_rule():
    module = mod(
        """
        f()  # repro-lint: ignore[every-call]
        g()
        """,
        "repro.demo",
    )
    findings = lint_modules([module], [EveryCallRule()])
    assert [finding.line for finding in findings] == [3]


def test_bare_pragma_suppresses_all_rules():
    module = mod("f()  # repro-lint: ignore\n", "repro.demo")
    assert lint_modules([module], [EveryCallRule()]) == []


def test_pragma_with_other_rule_id_does_not_suppress():
    module = mod("f()  # repro-lint: ignore[some-other-rule]\n", "repro.demo")
    findings = lint_modules([module], [EveryCallRule()])
    assert len(findings) == 1


def test_skip_file_pragma_exempts_whole_module():
    module = mod(
        """
        # repro-lint: skip-file
        f()
        g()
        """,
        "repro.demo",
    )
    assert module.skipped
    assert lint_modules([module], [EveryCallRule()]) == []


def test_skip_file_pragma_only_honored_near_top():
    source = "\n" * 10 + "# repro-lint: skip-file\nf()\n"
    module = ParsedModule(source, "repro.demo", "repro/demo.py")
    assert not module.skipped


def test_register_rule_rejects_duplicate_and_missing_id():
    with pytest.raises(LintError, match="duplicate"):

        @register_rule
        class Duplicate(Rule):  # noqa: F811 - registration is the point
            id = "hot-path"

    with pytest.raises(LintError, match="no id"):

        @register_rule
        class Anonymous(Rule):
            pass


def test_get_rules_unknown_id():
    with pytest.raises(LintError, match="unknown rule"):
        get_rules(["not-a-rule"])


def test_get_rules_selects_subset():
    rules = get_rules(["unordered-iteration", "safety-state"])
    assert sorted(rule.id for rule in rules) == ["safety-state", "unordered-iteration"]


def test_registry_has_the_documented_suite():
    expected = {
        "unordered-iteration",
        "wire-coverage",
        "safety-state",
        "asyncio-hygiene",
        "hot-path",
    }
    assert expected <= set(all_rule_ids())
    for rule in rule_catalogue():
        assert rule.description, rule.id
        assert rule.rationale, rule.id


def test_render_text_and_json():
    finding = Finding(
        path="src/x.py", line=3, col=1, rule="demo", message="broken"
    )
    text = render_text([finding])
    assert "src/x.py:3:1" in text and "[demo]" in text
    payload = json.loads(render_json([finding]))
    assert payload["errors"] == 1 and payload["warnings"] == 0
    assert payload["findings"][0]["rule"] == "demo"
    assert render_text([]) == "repro lint: clean (0 findings)"
    assert has_errors([finding]) and not has_errors([])


def test_collect_modules_names_and_paths(tmp_path):
    src = tmp_path / "src"
    (src / "pkg" / "sub").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text("")
    (src / "pkg" / "sub" / "mod.py").write_text("x = 1\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_mod.py").write_text("y = 2\n")
    modules = collect_modules(src, tests)
    by_name = {module.module: module for module in modules}
    assert "pkg.sub.mod" in by_name
    assert by_name["pkg.sub.mod"].path == "src/pkg/sub/mod.py"
    assert not by_name["pkg.sub.mod"].is_test
    assert "tests.test_mod" in by_name
    assert by_name["tests.test_mod"].is_test
