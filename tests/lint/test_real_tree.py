"""The real repository passes its own lint suite, via API and CLI."""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.lint import all_rule_ids, lint_tree

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent
SRC_ROOT = REPO_ROOT / "src"
TESTS_ROOT = REPO_ROOT / "tests"


def test_lint_tree_is_clean_on_the_real_repo():
    findings = lint_tree(SRC_ROOT, TESTS_ROOT)
    assert findings == [], "\n".join(finding.render() for finding in findings)


def test_wire_coverage_engages_without_tests_root():
    # Dropping the tests root removes the round-trip evidence, so every
    # registered message type must be reported — proof the cross-module
    # rule actually runs against the real tree.
    findings = lint_tree(SRC_ROOT, None, rule_ids=["wire-coverage"])
    assert findings, "wire-coverage rule never engaged"
    assert all(finding.rule == "wire-coverage" for finding in findings)


def test_cli_lint_exits_zero_and_reports_clean(capsys):
    assert main(["lint"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_lint_json_output(capsys):
    assert main(["lint", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["errors"] == 0


def test_cli_lint_rule_subset(capsys):
    assert main(["lint", "--rule", "unordered-iteration", "--rule", "hot-path"]) == 0
    capsys.readouterr()


def test_cli_lint_unknown_rule_is_an_error():
    with pytest.raises(SystemExit, match="unknown rule"):
        main(["lint", "--rule", "definitely-not-a-rule"])


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rule_ids():
        assert rule_id in out
