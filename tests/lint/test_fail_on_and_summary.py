"""Exit-code policy (--fail-on) and the JSON severity summary."""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint.engine import (
    Finding,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    should_fail,
    summarize,
)


def _finding(severity, rule="hot-path"):
    return Finding(
        path="src/repro/x.py", line=1, col=1, rule=rule,
        message="m", severity=severity,
    )


def test_should_fail_default_ignores_warnings():
    warnings_only = [_finding(SEVERITY_WARNING)]
    assert not should_fail(warnings_only)
    assert should_fail(warnings_only, "warning")
    assert should_fail([_finding(SEVERITY_ERROR)])
    assert not should_fail([], "warning")


def test_summarize_counts_by_severity_and_rule():
    findings = [
        _finding(SEVERITY_ERROR, rule="hot-path"),
        _finding(SEVERITY_ERROR, rule="hot-path"),
        _finding(SEVERITY_WARNING, rule="swallowed-exception"),
    ]
    summary = summarize(findings)
    assert summary == {
        "total": 3,
        "errors": 2,
        "warnings": 1,
        "by_rule": {"hot-path": 2, "swallowed-exception": 1},
    }


@pytest.fixture
def warning_tree(tmp_path):
    """A minimal source tree whose only finding is a warning."""
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "engine.py").write_text(textwrap.dedent(
        """
        def step(replica):
            try:
                replica.tick()
            except Exception:
                pass
        """
    ))
    return tmp_path / "src"


def test_cli_warning_passes_by_default(warning_tree, capsys):
    code = main([
        "lint", "--src", str(warning_tree),
        "--rule", "swallowed-exception",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 finding(s) (0 error(s), 1 warning(s))" in out


def test_cli_fail_on_warning_turns_warnings_fatal(warning_tree, capsys):
    code = main([
        "lint", "--src", str(warning_tree),
        "--rule", "swallowed-exception", "--fail-on", "warning",
    ])
    capsys.readouterr()
    assert code == 1


def test_cli_json_summary_reports_severity_counts(warning_tree, capsys):
    code = main([
        "lint", "--src", str(warning_tree),
        "--rule", "swallowed-exception", "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["warnings"] == 1 and payload["errors"] == 0
    assert payload["summary"]["total"] == 1
    assert payload["summary"]["by_rule"] == {"swallowed-exception": 1}


def test_cli_graph_dump_writes_stable_json(tmp_path, capsys):
    out_path = tmp_path / "graph.json"
    assert main(["lint", "--graph", str(out_path)]) == 0
    capsys.readouterr()
    first = out_path.read_text(encoding="utf-8")
    payload = json.loads(first)
    assert payload["version"] == 1
    assert "repro.core.replica.Replica.on_message" in payload["functions"]
    assert main(["lint", "--graph", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_text(encoding="utf-8") == first


def test_cli_graph_prefix_restricts_the_dump(tmp_path, capsys):
    out_path = tmp_path / "core.json"
    assert main([
        "lint", "--graph", str(out_path), "--graph-prefix", "repro.core",
    ]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["functions"]
    assert all(
        node["module"].startswith("repro.core")
        for node in payload["functions"].values()
    )
