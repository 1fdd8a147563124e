"""CLI ``--changed``: restrict findings to files changed vs git HEAD."""

import json
import subprocess
import textwrap

import pytest

from repro.cli import main

#: Same violation in every fixture file: an unbounded asyncio queue in a
#: runtime-scoped module — a deterministic single-rule, single-module
#: finding, so scoping (not rule behavior) is the only variable.
_VIOLATION = textwrap.dedent(
    """
    import asyncio


    class Channel:
        def __init__(self):
            self.queue = asyncio.Queue()
    """
).lstrip()


def _git(repo, *argv):
    result = subprocess.run(
        ["git", "-C", str(repo), *argv], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture
def git_tree(tmp_path):
    """A committed src/repro tree with a violation in two runtime files."""
    repo = tmp_path / "proj"
    pkg = repo / "src" / "repro"
    (pkg / "runtime").mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "runtime" / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "runtime" / "alpha.py").write_text(_VIOLATION, encoding="utf-8")
    (pkg / "runtime" / "beta.py").write_text(_VIOLATION, encoding="utf-8")
    _git(repo, "init", "--quiet")
    _git(repo, "add", "-A")
    _git(
        repo,
        "-c", "user.name=t",
        "-c", "user.email=t@t",
        "commit", "--quiet", "-m", "seed",
    )
    return repo


def _lint_changed(repo, capsys):
    code = main(
        [
            "lint",
            "--src", str(repo / "src"),
            "--changed",
            "--format", "json",
            "--fail-on", "warning",
        ]
    )
    return code, capsys.readouterr().out


def test_changed_scopes_findings_to_modified_file(git_tree, capsys):
    # Touch alpha only; beta's identical violation must not be reported.
    alpha = git_tree / "src" / "repro" / "runtime" / "alpha.py"
    alpha.write_text(_VIOLATION + "\n# touched\n", encoding="utf-8")
    code, out = _lint_changed(git_tree, capsys)
    payload = json.loads(out)
    paths = {finding["path"] for finding in payload["findings"]}
    assert paths == {"src/repro/runtime/alpha.py"}
    assert code == 1


def test_changed_includes_untracked_files(git_tree, capsys):
    fresh = git_tree / "src" / "repro" / "runtime" / "gamma.py"
    fresh.write_text(_VIOLATION, encoding="utf-8")
    code, out = _lint_changed(git_tree, capsys)
    payload = json.loads(out)
    paths = {finding["path"] for finding in payload["findings"]}
    assert paths == {"src/repro/runtime/gamma.py"}
    assert code == 1


def test_changed_with_clean_tree_exits_zero(git_tree, capsys):
    code, out = _lint_changed(git_tree, capsys)
    assert code == 0
    assert "no changed python files" in out


def test_changed_expands_to_call_graph_neighborhood(git_tree, capsys):
    # alpha calls a helper in delta; touching only delta must re-lint
    # alpha too (interprocedural findings would otherwise be skipped),
    # while beta — unconnected to delta — stays out of scope.
    delta = git_tree / "src" / "repro" / "runtime" / "delta.py"
    delta.write_text("def helper():\n    return 1\n", encoding="utf-8")
    alpha = git_tree / "src" / "repro" / "runtime" / "alpha.py"
    alpha.write_text(
        _VIOLATION
        + textwrap.dedent(
            """
            from repro.runtime.delta import helper


            def use():
                return helper()
            """
        ),
        encoding="utf-8",
    )
    _git(git_tree, "add", "-A")
    _git(
        git_tree,
        "-c", "user.name=t",
        "-c", "user.email=t@t",
        "commit", "--quiet", "-m", "wire alpha to delta",
    )
    delta.write_text("def helper():\n    return 2\n", encoding="utf-8")
    code, out = _lint_changed(git_tree, capsys)
    payload = json.loads(out)
    paths = {finding["path"] for finding in payload["findings"]}
    assert paths == {"src/repro/runtime/alpha.py"}
    assert code == 1


def test_changed_outside_git_checkout_fails_loudly(tmp_path, capsys):
    pkg = tmp_path / "plain" / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    with pytest.raises(SystemExit, match="needs a git checkout"):
        main(
            [
                "lint",
                "--src", str(tmp_path / "plain" / "src"),
                "--changed",
            ]
        )
