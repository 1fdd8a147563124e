"""The commit a benchmark record names: HEAD, marked when the tree is dirty."""

import subprocess
import sys
from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

from run_benchmarks import git_commit  # noqa: E402


def _git(repo, *args):
    return subprocess.run(
        ["git", *args], cwd=repo, check=True, capture_output=True, text=True
    ).stdout.strip()


def test_git_commit_marks_a_dirty_tree(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "code.py").write_text("x = 1\n")
    _git(repo, "add", "code.py")
    _git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-qm", "one")
    head = _git(repo, "rev-parse", "--short", "HEAD")

    assert git_commit(repo) == head
    (repo / "notes.txt").write_text("untracked files leave HEAD's code as is\n")
    assert git_commit(repo) == head
    (repo / "code.py").write_text("x = 2\n")
    assert git_commit(repo) == f"{head}-dirty"


def test_git_commit_outside_a_checkout_is_unknown(tmp_path):
    assert git_commit(tmp_path) == "unknown"
