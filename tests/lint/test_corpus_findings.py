"""The fixed benchmark corpus lints clean.

The benchmark's corpus (``src/repro`` at commit 2c572ab, stored under
``perfbench/corpus/``) is linted here exactly as the ``lint-tree``
workload lints it, so a rule change that starts flagging that older tree
shows up as a finding.  The corpus is only read.
"""

import importlib.util
import json
from pathlib import Path

import repro
from repro.cli import main

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent
CORPUS_SCRIPT = REPO_ROOT / "perfbench" / "corpus.py"


def _extract_corpus(dest: Path) -> Path:
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS_SCRIPT)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus.extract(dest)


def test_corpus_findings_match_the_pinned_list(tmp_path, capsys):
    src_root = _extract_corpus(tmp_path / "corpus")
    status = main(["lint", "--src", str(src_root), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    # The pinned list is empty: no retained rule flags the corpus.
    assert payload["findings"] == []
    assert status == 0
