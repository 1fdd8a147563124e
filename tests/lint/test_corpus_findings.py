"""The fixed benchmark corpus lints to exactly its pinned findings.

The real tree lints clean, so it cannot show a changed finding; the
benchmark's corpus (``src/repro`` at commit 2c572ab, stored under
``perfbench/corpus/``) has findings, pinned here as the oracle for any
change to how the lint suite computes them.  The corpus is only read.
"""

import importlib.util
import json
from pathlib import Path

import repro
from repro.cli import main

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent
CORPUS_SCRIPT = REPO_ROOT / "perfbench" / "corpus.py"

MESSAGES = "src/repro/types/messages.py"
UNTESTED = (
    "message type {} is not referenced by any tests.wire test; "
    "add a round-trip case"
)
PINNED = [
    ("wire-coverage", MESSAGES, line, UNTESTED.format(name))
    for line, name in [
        (49, "Proposal"),
        (59, "Vote"),
        (75, "PacemakerTimeout"),
        (92, "PacemakerTCMessage"),
        (106, "FallbackTimeout"),
        (123, "FallbackTCMessage"),
        (133, "FallbackProposal"),
        (147, "FallbackVote"),
        (162, "FallbackQCMessage"),
        (172, "CoinShareMessage"),
        (182, "CoinQCMessage"),
        (195, "BlockRequest"),
        (205, "BlockResponse"),
        (215, "ChainRequest"),
        (230, "ChainResponse"),
    ]
]


def _extract_corpus(dest: Path) -> Path:
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS_SCRIPT)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus.extract(dest)


def test_corpus_findings_match_the_pinned_list(tmp_path, capsys):
    src_root = _extract_corpus(tmp_path / "corpus")
    status = main(["lint", "--src", str(src_root), "--no-tests", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    found = [
        (f["rule"], f["path"], f["line"], f["message"]) for f in payload["findings"]
    ]
    assert found == PINNED
    assert status == 1
