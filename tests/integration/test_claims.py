"""The paper's claims, EXPERIMENTS.md rows E1–E12, as tier-1 checks.

``repro.experiments.claims`` memoises every scenario run, so claims that
share a run, and the EXPERIMENTS.md check below, pay for it once per
session.
"""

import pytest

from repro.experiments.claims import (
    CLAIMS,
    EXPERIMENTS_MD,
    THEOREM9_SIZES,
    Verdict,
    scaling,
    splice,
)


@pytest.mark.parametrize("key", list(CLAIMS))
def test_claim_holds(key):
    verdict = CLAIMS[key]()
    assert not verdict.failures, f"{key} ({verdict.title}) fails: {verdict.failures}"


@pytest.mark.scale
def test_theorem9_holds_with_n64():
    verdict = scaling(THEOREM9_SIZES + (64,))
    assert not verdict.failures, f"E5 at n=64 fails: {verdict.failures}"


def test_experiments_md_tables_match_a_fresh_render():
    document = EXPERIMENTS_MD.read_text(encoding="utf-8")
    verdicts = [measure() for measure in CLAIMS.values()]
    stale = [v.key for v in verdicts if splice(document, [v]) != document]
    assert not stale, (
        f"EXPERIMENTS.md's generated tables for {', '.join(stale)} differ from "
        "the claims' runs; regenerate them with "
        "`PYTHONPATH=src python -m repro claims --write`"
    )


def _verdict(key, value):
    return Verdict(key, "t", ("metric", "value"), (("x", value),), (("x > 0", True),))


def test_splice_rewrites_only_the_generated_blocks():
    marker = "<!-- claim {0}: generated by `repro claims --write` -->\n"
    document = (
        "# prose kept\n\n" + marker.format("E1") + "| old |\n<!-- /claim E1 -->\n"
        "\nmore prose\n" + marker.format("E2") + "<!-- /claim E2 -->\n"
    )
    fresh = splice(document, [_verdict("E1", 7)])
    assert fresh == document.replace("| old |\n", _verdict("E1", 7).markdown() + "\n")
    assert splice(fresh, [_verdict("E1", 7)]) == fresh
    with pytest.raises(ValueError, match="E3"):
        splice(document, [_verdict("E3", 1)])
