"""Helpers for lint-rule tests: in-memory modules, single-rule runs and
golden-digest checks."""

import hashlib
import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.engine import ParsedModule, lint_modules

GOLDEN_DIGESTS = Path(__file__).parent / "goldens" / "digests.json"


def mod(source, module, path=None, is_test=False):
    """Build a ParsedModule from an (indented) source snippet."""
    return ParsedModule(
        textwrap.dedent(source),
        module,
        path or module.replace(".", "/") + ".py",
        is_test=is_test,
    )


def run_rule(rule_cls, *modules):
    """Run one rule over the given modules; return the findings."""
    return lint_modules(list(modules), [rule_cls()])


def assert_matches_golden(name, dump, tmp_path):
    """Byte-strict check of an analysis dump against its recorded digest.

    On a mismatch the dump is written to ``tmp_path`` and named in the
    failure, so it can be diffed against the parent's dump (CI's
    ``analysis-dumps`` artifact) before the digests are regenerated.
    """
    expected = json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))[name]
    actual = hashlib.sha256(dump.encode("utf-8")).hexdigest()
    if actual != expected:
        written = tmp_path / name
        written.write_text(dump, encoding="utf-8")
        pytest.fail(
            f"{name} changed (sha256 {actual}, golden {expected}); the new "
            f"dump is at {written}.  Review its diff against the parent's "
            "dump; if the change is intentional, regenerate with:\n  "
            "PYTHONPATH=src python tests/lint/goldens/regen.py"
        )
