"""Protocol-aware static analysis (``python -m repro lint``).

The simulator's headline claims — byte-identical commit-trace fingerprints
across runs, safety of the steady state plus asynchronous fallback, and
modeled-vs-encoded wire-size parity — rest on invariants that are easy to
break with an innocent-looking edit: unseeded randomness in the simulator,
a message type the codec cannot ship, a lock update outside the safety
module.  This package checks those invariants statically, before a 10k-event
fingerprint diff has to find them at runtime.

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and the
``# repro-lint: ignore[rule-id]`` pragma.
"""

from repro.lint.engine import (
    Finding,
    LintError,
    ParsedModule,
    ProjectRule,
    Rule,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    all_rule_ids,
    collect_modules,
    get_rules,
    lint_modules,
    lint_tree,
    register_rule,
    render_json,
    render_text,
    rule_catalogue,
    should_fail,
    summarize,
)

# Importing the rules package registers every first-class rule.
import repro.lint.rules  # noqa: F401  (import side effect: registration)

__all__ = [
    "Finding",
    "LintError",
    "ParsedModule",
    "ProjectRule",
    "Rule",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "all_rule_ids",
    "collect_modules",
    "get_rules",
    "lint_modules",
    "lint_tree",
    "register_rule",
    "render_json",
    "render_text",
    "rule_catalogue",
    "should_fail",
    "summarize",
]
