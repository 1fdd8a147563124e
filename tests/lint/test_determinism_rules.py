"""Determinism rules: scope and unordered iteration."""

from repro.lint.astutil import resolve_call
from repro.lint.rules.determinism import (
    UnorderedIterationRule,
    in_deterministic_scope,
)

from tests.lint.conftest import mod, run_rule


# ----------------------------------------------------------------------
# Scope
# ----------------------------------------------------------------------
def test_scope_covers_sim_side_and_excludes_live_side():
    assert in_deterministic_scope(mod("", "repro.sim.scheduler"))
    assert in_deterministic_scope(mod("", "repro.core.replica"))
    assert in_deterministic_scope(mod("", "repro.crypto.coin"))
    assert in_deterministic_scope(mod("", "repro.net.loss"))
    assert not in_deterministic_scope(mod("", "repro.net.tcp"))
    assert not in_deterministic_scope(mod("", "repro.runtime.live"))
    assert not in_deterministic_scope(mod("", "repro.analysis.stats"))


def test_import_map_tracks_function_local_imports():
    module = mod(
        """
        def draw():
            import random as r
            return r.random()
        """,
        "repro.core.replica",
    )
    call = module.tree.body[0].body[1].value
    assert resolve_call(module.imports, call.func) == "random.random"


# ----------------------------------------------------------------------
# unordered-iteration
# ----------------------------------------------------------------------
def test_unordered_iteration_flags_for_over_set_literal():
    module = mod(
        """
        def fanout():
            for peer in {3, 1, 2}:
                send(peer)
        """,
        "repro.core.replica",
    )
    assert len(run_rule(UnorderedIterationRule, module)) == 1


def test_unordered_iteration_flags_set_valued_local():
    module = mod(
        """
        def fanout(peers):
            pending = set(peers)
            for peer in pending:
                send(peer)
        """,
        "repro.core.replica",
    )
    assert len(run_rule(UnorderedIterationRule, module)) == 1


def test_unordered_iteration_flags_self_attribute_set():
    module = mod(
        """
        class Tracker:
            def __init__(self):
                self.pending = set()

            def flush(self):
                return [send(p) for p in self.pending]
        """,
        "repro.core.replica",
    )
    assert len(run_rule(UnorderedIterationRule, module)) == 1


def test_unordered_iteration_allows_sorted_sets():
    module = mod(
        """
        def fanout(peers):
            pending = set(peers)
            for peer in sorted(pending):
                send(peer)
            return sorted({3, 1, 2})
        """,
        "repro.core.replica",
    )
    assert run_rule(UnorderedIterationRule, module) == []


def test_unordered_iteration_allows_membership_and_len():
    module = mod(
        """
        def quorum(voters, n):
            seen = set(voters)
            return len(seen) >= n and 0 in seen
        """,
        "repro.core.replica",
    )
    assert run_rule(UnorderedIterationRule, module) == []


def test_unordered_iteration_flags_popitem_and_list_of_set():
    module = mod(
        """
        def drain(table, items):
            order = list(set(items))
            return table.popitem(), order
        """,
        "repro.sim.scheduler",
    )
    assert len(run_rule(UnorderedIterationRule, module)) == 2


def test_unordered_iteration_rebound_name_is_not_flagged():
    module = mod(
        """
        def fanout(peers):
            pending = set(peers)
            pending = sorted(pending)
            for peer in pending:
                send(peer)
        """,
        "repro.core.replica",
    )
    assert run_rule(UnorderedIterationRule, module) == []


def test_rules_skip_test_modules():
    module = mod(
        """
        def draw(peers):
            for peer in {1, 2}:
                send(peer)
        """,
        "tests.sim.test_scheduler",
        is_test=True,
    )
    assert run_rule(UnorderedIterationRule, module) == []
