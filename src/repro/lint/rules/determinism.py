"""Determinism rules: the simulator must be a pure function of its seed.

The benchmark suite (``BENCH_simcore.json``) pins byte-identical
commit-trace fingerprints across runs, and the common-coin leader election
(Lemma 7) assumes the adversary cannot bias the coin — both break the
moment simulation-side code iterates a hash-ordered container where
order reaches protocol state.  (Wall-clock reads and unseeded randomness
are left to the tier-1 fingerprint and simulation tests, which fail on
either; see "Retired rules" in docs/STATIC_ANALYSIS.md.)

Scope: ``repro.core``, ``repro.sim``, ``repro.crypto`` and the simulated
side of ``repro.net``.  The live runtime (``repro.runtime.live``,
``repro.net.tcp``) is wall-clock *by design* and is excluded; its distinct
failure modes are covered by the ``asyncio-hygiene`` rule.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.astutil import (
    is_set_expression,
    iter_comprehension_iters,
    under_prefix,
)
from repro.lint.engine import Finding, ParsedModule, Rule, register_rule

#: Packages whose runs must be a pure function of the seed.
DETERMINISTIC_PREFIXES = ("repro.core", "repro.sim", "repro.crypto", "repro.net")

#: Modules inside those packages that are wall-clock by design (live side).
LIVE_SIDE_MODULES = frozenset({"repro.net.tcp"})


def in_deterministic_scope(module: ParsedModule) -> bool:
    name = module.module
    if name in LIVE_SIDE_MODULES:
        return False
    return under_prefix(name, DETERMINISTIC_PREFIXES)


class _DeterministicScopeRule(Rule):
    def applies_to(self, module: ParsedModule) -> bool:
        return not module.is_test and in_deterministic_scope(module)


@register_rule
class UnorderedIterationRule(_DeterministicScopeRule):
    """Forbid iteration whose order comes from a hash-ordered container."""

    id = "unordered-iteration"
    description = "no direct iteration over sets (or dict.popitem) in sim-side code; sort first"
    rationale = (
        "Set iteration order depends on insertion history and hashing, so "
        "any protocol-visible effect derived from it (message order, "
        "digest input, quorum assembly) can differ between otherwise "
        "identical runs; iterate sorted(...) instead.  Membership tests, "
        "len() and sorted() over sets remain allowed."
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        set_valued = self._set_valued_names(module)
        for owner, iterable in iter_comprehension_iters(module):
            if self._is_unordered(iterable, set_valued):
                yield self.finding(
                    module,
                    iterable,
                    "iteration over a set has no deterministic order; wrap "
                    "the iterable in sorted(...) or keep an ordered mirror",
                )
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "popitem"
                and not node.args
            ):
                yield self.finding(
                    module,
                    node,
                    "dict.popitem() removes an arbitrary-looking entry; pop "
                    "an explicit key instead",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
                and self._is_unordered(node.args[0], set_valued)
            ):
                yield self.finding(
                    module,
                    node,
                    f"{node.func.id}() of a set freezes a nondeterministic "
                    "order; use sorted(...)",
                )

    # -- helpers -------------------------------------------------------
    def _is_unordered(self, node: ast.AST, set_valued: Set[Tuple[str, ...]]) -> bool:
        if is_set_expression(node):
            return True
        if isinstance(node, ast.Name):
            return (node.id,) in set_valued
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return ("self", node.attr) in set_valued
        return False

    def _set_valued_names(self, module: ParsedModule) -> Set[Tuple[str, ...]]:
        """Names assigned a syntactic set anywhere in the module.

        Tracks plain locals (``seen = set()``) and ``self.<attr>`` slots.
        Names later rebound to non-set values are dropped — a rebinding
        means the name's type is not reliably a set, and flagging it would
        be a false positive.
        """
        assigned: Dict[Tuple[str, ...], bool] = {}
        for node in module.walk():
            targets: List[ast.AST] = []
            value = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            for target in targets:
                key = self._target_key(target)
                if key is None:
                    continue
                is_set = is_set_expression(value)
                if key not in assigned:
                    assigned[key] = is_set
                else:
                    assigned[key] = assigned[key] and is_set
        return {key for key, is_set in assigned.items() if is_set}

    @staticmethod
    def _target_key(target: ast.AST) -> Tuple[str, ...] | None:
        if isinstance(target, ast.Name):
            return (target.id,)
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return ("self", target.attr)
        return None
