"""Determinism rules: the simulator must be a pure function of its seed.

The benchmark suite (``BENCH_simcore.json``) pins byte-identical
commit-trace fingerprints across runs, and the common-coin leader election
(Lemma 7) assumes the adversary cannot bias the coin — both break the
moment simulation-side code draws unseeded randomness or iterates a
hash-ordered container where order reaches protocol state.  (Wall-clock
reads are left to the tier-1 fingerprint and simulation tests, which
fail on one; see "Retired rules" in docs/STATIC_ANALYSIS.md.)

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
    resolve_call,
    under_prefix,
)
from repro.lint.engine import Finding, ParsedModule, Rule, register_rule

#: Packages whose runs must be a pure function of the seed.
DETERMINISTIC_PREFIXES = ("repro.core", "repro.sim", "repro.crypto", "repro.net")

#: Modules inside those packages that are wall-clock by design (live side).
LIVE_SIDE_MODULES = frozenset({"repro.net.tcp"})

#: Call targets that draw operating-system / unseeded randomness.
ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)

#: ``random.<fn>`` module-level draws come from the shared, unseeded global
#: Random instance; everything here perturbs (or is perturbed by) any other
#: component that touches it.  ``random.Random(seed)`` is the sanctioned
#: alternative and stays allowed.
GLOBAL_RANDOM_FUNCTIONS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.sample",
        "random.shuffle",
        "random.uniform",
        "random.gauss",
        "random.expovariate",
        "random.getrandbits",
        "random.betavariate",
        "random.normalvariate",
        "random.seed",
    }
)


def in_deterministic_scope(module: ParsedModule) -> bool:
    name = module.module
    if name in LIVE_SIDE_MODULES:
        return False
    return under_prefix(name, DETERMINISTIC_PREFIXES)


class _DeterministicScopeRule(Rule):
    def applies_to(self, module: ParsedModule) -> bool:
        return not module.is_test and in_deterministic_scope(module)


@register_rule
class UnseededRandomRule(_DeterministicScopeRule):
    """Forbid unseeded / OS randomness in simulation-side code."""

    id = "unseeded-random"
    description = "no os.urandom / global random.* / uuid4 in sim-side code; seeded random.Random(seed) is fine"
    rationale = (
        "Every random draw must derive from the run seed "
        "(Scheduler.rng / child_rng) so delay models, workloads and the "
        "common coin replay identically; the global random module and OS "
        "entropy break seed-purity."
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        imports = module.imports
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_call(imports, node.func)
            if resolved is None:
                continue
            if resolved in ENTROPY_CALLS or resolved.startswith("secrets."):
                yield self.finding(
                    module,
                    node,
                    f"OS/unseeded entropy {resolved}() in deterministic "
                    f"module {module.module}; derive randomness from the run seed",
                )
            elif resolved in GLOBAL_RANDOM_FUNCTIONS:
                yield self.finding(
                    module,
                    node,
                    f"global {resolved}() draws from the shared unseeded "
                    "Random instance; use random.Random(seed) or "
                    "Scheduler.child_rng",
                )
            elif resolved == "random.Random" and not (node.args or node.keywords):
                yield self.finding(
                    module,
                    node,
                    "random.Random() without a seed falls back to OS entropy; "
                    "pass an explicit seed",
                )


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
