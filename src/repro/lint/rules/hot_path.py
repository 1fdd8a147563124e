"""Hot-path discipline: event-engine and value-object classes stay lean.

``sim/events.py`` allocates one object per scheduled event — millions per
benchmark run — and every message/certificate/block in ``types/`` is
hashed, compared and shipped constantly.  A stray ``__dict__`` per event
costs measurable events/sec (PR 2's slim-engine speedup depends on it),
and a mutable value object invites aliasing bugs the protocol proofs never
contemplated.

``core/quorum.py`` holds the incremental quorum trackers and per-view
fallback state: one tracker per in-flight (round, view, block) at every
replica, so at n=64+ they are allocated and probed on every message — the
same discipline applies.

``traffic/`` sits on the request path: envelopes see every arrival,
admission control fronts every submission, and the batch controller runs
per proposal — so its controller/state classes carry the same __slots__
discipline.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import (
    class_defines_slots,
    dataclass_decorator,
    dataclass_is_frozen,
    under_prefix,
)
from repro.lint.engine import Finding, ParsedModule, Rule, register_rule

#: Modules where every class must be slotted or a frozen dataclass.
HOT_PATH_MODULES = ("repro.sim.events", "repro.core.quorum")
#: Module prefixes under the same discipline (every submodule).
HOT_PATH_PREFIXES = ("repro.types", "repro.traffic")
VALUE_OBJECT_PREFIX = "repro.types"

#: Base-class names that exempt a class (interfaces and exceptions carry
#: no per-instance hot-path state).
_EXEMPT_BASES = frozenset(
    {"Protocol", "Exception", "ValueError", "RuntimeError", "TypeError"}
)


@register_rule
class HotPathRule(Rule):
    """sim/events.py classes need __slots__; types/ dataclasses are frozen."""

    id = "hot-path"
    description = (
        "classes in sim/events.py, core/quorum.py and repro.traffic define "
        "__slots__; dataclasses under types/ and traffic/ are frozen "
        "(plain classes there need __slots__)"
    )
    rationale = (
        "The event queue allocates per simulated event, types/ objects "
        "are the protocol's value vocabulary, and traffic/ runs on the "
        "request path: __slots__ keeps those hot paths allocation-light, "
        "and frozen dataclasses make message/certificate immutability "
        "structural rather than conventional."
    )

    def applies_to(self, module: ParsedModule) -> bool:
        if module.is_test:
            return False
        if module.module in HOT_PATH_MODULES:
            return True
        return under_prefix(module.module, HOT_PATH_PREFIXES)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = {
                base.id for base in node.bases if isinstance(base, ast.Name)
            }
            if base_names & _EXEMPT_BASES:
                continue
            decorator = dataclass_decorator(node)
            if decorator is not None:
                if not dataclass_is_frozen(decorator):
                    yield self.finding(
                        module,
                        node,
                        f"dataclass {node.name} is mutable; value objects "
                        "here must be @dataclass(frozen=True)",
                    )
            elif not class_defines_slots(node):
                yield self.finding(
                    module,
                    node,
                    f"class {node.name} has no __slots__; hot-path classes "
                    "in this module must not carry a per-instance __dict__",
                )
