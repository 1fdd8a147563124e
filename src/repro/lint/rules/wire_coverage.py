"""Wire coverage: every protocol message is encodable and round-trip tested.

The live runtime ships exactly what the codec can encode; a message type
added to ``types/messages.py`` but never registered in ``wire/codec.py``
silently degrades to the 64-byte "untyped" fallback in the simulator and
is *unsendable* over TCP (encode_message raises, the send is dropped).
The modeled-vs-encoded wire-size parity claim additionally needs a
round-trip test per type, so the registry entry is exercised rather than
merely present.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.lint.engine import Finding, ParsedModule, ProjectRule, register_rule
from repro.lint.flow.project import Project

MESSAGES_MODULE = "repro.types.messages"
CODEC_MODULE = "repro.wire.codec"
#: Test modules that count as wire round-trip coverage.
WIRE_TEST_PREFIX = "tests.wire"

#: The marker base class for protocol messages.
MESSAGE_BASE = "Message"

#: The codec's core registration table.
REGISTRY_TABLE = "_CORE_MESSAGES"


@register_rule
class WireCoverageRule(ProjectRule):
    """Cross-module check: message dataclasses <-> codec tags <-> tests."""

    id = "wire-coverage"
    description = (
        "every Message dataclass in types/messages.py has a codec tag in "
        "wire/codec.py and is referenced by a tests/wire round-trip test"
    )
    rationale = (
        "An unregistered message cannot cross the TCP transport at all and "
        "is billed a fake 64-byte size in the simulator, quietly breaking "
        "the modeled-vs-encoded wire parity the complexity tables rely on."
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        modules = project.all_modules
        messages = _find(modules, MESSAGES_MODULE)
        codec = _find(modules, CODEC_MODULE)
        if messages is None or codec is None:
            return  # partial tree (e.g. a fixture run); nothing to check
        declared = _message_classes(messages)
        registered = _registered_names(codec)
        test_text = "\n".join(
            module.source
            for module in modules
            if module.is_test and module.module.startswith(WIRE_TEST_PREFIX)
        )
        for name, node in declared.items():
            if name not in registered:
                yield self.finding(
                    messages,
                    node,
                    f"message type {name} has no codec tag in wire/codec.py "
                    f"({REGISTRY_TABLE}); it cannot be sent over the live "
                    "transport",
                )
            if not re.search(rf"\b{re.escape(name)}\b", test_text):
                yield self.finding(
                    messages,
                    node,
                    f"message type {name} is not referenced by any "
                    f"{WIRE_TEST_PREFIX} test; add a round-trip case",
                )


def _find(
    modules: Sequence[ParsedModule], dotted: str
) -> Optional[ParsedModule]:
    for module in modules:
        if module.module == dotted:
            return module
    return None


def _message_classes(messages: ParsedModule) -> Dict[str, ast.ClassDef]:
    """Concrete Message subclasses declared in types/messages.py."""
    found: Dict[str, ast.ClassDef] = {}
    for node in messages.walk():
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
        if MESSAGE_BASE in bases:
            found[node.name] = node
    return found


def _registered_names(codec: ParsedModule) -> Set[str]:
    """Class names appearing in the codec's registration table.

    Reads the first element of each ``(cls, tag, enc, dec)`` entry in the
    ``_CORE_MESSAGES`` tuple, plus any literal class name passed to a
    direct ``register_message(...)`` call, so extension registrations
    count too.
    """
    names: Set[str] = set()
    for node in codec.walk():
        if isinstance(node, ast.Assign):
            targets: List[str] = [
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            ]
            if REGISTRY_TABLE in targets and isinstance(
                node.value, (ast.Tuple, ast.List)
            ):
                for entry in node.value.elts:
                    if (
                        isinstance(entry, (ast.Tuple, ast.List))
                        and entry.elts
                        and isinstance(entry.elts[0], ast.Name)
                    ):
                        names.add(entry.elts[0].id)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "register_message"
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            names.add(node.args[0].id)
    return names
