"""Shared scope policy for the concurrency-rule family.

The five interprocedural asyncio rules (`await-atomicity`,
`blocking-in-async`, `task-lifecycle`, `cancellation-safety`,
`unbounded-queue`) all target the *live runtime* — the code that runs
replicas over real sockets and processes — and deliberately skip the
deterministic simulator, where there is no event loop to stall and no
task to leak.  Keeping the prefix list in one place means a new runtime
package gets all five rules by adding one string.  The asyncio rules
(`asyncio-hygiene`, `task-lifecycle`, `cancellation-safety`) further
require :func:`imports_asyncio`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lint.astutil import under_prefix

if TYPE_CHECKING:
    from repro.lint.engine import ParsedModule

#: Dotted module prefixes the concurrency rules apply to.
RUNTIME_SCOPE_PREFIXES = (
    "repro.net.tcp",
    "repro.runtime",
    "repro.client",
    "repro.traffic",
)


def in_runtime_scope(module_name: str) -> bool:
    """True when ``module_name`` falls under a runtime scope prefix."""
    return under_prefix(module_name, RUNTIME_SCOPE_PREFIXES)


def imports_asyncio(module: "ParsedModule") -> bool:
    """True when the module imports asyncio, as ``import asyncio`` or
    ``from asyncio import ...``."""
    return any(under_prefix(value, ["asyncio"]) for value in module.imports.values())
