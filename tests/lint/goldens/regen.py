#!/usr/bin/env python
"""Regenerate the lint golden digests in this directory.

Usage (from the repo root)::

    PYTHONPATH=src python tests/lint/goldens/regen.py

Rebuilds, through the same ``Project.dump`` writer as the CLI dumps, and
records the SHA-256 of each in ``digests.json``:

- ``callgraph_core.json`` — the ``repro.core`` slice of the project call
  graph (``repro lint --graph ... --graph-prefix repro.core``)
- ``effects_runtime.json`` — per-function effect summaries for the live
  runtime scopes (``repro lint --effects ...`` with the four
  ``--effects-prefix`` values the concurrency rules cover)
- ``persistence_storage.json`` — per-function persistence summaries for
  the durability scopes (``repro lint --persistence ...`` with the
  ``--persistence-prefix`` values the crash-consistency rules cover)

Run it whenever a golden test fails after an intentional change, after
reviewing the dump the failing test wrote (its message names the file)
against the parent's: a new suspension point or a widened blocking
closure in the diff is the analysis telling you what your edit did to
the runtime's concurrency behavior.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent
DIGESTS = GOLDENS / "digests.json"


def _repo_root() -> Path:
    """The repo root: via the importable package, else relative to here."""
    try:
        import repro

        return Path(repro.__file__).resolve().parent.parent.parent
    except ImportError:
        return GOLDENS.parents[2]

#: Module prefixes of the effects golden — the concurrency-rule scopes
#: (mirrors repro.lint.rules.scopes.RUNTIME_SCOPE_PREFIXES).
EFFECTS_PREFIXES = (
    "repro.net.tcp",
    "repro.runtime",
    "repro.client",
    "repro.traffic",
)

#: Module prefixes of the persistence golden — the scopes the
#: crash-consistency rules reason about (journal, durable replicas, the
#: live runtime's status/spec files).
PERSISTENCE_PREFIXES = (
    "repro.storage",
    "repro.runtime",
)


#: dump name -> (analysis, module prefixes) of its ``Project.dump``.
GOLDEN_DUMPS = {
    "callgraph_core.json": ("graph", ("repro.core",)),
    "effects_runtime.json": ("effects", EFFECTS_PREFIXES),
    "persistence_storage.json": ("persistence", PERSISTENCE_PREFIXES),
}


def main() -> int:
    repo_root = _repo_root()
    sys.path.insert(0, str(repo_root / "src"))
    from repro.lint.engine import collect_modules
    from repro.lint.flow import Project

    project = Project(collect_modules(repo_root / "src", None))
    digests = {
        name: hashlib.sha256(project.dump(analysis, prefixes).encode("utf-8")).hexdigest()
        for name, (analysis, prefixes) in GOLDEN_DUMPS.items()
    }
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
