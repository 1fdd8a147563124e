"""Interprocedural analysis layer for `repro lint`.

`callgraph` builds a def/use-resolved project call graph from the parsed
lint modules; `taint` runs a field-level Byzantine-taint dataflow over
it; `effects` computes per-function effect summaries (suspension points,
self-attribute reads/writes, tasks, locks, blocking calls) with
transitive may-suspend/may-block closure; `persistence` computes ordered
mutate/journal/send/file-write streams.  `project.Project` owns one lint
pass's module selection and builds each analysis once for every
flow-based rule in `repro.lint.rules`; `base` holds the body walker and
the fixed-point closure the analyses share.
"""

from repro.lint.flow.callgraph import (
    CallGraph,
    ClassNode,
    FunctionNode,
    build_call_graph,
)
from repro.lint.flow.effects import (
    BLOCKING_CALLS,
    BLOCKING_METHOD_TAILS,
    EffectsIndex,
    FunctionEffects,
    build_effects,
)
from repro.lint.flow.persistence import (
    SAFETY_FIELDS,
    FunctionPersistence,
    PersistenceEvent,
    PersistenceIndex,
    build_persistence,
)
from repro.lint.flow.project import Project
from repro.lint.flow.taint import (
    GUARD_METHODS,
    SINK_METHODS,
    SinkHit,
    Summary,
    TaintEngine,
    is_sanitizer_name,
)

__all__ = [
    "BLOCKING_CALLS",
    "BLOCKING_METHOD_TAILS",
    "CallGraph",
    "ClassNode",
    "EffectsIndex",
    "FunctionEffects",
    "FunctionNode",
    "FunctionPersistence",
    "GUARD_METHODS",
    "PersistenceEvent",
    "PersistenceIndex",
    "Project",
    "SAFETY_FIELDS",
    "SINK_METHODS",
    "SinkHit",
    "Summary",
    "TaintEngine",
    "build_call_graph",
    "build_effects",
    "build_persistence",
    "is_sanitizer_name",
]
