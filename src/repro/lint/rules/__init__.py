"""First-class rule suite; importing this package registers every rule."""

from repro.lint.rules import (  # noqa: F401  (registration side effects)
    asyncio_hygiene,
    await_atomicity,
    blocking_in_async,
    byzantine_taint,
    cancellation_safety,
    crash_consistency,
    determinism,
    dispatch_exhaustive,
    hot_path,
    quorum_literal,
    safety_state,
    swallowed_exception,
    task_lifecycle,
    unbounded_queue,
)
