"""Synthetic true/false-positive fixtures for the five concurrency rules."""

from repro.lint.rules.await_atomicity import AwaitAtomicityRule
from repro.lint.rules.blocking_in_async import BlockingInAsyncRule
from repro.lint.rules.cancellation_safety import CancellationSafetyRule
from repro.lint.rules.task_lifecycle import TaskLifecycleRule
from repro.lint.rules.unbounded_queue import UnboundedQueueRule

from tests.lint.conftest import mod, run_rule


# ----------------------------------------------------------------------
# await-atomicity
# ----------------------------------------------------------------------
def test_await_atomicity_flags_stale_write_across_suspension():
    findings = run_rule(AwaitAtomicityRule, mod(
        """
        import asyncio

        class Registry:
            async def replace(self, peer_id):
                stale = self._channels.pop(peer_id, None)
                if stale is not None:
                    await stale.close()
                self._channels[peer_id] = object()
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["await-atomicity"]
    assert "_channels" in findings[0].message


def test_await_atomicity_accepts_reread_after_suspension():
    findings = run_rule(AwaitAtomicityRule, mod(
        """
        import asyncio

        class Counter:
            async def bump(self):
                value = self._count
                await asyncio.sleep(0)
                if self._count == value:
                    self._count = value + 1
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


def test_await_atomicity_accepts_suspension_under_lock():
    findings = run_rule(AwaitAtomicityRule, mod(
        """
        import asyncio

        class Counter:
            async def bump(self):
                async with self._lock:
                    value = self._count
                    await asyncio.sleep(0)
                    self._count = value + 1
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


def test_await_atomicity_accepts_non_suspending_project_await():
    # Awaiting a project coroutine with no suspension points does not
    # yield to the loop, so the read-write pair stays atomic.
    findings = run_rule(AwaitAtomicityRule, mod(
        """
        import asyncio

        class Counter:
            async def noop(self):
                return None

            async def bump(self):
                value = self._count
                await self.noop()
                self._count = value + 1
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


def test_await_atomicity_catches_loop_back_hazard():
    # The value read in iteration N crosses the await at the bottom of
    # the body and is written back at the top of iteration N+1.
    findings = run_rule(AwaitAtomicityRule, mod(
        """
        import asyncio

        class Pump:
            async def run(self):
                value = 0
                while True:
                    self._cursor = value
                    value = self._cursor + 1
                    await asyncio.sleep(0)
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["await-atomicity"]


def test_await_atomicity_accepts_read_modify_write_in_loop():
    # A classic increment re-reads immediately before the write every
    # iteration, so the loop-back await never separates the pair.
    findings = run_rule(AwaitAtomicityRule, mod(
        """
        import asyncio

        class Pump:
            async def run(self):
                while True:
                    self._cursor = self._cursor + 1
                    await asyncio.sleep(0)
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


def test_await_atomicity_ignores_simulator_modules():
    findings = run_rule(AwaitAtomicityRule, mod(
        """
        import asyncio

        class Registry:
            async def replace(self, peer_id):
                stale = self._channels.pop(peer_id, None)
                if stale is not None:
                    await stale.close()
                self._channels[peer_id] = object()
        """,
        "repro.core.fx",
    ))
    assert findings == []


# ----------------------------------------------------------------------
# blocking-in-async
# ----------------------------------------------------------------------
def test_blocking_in_async_flags_transitive_open():
    findings = run_rule(BlockingInAsyncRule, mod(
        """
        import asyncio

        def flush(path):
            handle = open(path, "ab")
            handle.close()

        class Node:
            async def step(self, path):
                flush(path)
                await asyncio.sleep(0)
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["blocking-in-async"]
    assert "open()" in findings[0].message
    assert "repro.runtime.fx.flush" in findings[0].message


def test_blocking_in_async_flags_direct_fsync():
    findings = run_rule(BlockingInAsyncRule, mod(
        """
        import asyncio
        import os

        class Node:
            async def persist(self, fd):
                os.fsync(fd)
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["blocking-in-async"]


def test_blocking_in_async_accepts_sanctioned_journal_path():
    journal = mod(
        """
        import os

        def append(fd):
            os.fsync(fd)
        """,
        "repro.storage.journal",
    )
    runtime = mod(
        """
        import asyncio
        from repro.storage.journal import append

        class Node:
            async def persist(self, fd):
                append(fd)
                await asyncio.sleep(0)
        """,
        "repro.runtime.fx",
    )
    assert run_rule(BlockingInAsyncRule, journal, runtime) == []


def test_blocking_in_async_leaves_sync_only_paths_alone():
    findings = run_rule(BlockingInAsyncRule, mod(
        """
        import asyncio

        def flush(path):
            handle = open(path, "ab")
            handle.close()

        def sync_caller(path):
            flush(path)
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


def test_blocking_in_async_reports_at_closest_async_frame_only():
    findings = run_rule(BlockingInAsyncRule, mod(
        """
        import asyncio
        import os

        class Node:
            async def inner(self, fd):
                os.fsync(fd)

            async def outer(self, fd):
                await self.inner(fd)
        """,
        "repro.runtime.fx",
    ))
    assert len(findings) == 1
    assert "inner" in findings[0].message


# ----------------------------------------------------------------------
# task-lifecycle
# ----------------------------------------------------------------------
def test_task_lifecycle_flags_attribute_never_joined():
    findings = run_rule(TaskLifecycleRule, mod(
        """
        import asyncio

        class Node:
            def start(self):
                self.task = asyncio.create_task(work())
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["task-lifecycle"]
    assert ".task" in findings[0].message



def test_task_lifecycle_covers_from_asyncio_import_spelling():
    findings = run_rule(TaskLifecycleRule, mod(
        """
        from asyncio import create_task

        class Node:
            def start(self):
                self.task = create_task(work())
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["task-lifecycle"]
    assert ".task" in findings[0].message

def test_task_lifecycle_accepts_attribute_cancelled_on_shutdown():
    findings = run_rule(TaskLifecycleRule, mod(
        """
        import asyncio

        class Node:
            def start(self):
                self.task = asyncio.create_task(work())

            def stop(self):
                if self.task is not None:
                    self.task.cancel()
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


def test_task_lifecycle_accepts_swap_before_suspend_pattern():
    findings = run_rule(TaskLifecycleRule, mod(
        """
        import asyncio

        class Node:
            def start(self):
                self.task = asyncio.create_task(work())

            async def close(self):
                task, self.task = self.task, None
                if task is not None:
                    task.cancel()
                    await asyncio.gather(task, return_exceptions=True)
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


def test_task_lifecycle_flags_unused_local_handle():
    findings = run_rule(TaskLifecycleRule, mod(
        """
        import asyncio

        async def fire():
            handle = asyncio.create_task(work())
            return None
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["task-lifecycle"]
    assert "handle" in findings[0].message


def test_task_lifecycle_accepts_gathered_comprehension():
    findings = run_rule(TaskLifecycleRule, mod(
        """
        import asyncio

        async def fan_out(loop, jobs):
            tasks = [loop.create_task(job()) for job in jobs]
            await asyncio.gather(*tasks)
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


# ----------------------------------------------------------------------
# cancellation-safety
# ----------------------------------------------------------------------
def test_cancellation_safety_flags_swallowed_cancellation():
    findings = run_rule(CancellationSafetyRule, mod(
        """
        import asyncio

        class Node:
            async def close(self):
                try:
                    await self.task
                except asyncio.CancelledError:
                    pass
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["cancellation-safety"]
    assert "swallows" in findings[0].message



def test_cancellation_safety_covers_from_asyncio_import_spelling():
    findings = run_rule(CancellationSafetyRule, mod(
        """
        from asyncio import CancelledError

        class Node:
            async def close(self):
                try:
                    await self.task
                except CancelledError:
                    pass
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["cancellation-safety"]
    assert "swallows" in findings[0].message

def test_cancellation_safety_flags_bare_except_in_async():
    findings = run_rule(CancellationSafetyRule, mod(
        """
        import asyncio

        class Node:
            async def close(self):
                try:
                    await self.task
                except:
                    return None
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["cancellation-safety"]


def test_cancellation_safety_accepts_reraising_handler():
    findings = run_rule(CancellationSafetyRule, mod(
        """
        import asyncio

        class Node:
            async def close(self):
                try:
                    await self.task
                except asyncio.CancelledError:
                    if not self._closed:
                        raise
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


def test_cancellation_safety_accepts_except_exception():
    # CancelledError derives from BaseException: except Exception does
    # not catch it and must not be flagged.
    findings = run_rule(CancellationSafetyRule, mod(
        """
        import asyncio

        class Node:
            async def close(self):
                try:
                    await self.task
                except Exception:
                    pass
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


def test_cancellation_safety_flags_unshielded_await_in_finally():
    findings = run_rule(CancellationSafetyRule, mod(
        """
        import asyncio

        class Node:
            async def run(self):
                try:
                    await work()
                finally:
                    await self.transport.close()
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["cancellation-safety"]
    assert "finally" in findings[0].message


def test_cancellation_safety_accepts_shielded_await_in_finally():
    findings = run_rule(CancellationSafetyRule, mod(
        """
        import asyncio

        class Node:
            async def run(self):
                try:
                    await work()
                finally:
                    await asyncio.shield(self.transport.close())
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


def test_cancellation_safety_accepts_handled_await_in_finally():
    findings = run_rule(CancellationSafetyRule, mod(
        """
        import asyncio

        class Node:
            async def run(self):
                try:
                    await work()
                finally:
                    try:
                        await self.transport.close()
                    except asyncio.CancelledError:
                        raise
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


# ----------------------------------------------------------------------
# unbounded-queue
# ----------------------------------------------------------------------
def test_unbounded_queue_flags_bare_asyncio_queue():
    findings = run_rule(UnboundedQueueRule, mod(
        """
        import asyncio

        class Channel:
            def __init__(self):
                self.queue = asyncio.Queue()
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["unbounded-queue"]
    assert "maxsize" in findings[0].message


def test_unbounded_queue_accepts_bounded_queue_and_deque():
    findings = run_rule(UnboundedQueueRule, mod(
        """
        import asyncio
        from collections import deque

        class Channel:
            def __init__(self, limit):
                self.queue = asyncio.Queue(maxsize=limit)
                self.window = deque(maxlen=64)
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


def test_unbounded_queue_flags_bare_deque_in_runtime_scope():
    findings = run_rule(UnboundedQueueRule, mod(
        """
        import asyncio
        from collections import deque

        class Channel:
            def __init__(self):
                self.backlog = deque()
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["unbounded-queue"]
    assert "maxlen" in findings[0].message


def test_unbounded_queue_flags_unhandled_put_nowait():
    findings = run_rule(UnboundedQueueRule, mod(
        """
        import asyncio

        class Channel:
            def send(self, payload):
                self.queue.put_nowait(payload)
        """,
        "repro.runtime.fx",
    ))
    assert [f.rule for f in findings] == ["unbounded-queue"]
    assert "QueueFull" in findings[0].message


def test_unbounded_queue_accepts_put_nowait_with_queuefull_handler():
    findings = run_rule(UnboundedQueueRule, mod(
        """
        import asyncio

        class Channel:
            def send(self, payload):
                try:
                    self.queue.put_nowait(payload)
                    return True
                except asyncio.QueueFull:
                    self.dropped += 1
                    return False
        """,
        "repro.runtime.fx",
    ))
    assert findings == []


def test_unbounded_queue_ignores_simulator_scope():
    findings = run_rule(UnboundedQueueRule, mod(
        """
        import asyncio

        class Channel:
            def __init__(self):
                self.queue = asyncio.Queue()
        """,
        "repro.core.fx",
    ))
    assert findings == []


# ----------------------------------------------------------------------
# pragma suppression works for the new family
# ----------------------------------------------------------------------
def test_concurrency_rules_honor_pragmas():
    findings = run_rule(UnboundedQueueRule, mod(
        """
        import asyncio

        class Channel:
            def __init__(self):
                self.queue = asyncio.Queue()  # repro-lint: ignore[unbounded-queue]
        """,
        "repro.runtime.fx",
    ))
    assert findings == []
