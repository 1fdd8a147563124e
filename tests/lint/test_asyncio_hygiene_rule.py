"""Asyncio hygiene: task handles, awaits, blocking sleeps, loop access."""

from repro.lint.rules.asyncio_hygiene import AsyncioHygieneRule

from tests.lint.conftest import mod, run_rule


def test_discarded_create_task_is_flagged():
    module = mod(
        """
        import asyncio

        async def serve(handler):
            asyncio.create_task(handler())
        """,
        "repro.net.tcp",
    )
    findings = run_rule(AsyncioHygieneRule, module)
    assert len(findings) == 1
    assert "create_task" in findings[0].message


def test_tracked_create_task_is_allowed():
    module = mod(
        """
        import asyncio

        async def serve(self, handler):
            self.tasks.append(asyncio.create_task(handler()))
            task = asyncio.create_task(handler())
            return task
        """,
        "repro.net.tcp",
    )
    assert run_rule(AsyncioHygieneRule, module) == []


def test_unawaited_local_coroutine_is_flagged():
    module = mod(
        """
        import asyncio

        async def flush(self):
            pass

        async def close(self):
            self.flush()
        """,
        "repro.runtime.live",
    )
    findings = run_rule(AsyncioHygieneRule, module)
    assert len(findings) == 1
    assert "without await" in findings[0].message


def test_awaited_coroutine_and_foreign_close_are_allowed():
    module = mod(
        """
        import asyncio

        async def flush(self):
            pass

        async def shutdown(self, writer):
            await self.flush()
            writer.close()
        """,
        "repro.net.tcp",
    )
    assert run_rule(AsyncioHygieneRule, module) == []


def test_blocking_sleep_in_async_function_is_flagged():
    module = mod(
        """
        import asyncio
        import time

        async def backoff():
            time.sleep(0.1)
        """,
        "repro.runtime.live",
    )
    findings = run_rule(AsyncioHygieneRule, module)
    assert len(findings) == 1
    assert "time.sleep" in findings[0].message


def test_blocking_sleep_in_sync_helper_is_allowed():
    module = mod(
        """
        import asyncio
        import time

        def wait_for_port():
            time.sleep(0.1)
        """,
        "repro.runtime.live",
    )
    assert run_rule(AsyncioHygieneRule, module) == []


def test_deprecated_get_event_loop_is_flagged():
    module = mod(
        """
        import asyncio

        def loop():
            return asyncio.get_event_loop()
        """,
        "repro.runtime.live",
    )
    assert len(run_rule(AsyncioHygieneRule, module)) == 1


def test_rule_only_applies_to_asyncio_importing_repro_modules():
    sim = mod(
        """
        def create_task(x):
            return x

        def run():
            create_task(1)
        """,
        "repro.sim.scheduler",
    )
    assert run_rule(AsyncioHygieneRule, sim) == []


# ----------------------------------------------------------------------
# Scope: the multi-process runtime and the client swarm are covered too
# ----------------------------------------------------------------------
def test_supervisor_module_discarded_task_is_flagged():
    """True positive in repro.runtime.supervisor: a dropped monitor-task
    handle could never be cancelled at shutdown."""
    module = mod(
        """
        import asyncio

        async def spawn_monitor(handle):
            asyncio.create_task(monitor(handle))

        async def monitor(handle):
            await handle.process.wait()
        """,
        "repro.runtime.supervisor",
    )
    findings = run_rule(AsyncioHygieneRule, module)
    assert len(findings) == 1
    assert "create_task" in findings[0].message


def test_supervisor_module_blocking_restart_backoff_is_flagged():
    """True positive: a blocking backoff sleep would stall the whole chaos
    schedule and every other monitor sharing the loop."""
    module = mod(
        """
        import asyncio
        import time

        async def delayed_restart(handle, delay):
            time.sleep(delay)
            await spawn(handle)

        async def spawn(handle):
            pass
        """,
        "repro.runtime.supervisor",
    )
    findings = run_rule(AsyncioHygieneRule, module)
    assert len(findings) == 1
    assert "time.sleep" in findings[0].message


def test_supervisor_module_tracked_tasks_and_async_sleep_are_clean():
    """False-positive guard: the supervisor's real idioms — stored task
    handles, done-callbacks for self-cleanup, awaited asyncio.sleep — must
    not be flagged."""
    module = mod(
        """
        import asyncio

        async def spawn(self, handle):
            handle.monitor = asyncio.get_running_loop().create_task(
                self.monitor(handle)
            )
            task = asyncio.create_task(self.restart_later(handle, 0.5))
            self.restart_tasks.add(task)
            task.add_done_callback(self.restart_tasks.discard)

        async def monitor(self, handle):
            await handle.process.wait()

        async def restart_later(self, handle, delay):
            await asyncio.sleep(delay)
        """,
        "repro.runtime.supervisor",
    )
    assert run_rule(AsyncioHygieneRule, module) == []


def test_swarm_module_unawaited_close_is_flagged():
    """True positive in repro.client.swarm: forgetting to await close()
    silently leaks every client connection."""
    module = mod(
        """
        import asyncio

        async def close(self):
            pass

        async def run(self):
            self.close()
        """,
        "repro.client.swarm",
    )
    findings = run_rule(AsyncioHygieneRule, module)
    assert len(findings) == 1
    assert "without await" in findings[0].message


def test_swarm_module_wall_clock_reads_are_clean():
    """False-positive guard: the swarm's wall-clock timestamping uses
    time.monotonic() (non-blocking) inside async code — only time.sleep
    is the hazard."""
    module = mod(
        """
        import asyncio
        import time

        async def drive(self, deadline):
            while time.monotonic() < deadline:
                self.submit()
                await asyncio.sleep(0.01)

        def submit(self):
            return time.monotonic()
        """,
        "repro.client.swarm",
    )
    assert run_rule(AsyncioHygieneRule, module) == []


def test_from_asyncio_import_spelling_is_covered():
    """``from asyncio import ...`` gates the rule in just as
    ``import asyncio`` does."""
    module = mod(
        """
        from asyncio import create_task, get_event_loop

        async def serve(handler):
            create_task(handler())
            return get_event_loop()
        """,
        "repro.net.tcp",
    )
    findings = run_rule(AsyncioHygieneRule, module)
    assert len(findings) == 2
    assert "create_task" in findings[0].message
    assert "get_event_loop" in findings[1].message
