"""Effect summaries: direct facts, transitive closure, golden stability."""

import json
from pathlib import Path

import repro
from repro.cli import main
from repro.lint.engine import collect_modules
from repro.lint.flow import Project

from tests.lint.conftest import GOLDEN_DIGESTS, assert_matches_golden, mod

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent

#: The concurrency-rule scopes (mirrors goldens/regen.py).
RUNTIME_PREFIXES = (
    "repro.net.tcp",
    "repro.runtime",
    "repro.client",
    "repro.traffic",
)


def effects_of(*modules):
    return Project(list(modules)).effects


# ----------------------------------------------------------------------
# Suspension points: resolved through the call graph
# ----------------------------------------------------------------------
def test_await_of_external_call_suspends():
    fx = effects_of(mod(
        """
        import asyncio

        async def tick():
            await asyncio.sleep(0)
        """,
        "repro.runtime.fx",
    ))
    assert fx.may_suspend("repro.runtime.fx.tick")
    assert fx.suspension_lines("repro.runtime.fx.tick") == [5]


def test_await_of_non_suspending_project_coroutine_does_not_suspend():
    # Awaiting a coroutine with no suspension points never yields to the
    # loop — the precision the await-atomicity rule depends on.
    fx = effects_of(mod(
        """
        import asyncio

        async def noop():
            return None

        async def caller():
            await noop()
        """,
        "repro.runtime.fx",
    ))
    assert not fx.may_suspend("repro.runtime.fx.noop")
    assert not fx.may_suspend("repro.runtime.fx.caller")
    assert fx.suspension_lines("repro.runtime.fx.caller") == []


def test_may_suspend_propagates_transitively():
    fx = effects_of(mod(
        """
        import asyncio

        async def leaf():
            await asyncio.sleep(0)

        async def middle():
            await leaf()

        async def top():
            await middle()
        """,
        "repro.runtime.fx",
    ))
    assert fx.may_suspend("repro.runtime.fx.top")
    assert fx.suspension_lines("repro.runtime.fx.top") == [11]


def test_async_for_and_async_with_always_suspend():
    fx = effects_of(mod(
        """
        async def pump(source, lock):
            async with lock:
                pass
            async for item in source:
                pass
        """,
        "repro.runtime.fx",
    ))
    assert fx.may_suspend("repro.runtime.fx.pump")
    assert fx.suspension_lines("repro.runtime.fx.pump") == [3, 5]


def test_recursive_async_functions_terminate():
    fx = effects_of(mod(
        """
        async def ping():
            await pong()

        async def pong():
            await ping()
        """,
        "repro.runtime.fx",
    ))
    # Pure cycle with no real suspension point: least fixed point is False.
    assert not fx.may_suspend("repro.runtime.fx.ping")
    assert not fx.may_suspend("repro.runtime.fx.pong")


# ----------------------------------------------------------------------
# Self-attribute reads/writes
# ----------------------------------------------------------------------
def test_self_read_write_classification():
    fx = effects_of(mod(
        """
        class Node:
            def step(self):
                self.height += 1
                self.view = self.height
                self.peers[3] = "x"
                self.buffer.append("y")
                del self.stale
        """,
        "repro.runtime.fx",
    ))
    node = fx.effects("repro.runtime.fx.Node.step")
    # AugAssign reads and writes; subscript store writes without a read
    # of the mapping state; a mutating method call is a read (in-place
    # mutation is atomic on a single-threaded loop); del is a write.
    assert node.self_reads == {"height", "buffer"}
    assert node.self_writes == {"height", "view", "peers", "stale"}


def test_self_method_call_effects_inline_at_call_site():
    fx = effects_of(mod(
        """
        class Node:
            def bump(self):
                self.count += 1

            def step(self):
                self.bump()
        """,
        "repro.runtime.fx",
    ))
    assert fx.self_writes_closure("repro.runtime.fx.Node.step") == {"count"}
    assert fx.self_reads_closure("repro.runtime.fx.Node.step") == {"count"}


# ----------------------------------------------------------------------
# Blocking closure
# ----------------------------------------------------------------------
def test_blocking_calls_resolve_through_imports_and_propagate():
    fx = effects_of(mod(
        """
        import os

        def fsync_file(fd):
            os.fsync(fd)

        def persist(fd):
            fsync_file(fd)

        async def handler(fd):
            persist(fd)
        """,
        "repro.runtime.fx",
    ))
    assert fx.may_block("repro.runtime.fx.handler")
    assert fx.blocking_reached("repro.runtime.fx.handler") == {
        ("repro.runtime.fx.fsync_file", "os.fsync")
    }


def test_path_write_text_is_blocking():
    fx = effects_of(mod(
        """
        def snapshot(path, data):
            path.write_text(data)
        """,
        "repro.runtime.fx",
    ))
    node = fx.effects("repro.runtime.fx.snapshot")
    assert [name for _line, name in node.blocking_calls] == ["write_text"]


# ----------------------------------------------------------------------
# Tasks and locks
# ----------------------------------------------------------------------
def test_task_retention_targets():
    fx = effects_of(mod(
        """
        import asyncio

        class Node:
            def start(self, loop):
                self.task = loop.create_task(work())
                local = asyncio.create_task(work())
                self._tasks.add(asyncio.create_task(work()))
        """,
        "repro.runtime.fx",
    ))
    node = fx.effects("repro.runtime.fx.Node.start")
    assert [(line, target) for line, target in node.tasks] == [
        (6, "self.task"),
        (7, "local"),
        (8, "self._tasks.add"),
    ]


def test_lock_shaped_context_managers_detected():
    fx = effects_of(mod(
        """
        class Node:
            async def step(self):
                async with self._lock:
                    pass
        """,
        "repro.runtime.fx",
    ))
    node = fx.effects("repro.runtime.fx.Node.step")
    assert node.locks == {"self._lock"}


# ----------------------------------------------------------------------
# Serialization: byte-stable and matching the golden
# ----------------------------------------------------------------------
def _runtime_dump() -> str:
    project = Project(collect_modules(REPO_ROOT / "src", None))
    return project.dump("effects", RUNTIME_PREFIXES)


def test_serialized_effects_are_build_stable():
    # Two independent builds serialize byte-identically — the property
    # the per-PR effects-diff artifact depends on.
    assert _runtime_dump() == _runtime_dump()


def test_runtime_effects_match_golden_file(tmp_path):
    assert_matches_golden("effects_runtime.json", _runtime_dump(), tmp_path)


def test_regen_script_reproduces_both_goldens(tmp_path):
    # A copy of regen.py run from a scratch directory must reproduce the
    # checked-in digests byte-for-byte (it writes next to itself; the real
    # source tree is located through the importable repro package).
    import os
    import shutil
    import subprocess
    import sys

    staged = tmp_path / "goldens"
    staged.mkdir()
    shutil.copy(GOLDEN_DIGESTS.parent / "regen.py", staged / "regen.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    result = subprocess.run(
        [sys.executable, str(staged / "regen.py")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert (staged / GOLDEN_DIGESTS.name).read_bytes() == GOLDEN_DIGESTS.read_bytes()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_effects_dump_stdout(capsys):
    assert main(["lint", "--effects", "--effects-prefix", "repro.net.tcp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert all(
        entry["module"] == "repro.net.tcp"
        for entry in payload["functions"].values()
    )
    assert payload["functions"]["repro.net.tcp._PeerChannel._run"]["may_suspend"]


def test_cli_effects_dump_to_file(tmp_path, capsys):
    out = tmp_path / "effects.json"
    assert main(
        ["lint", "--effects", str(out), "--effects-prefix", "repro.client"]
    ) == 0
    assert "written to" in capsys.readouterr().out
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["functions"]
