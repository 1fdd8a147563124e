"""Persistence summaries: event streams, dyn-class linearization, golden."""

import json
from pathlib import Path

import repro
from repro.cli import main
from repro.lint.engine import collect_modules
from repro.lint.flow import Project

from tests.lint.conftest import assert_matches_golden, mod

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent

#: The crash-consistency scopes (mirrors goldens/regen.py).
STORAGE_PREFIXES = ("repro.storage", "repro.runtime")


def persistence_of(*modules):
    return Project(list(modules)).persistence


def kinds(stream):
    return [event.kind for event in stream]


# ----------------------------------------------------------------------
# Direct streams: mutations, calls, file idioms in evaluation order
# ----------------------------------------------------------------------
def test_safety_mutations_and_journal_sends_in_order():
    index = persistence_of(mod(
        """
        class SafetyJournal:
            def write(self, snapshot):
                pass

        class Network:
            def send(self, sender, receiver, message):
                pass

        class Node:
            def __init__(self, network: Network):
                self.network = network
                self.journal = SafetyJournal()
                self.r_vote = 0

            def deliver(self, sender, message):
                self.r_vote = message
                self.journal.write(self.r_vote)
                self.network.send(0, 1, message)
        """,
        "repro.fix.node",
    ))
    stream = index.linearize("repro.fix.node.Node.deliver")
    assert kinds(stream) == ["mutate", "journal", "send"]
    assert stream[0].detail == "r_vote"
    assert stream[1].detail == "repro.fix.node.SafetyJournal.write"
    assert stream[2].detail == "repro.fix.node.Network.send"


def test_mutator_method_on_tracked_container_is_a_mutation():
    index = persistence_of(mod(
        """
        class Node:
            def __init__(self):
                self._proposed = set()
                self.cache = set()

            def mark(self, key):
                self._proposed.add(key)
                self.cache.add(key)
        """,
        "repro.fix.mut",
    ))
    stream = index.linearize("repro.fix.mut.Node.mark")
    mutations = [e for e in stream if e.kind == "mutate"]
    assert [e.detail for e in mutations] == ["_proposed"]


def test_file_write_idioms_classified():
    index = persistence_of(mod(
        """
        import os

        def publish(path, text):
            tmp = path.with_suffix(".tmp")
            with open(tmp, "w") as handle:
                handle.write(text)
                os.fsync(handle.fileno())
            os.replace(tmp, path)

        def torn(path, text):
            path.write_text(text)

        def log_append(path, line):
            with open(path, "a") as handle:
                handle.write(line)
        """,
        "repro.fix.files",
    ))
    publish = index.persistence("repro.fix.files.publish").stream
    assert [e.kind for e in publish if e.kind != "call"] == [
        "open_write", "fsync", "replace",
    ]
    assert next(e for e in publish if e.kind == "open_write").detail == "w@tmp"
    torn = index.persistence("repro.fix.files.torn").stream
    assert [e.detail for e in torn if e.kind == "open_write"] == [
        "write_text@plain"
    ]
    appender = index.persistence("repro.fix.files.log_append").stream
    assert [e.detail for e in appender if e.kind == "open_write"] == ["a@plain"]


def test_loop_bodies_emit_twice_for_loopback_visibility():
    index = persistence_of(mod(
        """
        class Node:
            def __init__(self):
                self.r_vote = 0

            def spin(self, items):
                for item in items:
                    self.r_vote = item
        """,
        "repro.fix.loop",
    ))
    stream = index.linearize("repro.fix.loop.Node.spin")
    assert kinds(stream) == ["mutate", "mutate"]


# ----------------------------------------------------------------------
# Dynamic-class-aware linearization: the SendOutbox property
# ----------------------------------------------------------------------
OUTBOX_TREE = """
class Network:
    def send(self, sender, receiver, message):
        pass


class Outbox:
    def __init__(self, inner: Network):
        self.inner = inner
        self.pending = []

    def send(self, sender, receiver, message):
        self.pending.append((sender, receiver, message))

    def flush(self):
        for sender, receiver, message in self.pending:
            self.inner.send(sender, receiver, message)


class Journal:
    def write(self, snapshot):
        pass


class Base:
    def __init__(self, network: Network):
        self.network = network
        self.r_vote = 0

    def handle(self, message):
        self.r_vote = message
        self.network.send(0, 1, message)


class Durable(Base):
    def __init__(self, network: Network):
        self.journal = Journal()
        self.network = Outbox(self.network)

    def deliver(self, message):
        super().handle(message)
        self.journal.write(self.r_vote)
        self.network.flush()
"""


def test_attr_hops_resolve_through_dynamic_class():
    index = persistence_of(mod(OUTBOX_TREE, "repro.fix.outbox"))
    # As a Base, self.network is the raw Network: mutate then egress.
    base = index.linearize("repro.fix.outbox.Base.handle")
    assert kinds(base) == ["mutate", "send"]
    # As a Durable, the same body resolves self.network to the Outbox:
    # the send is buffered (no egress) until flush hits the inner network.
    durable = index.linearize(
        "repro.fix.outbox.Base.handle", dyn_class="repro.fix.outbox.Durable"
    )
    assert "send" not in kinds(durable)


def test_super_dispatch_keeps_dynamic_class_and_orders_egress():
    index = persistence_of(mod(OUTBOX_TREE, "repro.fix.outbox"))
    stream = index.linearize(
        "repro.fix.outbox.Durable.deliver",
        dyn_class="repro.fix.outbox.Durable",
    )
    interesting = [e.kind for e in stream if e.kind in ("mutate", "journal", "send")]
    # super().handle mutates through the outbox (buffered), journal write
    # lands, then flush releases the send: the write-ahead order.
    assert interesting[0] == "mutate"
    assert "journal" in interesting
    assert interesting.index("journal") < interesting.index("send")
    send = next(e for e in stream if e.kind == "send")
    assert send.detail == "repro.fix.outbox.Network.send"


def test_constructed_with_self_back_refs_adopt_dynamic_class():
    index = persistence_of(mod(
        OUTBOX_TREE + """

class Engine:
    def __init__(self, node: Base):
        self.node = node

    def fire(self, message):
        self.node.network.send(0, 1, message)


class EngineDurable(Durable):
    def __init__(self, network: Network):
        self.engine = Engine(self)

    def kick(self, message):
        self.engine.fire(message)
""",
        "repro.fix.outbox",
    ))
    # Called from the durable subclass, the engine's back-reference
    # carries the dynamic class: node.network resolves to the Outbox, so
    # nothing reaches the wire inside fire().
    durable = index.linearize(
        "repro.fix.outbox.EngineDurable.kick",
        dyn_class="repro.fix.outbox.EngineDurable",
    )
    assert "send" not in kinds(durable)
    # Linearized as a plain Engine (no constructor back-ref), the same
    # body is raw egress.
    plain = index.linearize("repro.fix.outbox.Engine.fire")
    assert kinds(plain) == ["send"]


def test_self_alias_locals_resolve_like_self():
    index = persistence_of(mod(
        OUTBOX_TREE + """

class Alias(Durable):
    def poke(self, message):
        network = self.network
        network.send(0, 1, message)
""",
        "repro.fix.outbox",
    ))
    stream = index.linearize(
        "repro.fix.outbox.Alias.poke", dyn_class="repro.fix.outbox.Alias"
    )
    # `network = self.network` resolves through the dynamic class to the
    # Outbox: buffered, not egress.
    assert "send" not in kinds(stream)


def test_unresolved_network_chain_is_heuristic_egress():
    index = persistence_of(mod(
        """
        class Node:
            def __init__(self, transport):
                self.transport = transport

            def emit(self, message):
                self.transport.send(0, 1, message)
        """,
        "repro.fix.heur",
    ))
    stream = index.linearize("repro.fix.heur.Node.emit")
    assert kinds(stream) == ["send"]


def test_recursion_terminates():
    index = persistence_of(mod(
        """
        class Node:
            def __init__(self):
                self.r_vote = 0

            def ping(self, n):
                self.r_vote = n
                self.pong(n)

            def pong(self, n):
                self.ping(n)
        """,
        "repro.fix.rec",
    ))
    stream = index.linearize("repro.fix.rec.Node.ping")
    assert kinds(stream).count("mutate") >= 1


# ----------------------------------------------------------------------
# Serialization: byte-stable and matching the golden
# ----------------------------------------------------------------------
def _storage_dump() -> str:
    project = Project(collect_modules(REPO_ROOT / "src", None))
    return project.dump("persistence", STORAGE_PREFIXES)


def test_serialized_persistence_is_build_stable():
    assert _storage_dump() == _storage_dump()


def test_storage_persistence_matches_golden_file(tmp_path):
    assert_matches_golden("persistence_storage.json", _storage_dump(), tmp_path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_persistence_dump_stdout(capsys):
    assert main(
        ["lint", "--persistence", "--persistence-prefix", "repro.storage"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert all(
        entry["module"].startswith("repro.storage")
        for entry in payload["functions"].values()
    )
    persist = payload["functions"]["repro.storage.durable.DurableReplica._persist"]
    assert any(event["kind"] == "call" for event in persist["events"])


def test_cli_persistence_dump_to_file(tmp_path, capsys):
    out = tmp_path / "persistence.json"
    assert main(
        ["lint", "--persistence", str(out), "--persistence-prefix", "repro.storage"]
    ) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["version"] == 1
    assert "written to" in capsys.readouterr().out
