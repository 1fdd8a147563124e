"""Call-graph construction: method/alias resolution and serialization."""

from pathlib import Path

import repro
from repro.lint.engine import collect_modules
from repro.lint.flow import Project, build_call_graph

from tests.lint.conftest import assert_matches_golden, mod

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent


def graph_of(*modules):
    return build_call_graph(list(modules))


def test_same_module_bare_calls_resolve():
    g = graph_of(mod(
        """
        def helper():
            pass

        def caller():
            helper()
        """,
        "repro.pkg.a",
    ))
    assert "repro.pkg.a.helper" in g.functions["repro.pkg.a.caller"].calls


def test_self_method_resolves_through_own_class():
    g = graph_of(mod(
        """
        class Replica:
            def step(self):
                self.advance()

            def advance(self):
                pass
        """,
        "repro.pkg.a",
    ))
    node = g.functions["repro.pkg.a.Replica.step"]
    assert "repro.pkg.a.Replica.advance" in node.calls
    assert node.unresolved == set()


def test_self_method_resolves_through_project_base_class():
    base = mod(
        """
        class Process:
            def set_timer(self, delay):
                pass
        """,
        "repro.sim.process",
    )
    child = mod(
        """
        from repro.sim.process import Process

        class Replica(Process):
            def on_start(self):
                self.set_timer(1.0)
        """,
        "repro.core.replica",
    )
    g = graph_of(base, child)
    node = g.functions["repro.core.replica.Replica.on_start"]
    assert "repro.sim.process.Process.set_timer" in node.calls


def test_import_alias_resolution():
    target = mod(
        """
        def verify_qc(qc):
            pass
        """,
        "repro.core.validation",
    )
    user = mod(
        """
        from repro.core.validation import verify_qc as vq
        import repro.core.validation as val

        def a(qc):
            vq(qc)

        def b(qc):
            val.verify_qc(qc)
        """,
        "repro.core.replica",
    )
    g = graph_of(target, user)
    assert "repro.core.validation.verify_qc" in g.functions["repro.core.replica.a"].calls
    assert "repro.core.validation.verify_qc" in g.functions["repro.core.replica.b"].calls


def test_relative_imports_resolve_against_the_package():
    source = """
        from . import validation
        from .validation import verify_qc
        from .. import ledger
        """
    module = mod(source, "repro.core.replica")
    package = mod(source, "repro.core", path="repro/core/__init__.py")
    assert module.imports == {
        "validation": "repro.core.validation",
        "verify_qc": "repro.core.validation.verify_qc",
        "ledger": "repro.ledger",
    }
    assert package.imports == module.imports
    target = mod(
        """
        def verify_qc(qc):
            pass
        """,
        "repro.core.validation",
    )
    user = mod(
        """
        from . import validation

        def a(qc):
            validation.verify_qc(qc)
        """,
        "repro.core.replica",
    )
    g = graph_of(target, user)
    assert "repro.core.validation.verify_qc" in g.functions["repro.core.replica.a"].calls


def test_function_local_import_alias_resolution():
    target = mod(
        """
        class FallbackEngine:
            def __init__(self, replica):
                pass
        """,
        "repro.core.fallback",
    )
    user = mod(
        """
        class Replica:
            def __init__(self):
                from repro.core.fallback import FallbackEngine
                self.fallback = FallbackEngine(self)
        """,
        "repro.core.replica",
    )
    g = graph_of(target, user)
    node = g.functions["repro.core.replica.Replica.__init__"]
    assert "repro.core.fallback.FallbackEngine.__init__" in node.calls
    # ...and the attribute type was inferred from the constructor call.
    assert (
        g.classes["repro.core.replica.Replica"].attr_types["fallback"]
        == "repro.core.fallback.FallbackEngine"
    )


def test_typed_attribute_method_call_resolution():
    safety = mod(
        """
        class SafetyRules:
            def update_lock(self, qc):
                pass
        """,
        "repro.core.safety",
    )
    replica = mod(
        """
        from repro.core.safety import SafetyRules

        class Replica:
            def __init__(self):
                self.safety = SafetyRules()

            def process(self, cert):
                self.safety.update_lock(cert)
        """,
        "repro.core.replica",
    )
    g = graph_of(safety, replica)
    node = g.functions["repro.core.replica.Replica.process"]
    assert "repro.core.safety.SafetyRules.update_lock" in node.calls


def test_call_targets_are_recorded_per_site():
    g = graph_of(mod(
        """
        def helper():
            pass

        def caller():
            helper()
        """,
        "repro.pkg.a",
    ))
    node = g.functions["repro.pkg.a.caller"]
    assert list(node.call_targets.values()) == ["repro.pkg.a.helper"]


def test_reachable_from_walks_the_graph():
    g = graph_of(mod(
        """
        def a():
            b()

        def b():
            c()

        def c():
            pass

        def unrelated():
            pass
        """,
        "repro.pkg.a",
    ))
    reach = g.reachable_from(["repro.pkg.a.a"])
    assert reach == {"repro.pkg.a.a", "repro.pkg.a.b", "repro.pkg.a.c"}


def _real_core_dump() -> str:
    project = Project(collect_modules(REPO_ROOT / "src", None))
    return project.dump("graph", ["repro.core"])


def test_serialized_graph_is_build_stable():
    # Two independent builds of the same tree serialize byte-identically —
    # the property the per-PR graph-diff artifact depends on.
    assert _real_core_dump() == _real_core_dump()


def test_core_graph_matches_golden_file(tmp_path):
    assert_matches_golden("callgraph_core.json", _real_core_dump(), tmp_path)
