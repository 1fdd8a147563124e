"""One lint pass, one project: each flow analysis is built exactly once."""

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.lint import collect_modules, lint_modules
from repro.lint.flow import build_call_graph, build_effects, build_persistence

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent


@pytest.mark.parametrize(
    "changed_paths", [None, {"src/repro/storage/durable.py"}], ids=["full", "changed"]
)
def test_one_lint_pass_builds_each_analysis_once(monkeypatch, changed_paths):
    # Count every call of the three builders, however a module imported
    # them (by name from the defining module or through the package).
    counts = Counter()
    for builder in (build_call_graph, build_effects, build_persistence):

        def counting(*args, _builder=builder, **kwargs):
            counts[_builder.__name__] += 1
            return _builder(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.lint") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is builder:
                        monkeypatch.setattr(module, attr, counting)

    lint_modules(
        collect_modules(REPO_ROOT / "src", REPO_ROOT / "tests"),
        changed_paths=changed_paths,
    )
    assert counts == {
        "build_call_graph": 1,
        "build_effects": 1,
        "build_persistence": 1,
    }


def test_combined_dump_invocation_matches_separate_ones(tmp_path, capsys):
    prefixes = {
        "graph": ["--graph-prefix", "repro.core"],
        "effects": ["--effects-prefix", "repro.runtime",
                    "--effects-prefix", "repro.net.tcp"],
        "persistence": ["--persistence-prefix", "repro.storage"],
    }
    combined = ["lint"]
    for analysis, flags in prefixes.items():
        separate = tmp_path / f"{analysis}.json"
        assert main(["lint", f"--{analysis}", str(separate), *flags]) == 0
        combined += [f"--{analysis}", str(tmp_path / f"combined-{analysis}.json")]
        combined += flags
    assert main(combined) == 0
    out = capsys.readouterr().out
    for analysis in prefixes:
        separate = (tmp_path / f"{analysis}.json").read_bytes()
        assert (tmp_path / f"combined-{analysis}.json").read_bytes() == separate
    assert out.count("written to") == 6
