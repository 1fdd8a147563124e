"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _parse_byzantine, build_parser, main


def test_protocols_command(capsys):
    assert main(["protocols"]) == 0
    out = capsys.readouterr().out
    assert "fallback-3chain" in out
    assert "always-fallback" in out


def test_run_sync_default(capsys):
    assert main(["run", "--commits", "8", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "decisions:" in out
    assert "safety: OK" in out


def test_run_json_output(capsys):
    assert main(["run", "--commits", "5", "--seed", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["live"]
    assert payload["decisions"] >= 5
    assert payload["safety_violations"] == []
    assert payload["protocol"] == "fallback-3chain"


def test_run_attack_network(capsys):
    assert main([
        "run", "--network", "attack", "--commits", "3", "--seed", "2", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["live"]
    assert payload["fallbacks"] >= 1


def test_run_with_byzantine_spec(capsys):
    assert main([
        "run", "--commits", "8", "--seed", "3",
        "--byzantine", "0:withhold", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["live"]


def test_run_with_crash_arg(capsys):
    assert main([
        "run", "--commits", "8", "--seed", "3",
        "--byzantine", "1:crash@15", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["live"]


def test_bad_byzantine_spec_exits():
    with pytest.raises(SystemExit):
        main(["run", "--byzantine", "0:hackerman"])
    with pytest.raises(SystemExit):
        main(["run", "--byzantine", "whatever"])


def test_parse_byzantine_helper():
    parsed = _parse_byzantine(["2:crash@25"])
    assert parsed[0][0] == 2
    assert _parse_byzantine([]) == []


def test_partition_network(capsys):
    assert main([
        "run", "--network", "partition", "--heal", "40",
        "--commits", "5", "--seed", "4", "--json", "--until", "5000",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["live"]


def test_table1_command(capsys):
    assert main(["claims"]) == 0
    out = capsys.readouterr().out
    assert "## E1 — Table 1: holds" in out
    assert "| diembft | async (leader attack) | not live if async |" in out
    assert "no decisions (not live)" in out  # the diembft async cell
    assert "- holds: diembft is not live under the attack" in out


def test_scaling_command(capsys):
    assert main(["claims"]) == 0
    out = capsys.readouterr().out
    assert "## E5 — Theorem 9 — scaling: holds" in out
    assert "| log-log slope |" in out
    assert "- holds: sync msgs/decision slope within 0.7–1.3 (O(n))" in out
    assert "- holds: async msgs/decision slope within 1.6–2.4 (O(n²))" in out


def test_claims_command_writes_only_generated_tables(tmp_path, monkeypatch, capsys):
    from repro.experiments import claims

    document = claims.EXPERIMENTS_MD.read_text(encoding="utf-8")
    edited = document.replace("| 13.0 |", "| 14.0 |", 1)
    assert edited != document
    target = tmp_path / "EXPERIMENTS.md"
    target.write_text(edited, encoding="utf-8")
    monkeypatch.setattr(claims, "EXPERIMENTS_MD", target)
    assert main(["claims", "--write"]) == 0
    out = capsys.readouterr().out
    assert "## E1 — Table 1: holds" in out
    assert "no decisions (not live)" in out  # the diembft async cell
    assert target.read_text(encoding="utf-8") == document


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
