"""Tests for protocol presets and experiment scenarios."""

import pytest

from repro.core.config import ProtocolVariant
from repro.experiments.scenarios import run_async_attack, run_sync
from repro.protocols import PROTOCOLS, preset


def test_all_four_presets_exist():
    assert set(PROTOCOLS) == {
        "fallback-3chain",
        "fallback-2chain",
        "diembft",
        "always-fallback",
    }


def test_preset_configs():
    assert preset("fallback-3chain").config(7).variant == ProtocolVariant.FALLBACK_3CHAIN
    assert preset("fallback-2chain").config(7).variant == ProtocolVariant.FALLBACK_2CHAIN
    assert preset("diembft").config(7).variant == ProtocolVariant.DIEMBFT
    assert preset("always-fallback").config(7).variant == ProtocolVariant.ALWAYS_FALLBACK


def test_preset_config_overrides():
    config = preset("fallback-3chain").config(7, round_timeout=9.0)
    assert config.round_timeout == 9.0
    assert config.n == 7


def test_unknown_preset():
    with pytest.raises(KeyError):
        preset("pbft")


def test_run_sync_scenario():
    result = run_sync("fallback-3chain", n=4, seed=1, target_commits=10)
    assert result.live
    assert result.network == "sync"
    assert result.fallbacks == 0
    assert result.messages_per_decision is not None


def test_run_async_attack_scenario():
    result = run_async_attack("fallback-3chain", n=4, seed=1, target_commits=4,
                              until=30_000)
    assert result.live
    assert result.fallbacks >= 1


def test_diembft_async_cell_reports_not_live():
    result = run_async_attack("diembft", n=4, seed=1, target_commits=4, until=1_500)
    assert not result.live
    assert result.messages_per_decision is None
