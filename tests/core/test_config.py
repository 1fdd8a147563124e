"""Tests for protocol configuration."""

import pytest

from repro.core.config import ProtocolConfig, ProtocolVariant


def test_defaults():
    config = ProtocolConfig()
    assert config.n == 4
    assert config.f == 1
    assert config.quorum_size == 3
    assert config.coin_threshold == 2
    assert config.variant == ProtocolVariant.FALLBACK_3CHAIN


@pytest.mark.parametrize("n,f", [(4, 1), (7, 2), (10, 3), (31, 10), (100, 33)])
def test_fault_budget(n, f):
    config = ProtocolConfig(n=n)
    assert config.f == f
    assert config.quorum_size == 2 * f + 1
    assert config.n - config.f == config.quorum_size


@pytest.mark.parametrize("n", [0, 1, 3, 5, 6, 9])
def test_invalid_n_rejected(n):
    with pytest.raises(ValueError):
        ProtocolConfig(n=n)


def test_validation_of_other_fields():
    with pytest.raises(ValueError):
        ProtocolConfig(round_timeout=0.0)


def test_variant_derived_parameters():
    three = ProtocolConfig(variant=ProtocolVariant.FALLBACK_3CHAIN)
    assert three.commit_depth == 3
    assert three.fallback_top_height == 3
    assert not three.one_chain_lock
    assert not three.adoption_enabled
    assert three.uses_fallback
    assert three.strict_round_chaining

    two = ProtocolConfig(variant=ProtocolVariant.FALLBACK_2CHAIN)
    assert two.commit_depth == 2
    assert two.fallback_top_height == 2
    assert two.one_chain_lock
    assert two.adoption_enabled  # Section 4 needs adoption for liveness

    baseline = ProtocolConfig(variant=ProtocolVariant.DIEMBFT)
    assert not baseline.uses_fallback
    assert not baseline.strict_round_chaining
    assert baseline.commit_depth == 3

    quadratic = ProtocolConfig(variant=ProtocolVariant.ALWAYS_FALLBACK)
    assert quadratic.uses_fallback


def test_adoption_override():
    config = ProtocolConfig(fallback_adoption=True)
    assert config.adoption_enabled
    config = ProtocolConfig(
        variant=ProtocolVariant.FALLBACK_2CHAIN, fallback_adoption=False
    )
    assert not config.adoption_enabled

