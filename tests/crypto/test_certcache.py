"""Unit tests for the cluster-wide verification-verdict cache."""

from repro.core.config import ProtocolConfig
from repro.core.context import SharedSetup
from repro.core.validation import verify_qc
from repro.crypto.verdicts import VerdictCache
from repro.types.certificates import QC


def _make_qc(setup: SharedSetup, block_id: str = "b1", round: int = 1, view: int = 0) -> QC:
    payload = ("vote", block_id, round, view)
    contexts = [setup.context_for(i) for i in range(setup.config.n)]
    shares = [ctx.share(payload) for ctx in contexts[: setup.config.quorum_size]]
    signature = contexts[0].combine(shares, payload)
    return QC(block_id=block_id, round=round, view=view, signature=signature)


def test_verifier_runs_once_per_digest():
    cache = VerdictCache()
    calls = []

    def verifier():
        calls.append(1)
        return True

    assert cache.check("digest-a", 0, verifier) is True
    assert cache.check("digest-a", 0, verifier) is True
    assert cache.check("digest-a", 0, verifier) is True
    assert len(calls) == 1
    assert cache.hits == 2
    assert cache.misses == 1


def test_negative_verdicts_are_cached_too():
    cache = VerdictCache()
    calls = []

    def verifier():
        calls.append(1)
        return False

    assert cache.check("forged", 0, verifier) is False
    assert cache.check("forged", 0, verifier) is False
    assert len(calls) == 1


def test_disabled_cache_is_pass_through():
    cache = VerdictCache(enabled=False)
    calls = []
    for _ in range(3):
        cache.check("digest-a", 0, lambda: calls.append(1) or True)
    assert len(calls) == 3
    assert cache.hits == 0
    assert cache.misses == 0
    assert len(cache) == 0


def test_epoch_keys_are_distinct():
    cache = VerdictCache()
    cache.check("d", 0, lambda: True)
    calls = []
    cache.check("d", 1, lambda: calls.append(1) or True)
    assert len(calls) == 1  # epoch 1 is a different key


def test_on_epoch_change_drops_stale_verdicts():
    cache = VerdictCache()
    cache.check("old-1", 0, lambda: True)
    cache.check("old-2", 0, lambda: True)
    cache.check("new", 1, lambda: True)
    cache.on_epoch_change(1)
    assert len(cache) == 1
    assert cache.invalidations == 2
    # The surviving epoch-1 verdict is still served without re-verifying.
    calls = []
    cache.check("new", 1, lambda: calls.append(1) or True)
    assert calls == []


def _fill(cache: VerdictCache, keys: str, epoch: int = 0) -> None:
    for key in keys:
        cache.check(key, epoch, lambda: True)


def _is_cached(cache: VerdictCache, key: str, epoch: int = 0) -> bool:
    misses = cache.misses
    cache.check(key, epoch, lambda: True)
    return cache.misses == misses


def test_bounded_cache_ages_out_by_generation():
    """A verdict survives one generation swap and is gone after two, even
    when it was hit in between."""
    cache = VerdictCache(max_entries=2)
    _fill(cache, "abc")  # young {a, b} is full: it becomes old, c starts young
    assert len(cache) == 3
    assert _is_cached(cache, "a")
    _fill(cache, "de")  # second swap: {a, b} is dropped
    assert len(cache) == 3
    assert not _is_cached(cache, "a")


def test_entries_never_exceed_two_generations():
    cache = VerdictCache(max_entries=8)
    for index in range(100):
        cache.check(index, 0, lambda: True)
        cache.check(index // 3, 0, lambda: True)
        assert len(cache) <= 16
    assert cache.counters()["entries"] == len(cache)


def test_epoch_change_invalidates_both_generations():
    cache = VerdictCache(max_entries=2)
    _fill(cache, "abc")  # old {a, b}, young {c}
    cache.check("new", 1, lambda: True)  # young {c, new}
    cache.on_epoch_change(1)
    assert len(cache) == 1
    assert cache.invalidations == 3
    assert _is_cached(cache, "new", epoch=1)
    assert not _is_cached(cache, "a")


def test_clear_drops_both_generations():
    cache = VerdictCache(max_entries=2)
    _fill(cache, "abc")
    cache.clear()
    assert len(cache) == 0
    assert cache.invalidations == 3


def test_registry_epoch_change_invalidates_through_listener():
    """SharedSetup wires the cache to the registry's epoch listeners, so
    advancing the registry epoch invalidates cached verdicts."""
    setup = SharedSetup.deal(ProtocolConfig(n=4))
    cache = setup.cert_cache
    context = setup.context_for(0)
    qc = _make_qc(setup)

    assert verify_qc(context, qc) is True
    assert cache.misses == 1
    assert verify_qc(context, qc) is True
    assert cache.hits == 1

    old_entries = len(cache)
    assert old_entries == 1
    setup.registry.advance_epoch()
    assert len(cache) == 0
    assert cache.invalidations == old_entries

    # Re-verification under the new epoch re-runs the verifier: the old
    # signature's epoch no longer matches the rotated keys, so the cert is
    # now rejected — and that rejection is itself a fresh cache entry.
    assert verify_qc(context, qc) is False
    assert cache.misses == 2


def test_deal_can_disable_cert_cache():
    setup = SharedSetup.deal(ProtocolConfig(n=4), cert_cache_enabled=False)
    assert setup.cert_cache is not None
    assert not setup.cert_cache.enabled
    context = setup.context_for(0)
    qc = _make_qc(setup)
    assert verify_qc(context, qc) is True
    assert verify_qc(context, qc) is True
    assert setup.cert_cache.hits == 0
    assert setup.cert_cache.misses == 0
