"""Unit and property tests for the threshold signature scheme."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.keys import Registry
from repro.crypto.signatures import SignatureError
from repro.crypto.threshold import ThresholdScheme
from repro.types.certificates import FallbackTC
from repro.types.messages import FallbackTCMessage
from repro.wire.codec import MESSAGE_OVERHEAD, encoded_size


N = 7
QUORUM = 5  # 2f+1 with f=2


@pytest.fixture
def registry():
    return Registry(n=N)


@pytest.fixture
def scheme(registry):
    return ThresholdScheme(registry, threshold=QUORUM)


def shares_for(scheme, registry, payload, signers):
    return [scheme.sign_share(registry.key_pair(i), payload) for i in signers]


def test_combine_with_quorum(scheme, registry):
    payload = ("vote", "blockid", 3, 0)
    shares = shares_for(scheme, registry, payload, range(QUORUM))
    sig = scheme.combine(shares, payload)
    assert scheme.verify(sig, payload)
    assert set(sig.signers) == set(range(QUORUM))


def test_combine_below_threshold_fails(scheme, registry):
    payload = "m"
    shares = shares_for(scheme, registry, payload, range(QUORUM - 1))
    with pytest.raises(SignatureError):
        scheme.combine(shares, payload)


def test_duplicate_shares_do_not_count_twice(scheme, registry):
    payload = "m"
    shares = shares_for(scheme, registry, payload, [0] * QUORUM)
    with pytest.raises(SignatureError):
        scheme.combine(shares, payload)


def test_share_on_wrong_payload_rejected(scheme, registry):
    good = shares_for(scheme, registry, "m", range(QUORUM - 1))
    bad = scheme.sign_share(registry.key_pair(6), "other")
    with pytest.raises(SignatureError):
        scheme.combine(good + [bad], "m")


def test_combined_verifies_only_its_payload(scheme, registry):
    sig = scheme.combine(shares_for(scheme, registry, "m", range(QUORUM)), "m")
    assert not scheme.verify(sig, "other")


def test_share_verification(scheme, registry):
    share = scheme.sign_share(registry.key_pair(3), "m")
    assert scheme.verify_share(share, "m")
    assert not scheme.verify_share(share, "not-m")


def test_threshold_bounds(registry):
    with pytest.raises(ValueError):
        ThresholdScheme(registry, threshold=0)
    with pytest.raises(ValueError):
        ThresholdScheme(registry, threshold=N + 1)


def test_constant_wire_size_regardless_of_signers(scheme, registry):
    # The signer list rides inside the 96-byte slot (up to 27 signers).
    sig5 = scheme.combine(shares_for(scheme, registry, "m", range(5)), "m")
    sig7 = scheme.combine(shares_for(scheme, registry, "m", range(7)), "m")
    sizes = {
        encoded_size(FallbackTCMessage(ftc=FallbackTC(view=1, signature=sig)))
        for sig in (sig5, sig7)
    }
    assert sizes == {MESSAGE_OVERHEAD + 1 + 48 + 96}


def test_require_valid(scheme, registry):
    sig = scheme.combine(shares_for(scheme, registry, "m", range(QUORUM)), "m")
    scheme.require_valid(sig, "m")
    with pytest.raises(SignatureError):
        scheme.require_valid(sig, "other")


@given(signers=st.sets(st.integers(min_value=0, max_value=N - 1)))
def test_property_combine_iff_quorum(signers):
    registry = Registry(n=N)
    scheme = ThresholdScheme(registry, threshold=QUORUM)
    payload = ("p",)
    shares = [scheme.sign_share(registry.key_pair(i), payload) for i in signers]
    if len(signers) >= QUORUM:
        sig = scheme.combine(shares, payload)
        assert scheme.verify(sig, payload)
    else:
        with pytest.raises(SignatureError):
            scheme.combine(shares, payload)


@given(
    quorum_a=st.sets(st.integers(0, N - 1), min_size=QUORUM),
    quorum_b=st.sets(st.integers(0, N - 1), min_size=QUORUM),
)
def test_property_quorum_intersection(quorum_a, quorum_b):
    """Any two quorums of 2f+1 out of 3f+1 intersect in >= f+1 replicas."""
    assert len(quorum_a & quorum_b) >= QUORUM + QUORUM - N
    assert len(quorum_a & quorum_b) >= 3  # f+1 with f=2
