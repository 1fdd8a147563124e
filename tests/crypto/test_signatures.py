"""Unit tests for the simulated signature scheme and PKI registry."""

import pytest

from repro.crypto.keys import DealerOutput, KeyPair, Registry
from repro.crypto.signatures import (
    Signature,
    SignatureError,
    Signer,
    require_valid,
    verify,
)
from repro.types.blocks import genesis_block
from repro.types.messages import Proposal
from repro.wire.codec import MESSAGE_OVERHEAD, SIGNATURE_WIRE_SIZE, encode_message


@pytest.fixture
def registry():
    return Registry(n=4)


def make_signer(registry, replica):
    return Signer(registry.key_pair(replica), registry)


def test_sign_verify_roundtrip(registry):
    signer = make_signer(registry, 0)
    sig = signer.sign(("hello", 1))
    assert verify(registry, sig, ("hello", 1))


def test_wrong_payload_fails(registry):
    signer = make_signer(registry, 0)
    sig = signer.sign("payload")
    assert not verify(registry, sig, "other payload")


def test_unregistered_signer_fails(registry):
    sig = Signature(signer=99, epoch=0, tag="deadbeef")
    assert not verify(registry, sig, "anything")


def test_wrong_epoch_fails():
    old = Registry(n=4, epoch=0)
    new = Registry(n=4, epoch=1)
    sig = Signer(old.key_pair(1), old).sign("m")
    assert not verify(new, sig, "m")


def test_forged_tag_fails(registry):
    signer = make_signer(registry, 2)
    good = signer.sign("m")
    forged = Signature(signer=2, epoch=0, tag=good.tag[:-1] + ("0" if good.tag[-1] != "0" else "1"))
    assert not verify(registry, forged, "m")


def test_require_valid_raises(registry):
    signer = make_signer(registry, 0)
    sig = signer.sign("m")
    require_valid(registry, sig, "m")  # no raise
    with pytest.raises(SignatureError):
        require_valid(registry, sig, "tampered")


def test_signature_wire_size():
    # Author signatures travel in a 64-byte (Ed25519) slot after the envelope.
    data = encode_message(0, Proposal(genesis_block()))
    assert SIGNATURE_WIRE_SIZE == 64
    assert data[MESSAGE_OVERHEAD:MESSAGE_OVERHEAD + SIGNATURE_WIRE_SIZE] == bytes(64)


def test_registry_membership(registry):
    assert 0 in registry
    assert 3 in registry
    assert 4 not in registry
    with pytest.raises(KeyError):
        registry.key_pair(17)


def test_dealer_output_hands_all_keys():
    dealt = DealerOutput.deal(n=7)
    assert sorted(dealt.key_pairs) == list(range(7))
    for replica, key in dealt.key_pairs.items():
        assert key.owner == replica
        assert dealt.registry.public_key(replica) == key.public


def test_keypair_public_matches():
    key = KeyPair(owner=5, epoch=2)
    assert key.public.owner == 5
    assert key.public.epoch == 2
