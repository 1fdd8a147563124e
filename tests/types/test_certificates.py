"""Tests for ranks and certificates — the paper's ordering rules."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.keys import Registry
from repro.crypto.threshold import ThresholdScheme
from repro.types.blocks import genesis_block
from repro.types.messages import CoinQCMessage, FallbackQCMessage, PacemakerTCMessage
from repro.wire.codec import MESSAGE_OVERHEAD, encoded_size
from repro.types.certificates import (
    CoinQC,
    EndorsedFallbackQC,
    FallbackQC,
    FallbackTC,
    QC,
    Rank,
    TimeoutCertificate,
    cert_kind,
    genesis_qc,
    is_genesis_qc,
    max_cert,
)


def make_qc(round_=1, view=0, block_id="b1"):
    registry = Registry(n=4)
    scheme = ThresholdScheme(registry, threshold=3)
    payload = ("vote", block_id, round_, view)
    shares = [scheme.sign_share(registry.key_pair(i), payload) for i in range(3)]
    return QC(block_id=block_id, round=round_, view=view, signature=scheme.combine(shares, payload))


def make_fqc(round_=2, view=1, height=1, proposer=0, block_id="f1"):
    registry = Registry(n=4)
    scheme = ThresholdScheme(registry, threshold=3)
    payload = ("fvote", block_id, round_, view, height, proposer)
    shares = [scheme.sign_share(registry.key_pair(i), payload) for i in range(3)]
    return FallbackQC(
        block_id=block_id,
        round=round_,
        view=view,
        height=height,
        proposer=proposer,
        signature=scheme.combine(shares, payload),
    )


# ----------------------------------------------------------------------
# Rank ordering
# ----------------------------------------------------------------------
def test_rank_orders_by_view_first():
    assert Rank(1, False, 0) > Rank(0, False, 100)


def test_endorsed_outranks_certified_same_view():
    # The paper: an endorsed f-QC ranks higher than any QC of the same view.
    assert Rank(2, True, 1) > Rank(2, False, 999)


def test_rank_orders_by_round_last():
    assert Rank(1, False, 5) > Rank(1, False, 4)
    assert Rank(1, True, 5) > Rank(1, True, 4)


def test_rank_equality_and_hash():
    assert Rank(1, True, 2) == Rank(1, True, 2)
    assert hash(Rank(1, True, 2)) == hash(Rank(1, True, 2))
    assert Rank(1, True, 2) != Rank(1, False, 2)


def test_rank_zero():
    assert Rank.zero() == Rank(0, False, 0)
    assert Rank.zero() <= Rank(0, False, 0)


@given(
    st.tuples(st.integers(0, 5), st.booleans(), st.integers(0, 20)),
    st.tuples(st.integers(0, 5), st.booleans(), st.integers(0, 20)),
    st.tuples(st.integers(0, 5), st.booleans(), st.integers(0, 20)),
)
def test_property_rank_total_order(a, b, c):
    ra, rb, rc = Rank(*a), Rank(*b), Rank(*c)
    # Totality.
    assert (ra < rb) or (rb < ra) or (ra == rb)
    # Transitivity.
    if ra <= rb and rb <= rc:
        assert ra <= rc
    # Antisymmetry.
    if ra <= rb and rb <= ra:
        assert ra == rb


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------
def test_qc_rank_and_payload():
    qc = make_qc(round_=3, view=1)
    assert qc.rank == Rank(1, False, 3)
    assert qc.payload() == ("vote", "b1", 3, 1)


def test_fqc_rank_is_unendorsed():
    fqc = make_fqc(round_=4, view=2)
    assert fqc.rank == Rank(2, False, 4)


def test_endorsement_requires_matching_leader_and_view():
    fqc = make_fqc(round_=4, view=2, proposer=1)
    coin = CoinQC(view=2, leader=1, proof_tag="t")
    endorsed = EndorsedFallbackQC(fqc=fqc, coin_qc=coin)
    assert endorsed.rank == Rank(2, True, 4)
    assert endorsed.block_id == fqc.block_id

    with pytest.raises(ValueError):
        EndorsedFallbackQC(fqc=fqc, coin_qc=CoinQC(view=2, leader=3, proof_tag="t"))
    with pytest.raises(ValueError):
        EndorsedFallbackQC(fqc=fqc, coin_qc=CoinQC(view=3, leader=1, proof_tag="t"))


def test_endorsed_outranks_regular_qc_same_view():
    qc = make_qc(round_=100, view=2)
    fqc = make_fqc(round_=4, view=2, proposer=1)
    endorsed = EndorsedFallbackQC(fqc=fqc, coin_qc=CoinQC(view=2, leader=1, proof_tag="t"))
    assert endorsed.rank > qc.rank
    assert max_cert(qc, endorsed) is endorsed
    assert max_cert(endorsed, qc) is endorsed


def test_max_cert_prefers_first_on_tie():
    qc_a = make_qc(round_=3, view=1)
    qc_b = make_qc(round_=3, view=1)
    assert max_cert(qc_a, qc_b) is qc_a


def test_genesis_qc_recognized():
    genesis = genesis_block()
    qc = genesis_qc(genesis.id)
    assert is_genesis_qc(qc)
    assert qc.rank == Rank.zero()
    assert not is_genesis_qc(make_qc())


def test_cert_kind_labels():
    genesis = genesis_block()
    assert cert_kind(genesis_qc(genesis.id)) == "genesis-qc"
    assert cert_kind(make_qc()) == "qc"
    fqc = make_fqc(proposer=1)
    endorsed = EndorsedFallbackQC(fqc=fqc, coin_qc=CoinQC(view=1, leader=1, proof_tag="t"))
    assert cert_kind(endorsed) == "endorsed-fqc"
    assert cert_kind(None) == "none"


def test_timeout_certificates_payloads():
    registry = Registry(n=4)
    scheme = ThresholdScheme(registry, threshold=3)
    payload = ("timeout", 7)
    shares = [scheme.sign_share(registry.key_pair(i), payload) for i in range(3)]
    tc = TimeoutCertificate(round=7, signature=scheme.combine(shares, payload))
    assert tc.payload() == ("timeout", 7)

    fpayload = ("ftimeout", 2)
    fshares = [scheme.sign_share(registry.key_pair(i), fpayload) for i in range(3)]
    ftc = FallbackTC(view=2, signature=scheme.combine(fshares, fpayload))
    assert ftc.payload() == ("ftimeout", 2)


def test_wire_sizes_constant():
    # Each certificate ships as a tag byte and fixed slots: a 48-byte
    # header (64 for an f-QC's height and proposer) and a 96-byte threshold
    # signature, or a 96-byte coin-QC.
    qc, fqc = make_qc(), make_fqc()
    tc = TimeoutCertificate(round=1, signature=qc.signature)
    pair = PacemakerTCMessage(tc=tc, qc_high=qc)
    assert encoded_size(pair) == MESSAGE_OVERHEAD + 2 * (1 + 48 + 96)
    announce = FallbackQCMessage(fqc=fqc)
    assert encoded_size(announce) == MESSAGE_OVERHEAD + 64 + 1 + 48 + 16 + 96
    coin = CoinQC(view=1, leader=0, proof_tag="t")
    assert encoded_size(CoinQCMessage(coin_qc=coin)) == MESSAGE_OVERHEAD + 1 + 96
