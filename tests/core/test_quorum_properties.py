"""Property tests: incremental quorum trackers vs a naive re-scan oracle,
and pooled share verification vs direct verification.

The refactor in :mod:`repro.core.quorum` replaced ``dict[signer, share]``
buckets (re-scanned with ``len()`` on every arrival) with dense trackers.
These tests drive arbitrary interleavings — duplicates, equivocating
double-sends, out-of-range signers — against the old-style oracle and
require identical observable behaviour at every step, including the exact
step at which the quorum threshold first trips.

The share-pool tests require that pooled verification (one real check per
(signer, payload) cluster-wide) accepts and rejects *exactly* the shares
the underlying scheme's ``verify_share`` does, in any query order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProtocolConfig
from repro.core.context import SharedSetup
from repro.core.quorum import FallbackViewState, ShareQuorumTracker, SignerSet
from repro.crypto.coin import CoinShare
from repro.crypto.threshold import ThresholdSignatureShare, _share_tag

N = 7
THRESHOLD = 5

# (signer, share-id) arrivals: signers straddle the valid range, share ids
# repeat so one signer can "send" both duplicates and equivocations.
arrivals = st.lists(
    st.tuples(st.integers(min_value=-2, max_value=N + 2), st.integers(0, 5)),
    max_size=60,
)


class _DictOracle:
    """The old per-engine bucket: dict keyed by signer, keep-first."""

    def __init__(self, n: int, threshold: int) -> None:
        self.n = n
        self.threshold = threshold
        self.bucket: dict[int, int] = {}

    def add(self, signer: int, share: int) -> bool:
        if not 0 <= signer < self.n or signer in self.bucket:
            return False
        self.bucket[signer] = share
        return True

    @property
    def reached(self) -> bool:
        return len(self.bucket) >= self.threshold


@given(arrivals)
def test_tracker_matches_dict_oracle(ops):
    tracker: ShareQuorumTracker[int] = ShareQuorumTracker(N, THRESHOLD)
    oracle = _DictOracle(N, THRESHOLD)
    for signer, share in ops:
        assert tracker.add(signer, share) == oracle.add(signer, share)
        # Every observable agrees after every step, so the threshold trips
        # at exactly the same arrival in both implementations.
        assert len(tracker) == len(oracle.bucket)
        assert tracker.reached == oracle.reached
        assert (signer in tracker) == (signer in oracle.bucket)
    assert tracker.signers() == sorted(oracle.bucket)
    assert tracker.shares() == [oracle.bucket[s] for s in sorted(oracle.bucket)]


@given(arrivals, st.sets(st.integers(0, 5)))
def test_tracker_evict_matches_filtered_oracle(ops, invalid_ids):
    """evict_invalid leaves exactly what re-filtering the dict would."""
    tracker: ShareQuorumTracker[int] = ShareQuorumTracker(N, THRESHOLD)
    oracle = _DictOracle(N, THRESHOLD)
    for signer, share in ops:
        tracker.add(signer, share)
        oracle.add(signer, share)
    evicted = tracker.evict_invalid(lambda share: share not in invalid_ids)
    survivors = {
        signer: share
        for signer, share in oracle.bucket.items()
        if share not in invalid_ids
    }
    assert evicted == len(oracle.bucket) - len(survivors)
    assert len(tracker) == len(survivors)
    assert tracker.signers() == sorted(survivors)
    assert tracker.reached == (len(survivors) >= THRESHOLD)


@given(st.lists(st.integers(min_value=-2, max_value=300), max_size=60))
def test_signer_set_matches_set_oracle(ops):
    signer_set = SignerSet()
    oracle: set[int] = set()
    for signer in ops:
        expected_new = signer >= 0 and signer not in oracle
        assert signer_set.add(signer) == expected_new
        if signer >= 0:
            oracle.add(signer)
        assert len(signer_set) == len(oracle)
        assert (signer in signer_set) == (signer in oracle)
    assert signer_set.members() == sorted(oracle)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-1, max_value=N),  # proposer (incl. bad)
            st.integers(min_value=-1, max_value=5),  # height (incl. bad)
            st.integers(0, 3),  # fqc id
        ),
        max_size=40,
    )
)
def test_fqc_storage_matches_dict_oracle(ops):
    """Dense + overflow f-QC storage equals the old (proposer, height) dict,
    including Byzantine keys outside the dense range."""
    state = FallbackViewState(n=N, quorum=THRESHOLD, coin_threshold=3, top_height=3)
    oracle: dict[tuple[int, int], int] = {}
    for proposer, height, fqc in ops:
        key = (proposer, height)
        inserted = key not in oracle
        assert state.fqc_set(proposer, height, fqc) == inserted
        oracle.setdefault(key, fqc)
        assert state.fqc_get(proposer, height) == oracle[key]
    assert dict(state.fqc_items()) == oracle
    assert state.fqc_count() == len(oracle)


# ----------------------------------------------------------------------
# Pooled verification == direct verification
# ----------------------------------------------------------------------
_CONFIG = ProtocolConfig(n=4)
_PAYLOADS = [("timeout", r) for r in range(3)] + [("vote", "b", 1, v) for v in range(2)]


def _share_corpus():
    """Valid, cross-payload and forged-signer shares for one dealt setup."""
    setup = SharedSetup.deal(_CONFIG, coin_seed=9)
    shares = []
    for signer in range(_CONFIG.n):
        context = setup.context_for(signer)
        for payload in _PAYLOADS:
            shares.append(context.share(payload))
    # Forgeries: a share claiming signer j but carrying signer i's tag.
    forged = ThresholdSignatureShare(
        signer=1, epoch=shares[0].epoch, tag=_share_tag(0, shares[0].epoch, _PAYLOADS[0])
    )
    unknown = ThresholdSignatureShare(
        signer=_CONFIG.n + 3,
        epoch=shares[0].epoch,
        tag=_share_tag(_CONFIG.n + 3, shares[0].epoch, _PAYLOADS[0]),
    )
    shares.extend([forged, unknown])
    return setup, shares


@given(
    st.lists(
        st.tuples(st.integers(0, 4 * len(_PAYLOADS) + 1), st.integers(0, len(_PAYLOADS) - 1)),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=50)
def test_pooled_share_verification_matches_direct(queries):
    """ctx.verify_share (pooled) agrees with scheme.verify_share (direct)
    on every (share, payload) query, in any order with any repetition."""
    setup, shares = _share_corpus()
    context = setup.context_for(0)
    for share_index, payload_index in queries:
        share = shares[share_index]
        payload = _PAYLOADS[payload_index]
        assert context.verify_share(share, payload) == setup.quorum_scheme.verify_share(
            share, payload
        )
    pool = setup.share_pool
    assert pool is not None
    counters = pool.counters()
    # Repeat queries must be pool hits, never silent re-verification.
    assert counters["hits"] + counters["misses"] == len(queries)


@given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=40))
@settings(max_examples=50)
def test_pooled_coin_verification_matches_direct(queries):
    setup = SharedSetup.deal(_CONFIG, coin_seed=11)
    context = setup.context_for(1)
    corpus = []
    for view in range(3):
        good = context.coin_share(view)
        # Tampered: the tag of view v pasted onto view v+1.
        corpus.append(good)
        corpus.append(
            CoinShare(signer=good.signer, view=view + 1, epoch=good.epoch, tag=good.tag)
        )
    for index, _ in queries:
        share = corpus[index]
        assert context.verify_coin_share(share) == setup.coin.verify_share(share)


def test_deferred_combine_recovers_after_eviction():
    """The combine sites' recovery path: junk shares poison the tracker,
    combine raises, evict_invalid clears them, honest arrivals re-reach
    quorum."""
    from repro.crypto.signatures import SignatureError

    setup, _ = _share_corpus()
    payload = ("timeout", 7)
    tracker: ShareQuorumTracker[ThresholdSignatureShare] = ShareQuorumTracker(4, 3)
    junk = ThresholdSignatureShare(
        signer=2, epoch=0, tag=_share_tag(2, 0, ("timeout", 999))
    )
    tracker.add(2, junk)
    for signer in (0, 1):
        tracker.add(signer, setup.context_for(signer).share(payload))
    assert tracker.reached
    context = setup.context_for(0)
    try:
        context.combine(tracker.shares(), payload)
        raise AssertionError("combine accepted an invalid share")
    except SignatureError:
        evicted = tracker.evict_invalid(
            lambda share: context.verify_share(share, payload)
        )
    assert evicted == 1
    assert not tracker.reached
    tracker.add(3, setup.context_for(3).share(payload))
    assert tracker.reached
    signature = context.combine(tracker.shares(), payload)
    assert context.verify_combined(signature, payload)
