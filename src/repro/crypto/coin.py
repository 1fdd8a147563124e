"""Common coin for fallback leader election (Loss–Moran style, idealized).

The dealer seeds the coin with a secret.  For each view, every replica can
produce one :class:`CoinShare`; any f+1 distinct valid shares reveal the
coin value ``PRF(secret, view)``, from which the elected leader is
``value mod n``.  Until f+1 shares exist nothing in the system (including the
network adversary, which only observes messages) can compute the value, so
the adversary predicts the election with probability at most 1/n — the
property used in Lemma 7.

The revealed value combined from shares forms the paper's *coin-QC*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.crypto.hashing import Digest, hash_fields
from repro.crypto.keys import KeyPair, Registry
from repro.crypto.signatures import SignatureError

_COIN_SHARE_DOMAIN = "repro/coinshare/v1"
_COIN_VALUE_DOMAIN = "repro/coinvalue/v1"


@dataclass(frozen=True)
class CoinShare:
    """One replica's leader-election share for a view."""

    signer: int
    view: int
    epoch: int
    tag: Digest


class CommonCoin:
    """Per-cluster common coin dealt at setup.

    Args:
        registry: PKI registry (defines n).
        threshold: shares needed to reveal (f+1).
        seed: the dealer's secret; runs with the same seed elect the same
            leaders, which keeps experiments reproducible.
    """

    def __init__(self, registry: Registry, threshold: int, seed: int = 0) -> None:
        if not 1 <= threshold <= registry.n:
            raise ValueError(f"threshold {threshold} out of range for n={registry.n}")
        self.registry = registry
        self.threshold = threshold
        self._seed = seed

    @property
    def n(self) -> int:
        return self.registry.n

    # ------------------------------------------------------------------
    # Shares
    # ------------------------------------------------------------------
    def share(self, key_pair: KeyPair, view: int) -> CoinShare:
        """Produce the caller's coin share for ``view``."""
        if key_pair.epoch != self.registry.epoch:
            raise SignatureError("key epoch does not match the registry")
        return CoinShare(
            signer=key_pair.owner,
            view=view,
            epoch=key_pair.epoch,
            tag=hash_fields(_COIN_SHARE_DOMAIN, key_pair.owner, key_pair.epoch, view),
        )

    def verify_share(self, share: CoinShare) -> bool:
        if not self.registry.is_registered(share.signer):
            return False
        if share.epoch != self.registry.epoch:
            return False
        expected = hash_fields(
            _COIN_SHARE_DOMAIN, share.signer, share.epoch, share.view
        )
        return share.tag == expected

    # ------------------------------------------------------------------
    # Reveal
    # ------------------------------------------------------------------
    def reveal(
        self,
        shares: Iterable[CoinShare],
        view: int,
        share_verifier: Optional[Callable[[CoinShare], bool]] = None,
    ) -> int:
        """Combine f+1 distinct valid shares for ``view`` into the leader id.

        ``share_verifier`` replaces the per-share :meth:`verify_share` call
        (pooled verification; see :mod:`repro.crypto.verdicts`).

        Raises :class:`SignatureError` if the shares are insufficient.
        """
        if share_verifier is None:
            share_verifier = self.verify_share
        signers: set[int] = set()
        for share in shares:
            if share.view != view:
                raise SignatureError(
                    f"coin share for view {share.view} used for view {view}"
                )
            if not share_verifier(share):
                raise SignatureError(f"invalid coin share by {share.signer}")
            signers.add(share.signer)
        if len(signers) < self.threshold:
            raise SignatureError(
                f"need {self.threshold} distinct coin shares, got {len(signers)}"
            )
        return self._value(view)

    def leader_proof_tag(self, view: int) -> Digest:
        """Unforgeable evidence that the view's coin was revealed.

        Carried inside a coin-QC; verifiable against the revealed leader.
        """
        return hash_fields(_COIN_VALUE_DOMAIN, self._seed, self.registry.epoch, view)

    def verify_leader(self, view: int, leader: int, proof_tag: Digest) -> bool:
        return proof_tag == self.leader_proof_tag(view) and leader == self._value(view)

    def _value(self, view: int) -> int:
        digest = hash_fields(_COIN_VALUE_DOMAIN, self._seed, self.registry.epoch, view)
        return int(digest, 16) % self.n
