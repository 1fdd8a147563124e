"""Shared cryptographic setup and the per-replica crypto context.

:class:`SharedSetup` is what the paper's trusted dealer produces once per
cluster: the PKI registry, the threshold schemes for votes and timeouts
(threshold 2f+1) and the common coin (threshold f+1).  Each replica then
receives a :class:`CryptoContext` bundling its private key with the shared
verification machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.config import ProtocolConfig
from repro.crypto.coin import CoinShare, CommonCoin
from repro.crypto.keys import KeyPair, Registry
from repro.crypto.threshold import (
    ThresholdScheme,
    ThresholdSignature,
    ThresholdSignatureShare,
)
from repro.crypto.verdicts import VerdictCache
from repro.types.certificates import CoinQC


@dataclass
class SharedSetup:
    """Dealer output shared by the whole cluster."""

    config: ProtocolConfig
    registry: Registry
    quorum_scheme: ThresholdScheme
    coin: CommonCoin
    #: Cluster-wide certificate verdicts (a verification is a pure function
    #: of certificate content + key epoch, so one replica's verdict holds
    #: for all).  ``None`` disables caching entirely.
    cert_cache: Optional[VerdictCache] = None
    #: Cluster-wide share verdicts: each (signer, payload) share is
    #: hash-verified once across all n replicas; re-checks, including the
    #: per-share re-verification inside ``combine()``, are dictionary
    #: lookups.  ``None`` disables pooling entirely.
    share_pool: Optional[VerdictCache] = None

    @classmethod
    def deal(
        cls,
        config: ProtocolConfig,
        coin_seed: int = 0,
        cert_cache_enabled: bool = True,
    ) -> "SharedSetup":
        registry = Registry(config.n)
        cert_cache = VerdictCache(enabled=cert_cache_enabled)
        share_pool = VerdictCache()
        registry.add_epoch_listener(cert_cache.on_epoch_change)
        registry.add_epoch_listener(share_pool.on_epoch_change)
        return cls(
            config=config,
            registry=registry,
            quorum_scheme=ThresholdScheme(registry, threshold=config.quorum_size),
            coin=CommonCoin(registry, threshold=config.coin_threshold, seed=coin_seed),
            cert_cache=cert_cache,
            share_pool=share_pool,
        )

    def context_for(self, replica: int) -> "CryptoContext":
        return CryptoContext(setup=self, key_pair=self.registry.key_pair(replica))


@dataclass
class CryptoContext:
    """One replica's view of the crypto setup (its key + shared schemes)."""

    setup: SharedSetup
    key_pair: KeyPair

    @property
    def replica(self) -> int:
        return self.key_pair.owner

    @property
    def scheme(self) -> ThresholdScheme:
        return self.setup.quorum_scheme

    @property
    def coin(self) -> CommonCoin:
        return self.setup.coin

    @property
    def cert_cache(self) -> Optional[VerdictCache]:
        return self.setup.cert_cache

    @property
    def share_pool(self) -> Optional[VerdictCache]:
        return self.setup.share_pool

    @property
    def registry_epoch(self) -> int:
        return self.setup.registry.epoch

    # ------------------------------------------------------------------
    # Share helpers
    # ------------------------------------------------------------------
    def share(self, payload: object) -> ThresholdSignatureShare:
        return self.scheme.sign_share(self.key_pair, payload)

    def verify_share(self, share: ThresholdSignatureShare, payload: object) -> bool:
        """Pooled share verification: one hash per (signer, payload) pair
        cluster-wide; every re-check is a dictionary lookup."""
        pool = self.setup.share_pool
        if pool is None:
            return self.scheme.verify_share(share, payload)
        try:
            return pool.check(
                ("tshare", share.signer, share.epoch, share.tag, payload),
                self.setup.registry.epoch,
                lambda: self.scheme.verify_share(share, payload),
            )
        except TypeError:  # unhashable payload — verify directly
            return self.scheme.verify_share(share, payload)

    def combine(
        self, shares: Iterable[ThresholdSignatureShare], payload: object
    ) -> ThresholdSignature:
        return self.scheme.combine(shares, payload, share_verifier=self.verify_share)

    def verify_combined(self, signature: ThresholdSignature, payload: object) -> bool:
        return self.scheme.verify(signature, payload)

    # ------------------------------------------------------------------
    # Coin helpers
    # ------------------------------------------------------------------
    def coin_share(self, view: int) -> CoinShare:
        return self.coin.share(self.key_pair, view)

    def verify_coin_share(self, share: CoinShare) -> bool:
        """Pooled coin-share verification (see :meth:`verify_share`)."""
        pool = self.setup.share_pool
        if pool is None:
            return self.coin.verify_share(share)
        return pool.check(
            ("coinshare", share.signer, share.epoch, share.view, share.tag),
            self.setup.registry.epoch,
            lambda: self.coin.verify_share(share),
        )

    def reveal_coin(self, shares: Iterable[CoinShare], view: int) -> CoinQC:
        leader = self.coin.reveal(
            shares, view, share_verifier=self.verify_coin_share
        )
        return CoinQC(view=view, leader=leader, proof_tag=self.coin.leader_proof_tag(view))

    def verify_coin_qc(self, coin_qc: CoinQC) -> bool:
        return self.coin.verify_leader(coin_qc.view, coin_qc.leader, coin_qc.proof_tag)
