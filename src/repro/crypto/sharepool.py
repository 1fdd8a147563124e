"""Cluster-wide pool of threshold/coin share verification verdicts.

The hot path at large n is share verification: a timeout or coin share
multicast to n replicas is verified n times on arrival, and every
``combine()`` re-verifies the 2f+1 shares it aggregates — so one share can
cost O(n) hash computations cluster-wide, and a quorum's worth costs
O(n^2) per view.  Like certificate verification (see
:mod:`repro.crypto.certcache`), a share verdict is a pure function of the
share's content, the payload it is checked against and the key epoch, so a
verdict computed once by any replica holds for the whole cluster.

The pool is keyed on ``(registry epoch, kind, signer, share epoch, tag,
payload key)``:

- *registry epoch* first, so :meth:`on_epoch_change` can drop stale
  verdicts when the PKI rotates (the :class:`~repro.crypto.keys.Registry`
  calls it through its epoch listeners, exactly like the cert cache);
- the remaining fields cover every input ``verify_share`` reads — a forged
  share carrying a copied tag but a different signer, epoch or payload
  keys differently and cannot inherit a genuine verdict.

A pooled verdict is the verifier's verdict:
``tests/core/test_quorum_properties.py`` checks pooled verification against
``ThresholdScheme.verify_share`` and ``CommonCoin.verify_share`` over
arbitrary share corpora.
"""

from __future__ import annotations

from typing import Callable, Hashable

#: A fully-materialized pool key.  ``[0]`` must be the registry epoch the
#: verdict was computed under; the rest identifies the verification inputs.
PoolKey = tuple[Hashable, ...]


class VerifiedSharePool:
    """Shared share-verification verdict pool with hit/miss counters."""

    def __init__(self, max_entries: int = 1 << 20) -> None:
        self.max_entries = max_entries
        self._verdicts: dict[PoolKey, bool] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._verdicts)

    def check(self, key: PoolKey, verifier: Callable[[], bool]) -> bool:
        """Return the pooled verdict for ``key`` or compute and record it.

        ``verifier`` runs at most once per key.  ``key[0]`` must be the
        current registry epoch (see :meth:`on_epoch_change`).
        """
        verdict = self._verdicts.get(key)
        if verdict is None:
            self.misses += 1
            verdict = verifier()
            if len(self._verdicts) >= self.max_entries:
                self._verdicts.clear()
            self._verdicts[key] = verdict
        else:
            self.hits += 1
        return verdict

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def on_epoch_change(self, new_epoch: int) -> None:
        """Registry epoch listener: drop verdicts from older epochs."""
        stale = [key for key in self._verdicts if key[0] != new_epoch]
        for key in stale:
            del self._verdicts[key]
        self.invalidations += len(stale)

    def clear(self) -> None:
        """Drop every verdict (counters are kept)."""
        self.invalidations += len(self._verdicts)
        self._verdicts.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._verdicts),
            "invalidations": self.invalidations,
        }

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
