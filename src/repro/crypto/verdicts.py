"""Cluster-wide cache of verification verdicts, for certificates and shares.

In the simulation every replica independently re-verifies every certificate
and share it sees, so a message multicast to n replicas costs n identical
verifications, and every ``combine()`` re-verifies the 2f+1 shares it
aggregates: O(n^2) hashes per fallback view.  Real deployments pay that
price because replicas are separate machines; the simulator does not have
to.  A verdict is a pure function of the checked content and the key epoch,
so a verdict computed once by any replica holds for the whole cluster.
:class:`~repro.core.context.SharedSetup` deals two caches, ``cert_cache``
and ``share_pool``.

A verdict is keyed on ``(key, registry epoch)``:

- the *key* covers every input the verifier reads: ``cert.digest`` for a
  certificate (payload plus the signature's epoch, tag and signer set),
  ``(kind, signer, share epoch, tag, payload)`` for a share.  A forgery
  carrying a copied tag but different fields keys differently and cannot
  inherit a genuine verdict;
- the *registry epoch* ties the verdict to the PKI generation it was
  computed under.  On a key rotation :meth:`VerdictCache.on_epoch_change`,
  a :class:`~repro.crypto.keys.Registry` epoch listener, drops stale ones.

Retention is bounded by two generations of at most ``max_entries`` verdicts
each.  A lookup checks the young generation, then the old one.  When the
young generation is full it becomes the old one and the previous old one
is dropped.  A verdict is thus kept for at least ``max_entries`` further
misses, far longer than a certificate or share circulates, and at most
``2 * max_entries`` verdicts are held.

``enabled=False`` makes the cache a pass-through (every lookup calls the
verifier), the bypass mode the determinism tests use to prove cached and
uncached runs event-for-event identical.
"""

from __future__ import annotations

from typing import Callable, Hashable

#: Verdicts per generation.  Fallback-n64 verifies ~12k distinct shares per
#: view and keeps every hit down to 4096; share verdicts grow with n^2.
GENERATION_SIZE = 8192


class VerdictCache:
    """Two-generation verification-verdict cache with hit/miss counters."""

    def __init__(self, enabled: bool = True, max_entries: int = GENERATION_SIZE) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self._young: dict[tuple[Hashable, int], bool] = {}
        self._old: dict[tuple[Hashable, int], bool] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._young) + len(self._old)

    def check(self, key: Hashable, epoch: int, verifier: Callable[[], bool]) -> bool:
        """Return the cached verdict for ``(key, epoch)`` or compute it.

        ``verifier`` runs once per (key, epoch) while the verdict is held;
        with the cache disabled it runs every time and nothing is recorded.
        """
        if not self.enabled:
            return verifier()
        entry = (key, epoch)
        verdict = self._young.get(entry)
        if verdict is None:
            verdict = self._old.get(entry)
        if verdict is None:
            self.misses += 1
            verdict = verifier()
            if len(self._young) >= self.max_entries:
                self._old = self._young
                self._young = {}
            self._young[entry] = verdict
        else:
            self.hits += 1
        return verdict

    def on_epoch_change(self, new_epoch: int) -> None:
        """Registry epoch listener: drop verdicts from older epochs."""
        for generation in (self._young, self._old):
            stale = [entry for entry in generation if entry[1] != new_epoch]
            for entry in stale:
                del generation[entry]
            self.invalidations += len(stale)

    def clear(self) -> None:
        """Drop every verdict (counters are kept)."""
        self.invalidations += len(self)
        self._young.clear()
        self._old.clear()

    def counters(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self),
            "invalidations": self.invalidations,
        }

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
