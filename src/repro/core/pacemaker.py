"""The original DiemBFT pacemaker (Figure 1) — the quadratic baseline.

Round timeouts are per-round: a timer expiry stops voting for the round and
multicasts a timeout message carrying a threshold share over the round
number and the sender's ``qc_high``; 2f+1 shares form a round-TC, which
advances the round.  Under asynchrony the leader never assembles votes, so
rounds advance forever via TCs and nothing commits — the liveness failure
the paper's fallback removes.

One production detail not spelled out in Figure 1 is implemented here (it
matches DiemBFT/LibraBFT deployments and is required for post-GST liveness):
**timeout joining** — a replica that receives a valid timeout message for a
round at or above its current round echoes its own timeout share for that
round.  Without it, replicas whose rounds drifted apart pre-GST can hold
timeout shares for different rounds and never assemble any TC.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.quorum import ShareQuorumTracker
from repro.core.validation import verify_parent_cert, verify_timeout_cert
from repro.crypto.signatures import SignatureError
from repro.crypto.threshold import ThresholdSignatureShare
from repro.types.certificates import TimeoutCertificate
from repro.types.messages import PacemakerTCMessage, PacemakerTimeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replica import Replica


class PacemakerEngine:
    """Per-replica state and handlers for the baseline pacemaker."""

    def __init__(self, replica: "Replica") -> None:
        self.replica = replica
        self.crypto = replica.crypto
        # Round -> incremental share tracker (O(1) quorum checks).
        self._timeout_shares: dict[
            int, ShareQuorumTracker[ThresholdSignatureShare]
        ] = {}
        self._timeout_sent_rounds: set[int] = set()
        self._tcs: dict[int, TimeoutCertificate] = {}

    # ------------------------------------------------------------------
    # Timer and Timeout
    # ------------------------------------------------------------------
    def on_local_timeout(self) -> None:
        round_number = self.replica.r_cur
        # "Stops voting for round r."
        self.replica.safety.stop_voting_for(round_number)
        self._send_timeout(round_number)

    def _send_timeout(self, round_number: int) -> None:
        if round_number in self._timeout_sent_rounds:
            return
        self._timeout_sent_rounds.add(round_number)
        share = self.crypto.share(("timeout", round_number))
        message = PacemakerTimeout(
            round=round_number, share=share, qc_high=self.replica.qc_high
        )
        self.replica.network.multicast(self.replica.process_id, message)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, sender: int, message: object) -> None:
        if isinstance(message, PacemakerTimeout):
            self.handle_timeout(sender, message)
        elif isinstance(message, PacemakerTCMessage):
            self.handle_tc(sender, message)

    def handle_timeout(self, sender: int, message: PacemakerTimeout) -> None:
        replica = self.replica
        share = message.share
        if share.signer != sender:
            return
        if not self.crypto.verify_share(share, ("timeout", message.round)):
            return
        if not verify_parent_cert(self.crypto, message.qc_high):
            return
        # Lock on the embedded certificate (helps slow replicas catch up).
        replica.process_certificate(message.qc_high)
        if message.round < replica.r_cur - 1:
            return  # too stale to matter for round advancement
        tracker = self._timeout_shares.get(message.round)
        if tracker is None:
            tracker = ShareQuorumTracker(replica.config.n, replica.quorum)
            self._timeout_shares[message.round] = tracker
        tracker.add(sender, share)
        # Timeout joining (see module docstring).
        if message.round >= replica.r_cur:
            self._send_timeout(message.round)
        if tracker.reached and message.round not in self._tcs:
            payload = ("timeout", message.round)
            try:
                signature = self.crypto.combine(tracker.shares(), payload)
            except SignatureError:
                tracker.evict_invalid(
                    lambda s: self.crypto.verify_share(s, payload)
                )
                return
            tc = TimeoutCertificate(round=message.round, signature=signature)
            self._tcs[message.round] = tc
            self._advance_via_tc(tc)

    def handle_tc(self, sender: int, message: PacemakerTCMessage) -> None:
        if not verify_timeout_cert(self.crypto, message.tc):
            return
        if not verify_parent_cert(self.crypto, message.qc_high):
            return
        self.replica.process_certificate(message.qc_high)
        self._tcs.setdefault(message.tc.round, message.tc)
        self._advance_via_tc(message.tc)

    def _advance_via_tc(self, tc: TimeoutCertificate) -> None:
        """Advance Round via a TC: ``r_cur <- max(r_cur, tc.round + 1)``."""
        self.replica.advance_round(tc.round + 1)

    def on_round_entered(self, round_number: int) -> None:
        """"Upon entering round r, the replica sends the round-(r-1) tc to
        L_r" — only meaningful when the entry came from a TC."""
        tc = self._tcs.get(round_number - 1)
        if tc is None:
            return
        leader = self.replica.schedule.leader(round_number)
        if leader == self.replica.process_id:
            return  # we are the leader; nothing to forward
        self.replica.network.send(
            self.replica.process_id,
            leader,
            PacemakerTCMessage(tc=tc, qc_high=self.replica.qc_high),
        )
