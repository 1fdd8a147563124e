"""Parity between modeled ``wire_size()`` and real codec byte counts.

The simulator bills the modeled estimate; live mode bills the encoded
bytes.  Cost analyses only transfer between the two modes if the estimates
track reality, so every message type must stay within the documented
tolerance: ``max(16 bytes, 10%)`` of the modeled size.
"""

from repro.net.network import Network, _wire_size
from repro.sim.scheduler import Scheduler
from repro.wire.codec import encoded_size


def _tolerance(modeled: int) -> float:
    return max(16.0, 0.10 * modeled)


def test_encoded_size_tracks_modeled_wire_size(samples):
    # Every type in the table has a modeled size: the network bills it.
    for message in samples["messages"]:
        modeled = message.wire_size()
        actual = encoded_size(message)
        assert abs(actual - modeled) <= _tolerance(modeled), (
            f"{type(message).__name__}: modeled {modeled} vs encoded {actual}"
        )


def test_all_core_message_shapes_have_modeled_sizes(samples):
    # Guard against the parity test silently skipping everything.
    modeled = [m for m in samples["messages"] if callable(getattr(m, "wire_size", None))]
    assert len(modeled) >= 15


# ----------------------------------------------------------------------
# Network billing: modeled size, else the 64-byte default
# ----------------------------------------------------------------------
def test_network_falls_back_to_default_for_unknown_types():
    net = Network(Scheduler(seed=1))

    class Opaque:
        pass

    assert _wire_size(Opaque(), net) == 64
    assert net.untyped_messages == 1
    assert _wire_size(Opaque()) == 64
    assert net.untyped_messages == 1


def test_network_prefers_modeled_size(samples):
    net = Network(Scheduler(seed=1))
    vote = samples["messages"][2]
    assert _wire_size(vote, net) == vote.wire_size()
    assert net.untyped_messages == 0
