"""An idle durable leader woken by its pool proposes in that very step.

A submission reaches the pool outside any replica handler, so the wake
must enter the replica through a step that :class:`DurableReplica` wraps
(journal, then flush).  Were the leader to propose straight from the pool
listener, the proposal would sit in its send buffer, unjournaled, until
some later message arrived.
"""

from repro.core.replica import PACE_TIMER
from repro.net.conditions import SynchronousDelay
from repro.runtime.cluster import ClusterBuilder
from repro.storage import DurableReplica
from repro.types.messages import Proposal
from repro.types.transactions import make_transaction


def idle_durable_cluster():
    builder = (
        ClusterBuilder(n=4, seed=5)
        .with_delay_model(SynchronousDelay(delta=1.0))
        .with_preload(0)
    )
    for replica_id in range(4):
        builder.with_honest_factory(replica_id, DurableReplica)
    return builder.build()


def test_woken_durable_leader_journals_and_sends_its_proposal_in_one_step():
    cluster = idle_durable_cluster()
    replicas = cluster.replicas
    cluster.run(until=20.0)  # past the first rounds, into idle pacing
    cluster.scheduler.run(
        stop_when=lambda: any(r.timer_active(PACE_TIMER) for r in replicas),
        check_every=1,
    )
    leader = next(r for r in replicas if r.timer_active(PACE_TIMER))
    key = (leader.v_cur, leader.r_cur)
    assert key not in leader.journal.read().proposed

    on_wire = []
    cluster.network.add_send_hook(
        lambda sender, receiver, message, time, delay: on_wire.append(message)
        if sender == leader.process_id and isinstance(message, Proposal)
        else None
    )
    delivered = []
    deliver = leader.deliver

    def counting_deliver(sender, message):
        delivered.append(message)
        deliver(sender, message)

    leader.deliver = counting_deliver
    offered_at = cluster.scheduler.now
    transaction = make_transaction(0, client=1, submitted_at=offered_at)
    cluster.submit(transaction)

    cluster.scheduler.run(
        stop_when=lambda: key in leader.journal.read().proposed, check_every=1
    )
    assert cluster.scheduler.now == offered_at
    assert delivered == []
    assert len(leader.network) == 0  # nothing left in the send buffer
    assert [m.block.round for m in on_wire] == [key[1]] * len(on_wire)
    assert on_wire and all(transaction in m.block.batch for m in on_wire)
