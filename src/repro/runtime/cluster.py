"""Cluster construction and experiment running.

:class:`ClusterBuilder` assembles an n-replica cluster: dealer setup, the
simulated network with a chosen delay model, per-replica mempools holding a
preloaded backlog, optional Byzantine replicas, and a metrics collector.
:class:`Cluster` drives the run (until a time bound, a commit count, or an
arbitrary predicate) and exposes the pieces for inspection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.config import ProtocolConfig, ProtocolVariant
from repro.core.context import SharedSetup
from repro.core.leader import LeaderSchedule
from repro.core.replica import Replica
from repro.ledger.ledger import StateMachine
from repro.mempool.mempool import Mempool
from repro.net.conditions import DelayModel, SynchronousDelay
from repro.net.loss import LossModel
from repro.net.network import Network
from repro.net.reliable import ChannelConfig, ReliableNetwork
from repro.runtime.metrics import MetricsCollector
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler
from repro.traffic.admission import AdmissionController
from repro.traffic.loadgen import preload
from repro.types.blocks import AnyBlock
from repro.types.transactions import Transaction

#: Factory producing a (possibly Byzantine) replica process.  Receives the
#: same arguments as :class:`Replica`.
ReplicaFactory = Callable[..., Process]


@dataclass
class RunResult:
    """Outcome of one cluster run."""

    cluster: "Cluster"
    stopped_at: float
    #: Events the scheduler processed during this ``run`` call.
    events_processed: int = 0
    #: Host wall-clock seconds this ``run`` call took.
    wall_seconds: float = 0.0

    @property
    def metrics(self) -> MetricsCollector:
        return self.cluster.metrics

    @property
    def events_per_sec(self) -> float:
        """Simulator throughput of this run (0.0 for an instant run)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_processed / self.wall_seconds

    @property
    def decisions(self) -> int:
        return self.cluster.metrics.decisions()

    def committed_chain(self, replica: Optional[int] = None) -> list[AnyBlock]:
        """Committed blocks at a replica (default: first honest)."""
        target = replica if replica is not None else self.cluster.honest_ids[0]
        process = self.cluster.replicas[target]
        if not isinstance(process, Replica):
            raise ValueError(f"replica {target} is not an honest Replica")
        return process.ledger.committed_blocks()


class Cluster:
    """A running (or runnable) cluster of replicas on a simulated network."""

    def __init__(
        self,
        config: ProtocolConfig,
        scheduler: Scheduler,
        network: Network,
        setup: SharedSetup,
        replicas: Sequence[Process],
        mempools: Sequence[Mempool],
        metrics: MetricsCollector,
        preload: int,
        byzantine_ids: Sequence[int],
        clients: Sequence["Client"] = (),
        fault_schedule: Optional["FaultSchedule"] = None,
    ) -> None:
        self.config = config
        self.scheduler = scheduler
        self.network = network
        self.setup = setup
        self.replicas = list(replicas)
        self.mempools = list(mempools)
        self.metrics = metrics
        #: Transactions handed to every mempool when the cluster starts.
        self.preload = preload
        self.clients = list(clients)
        self.byzantine_ids = list(byzantine_ids)
        self.honest_ids = [
            replica_id
            for replica_id in range(config.n)
            if replica_id not in set(byzantine_ids)
        ]
        self.schedule = LeaderSchedule(config.n)
        self.fault_schedule = fault_schedule
        #: (time, description) of every chaos event applied during the run.
        self.fault_log: list[tuple[float, str]] = []
        self._started = False
        # Leader-oracle caches: the targeting adversary queries the oracle
        # once per message, so at n=64+ an uncached oracle is the single
        # hottest call in the simulator.  Both caches are invalidated by the
        # metrics round-entry listener (advance_round is the only writer of
        # r_cur after construction; crash recovery fires on_state_reset).
        self._honest_cache: Optional[list[Replica]] = None
        self._leaders_cache: Optional[set[int]] = None
        metrics.round_entry_listeners.append(self._on_round_entry)
        if fault_schedule is not None:
            fault_schedule.install(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def replica(self, replica_id: int) -> Process:
        return self.replicas[replica_id]

    def honest_replicas(self) -> list[Replica]:
        cached = self._honest_cache
        if cached is None:
            honest_ids = set(self.honest_ids)
            cached = [
                process
                for process in self.replicas
                if isinstance(process, Replica) and process.process_id in honest_ids
            ]
            self._honest_cache = cached
        return cached

    def current_leaders(self) -> set[int]:
        """Leaders of the rounds honest replicas are currently in.

        This is the oracle the leader-targeting adversary uses: an
        omniscient scheduler always knows whom to delay.  The result is
        cached between round entries; callers must not mutate it.
        """
        leaders = self._leaders_cache
        if leaders is None:
            leader = self.schedule.leader
            leaders = {leader(replica.r_cur) for replica in self.honest_replicas()}
            self._leaders_cache = leaders
        return leaders

    def _on_round_entry(self, replica: int, round_number: int, now: float) -> None:
        self._leaders_cache = None

    def submit(self, transaction: Transaction) -> None:
        """Inject one client transaction into every mempool."""
        for mempool in self.mempools:
            mempool.submit(transaction)

    def change_network(self, model: DelayModel) -> None:
        self.network.set_delay_model(model)

    def change_loss(self, model: LossModel) -> None:
        self.network.set_loss_model(model)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        preload(
            AdmissionController(self.mempools).offer, self.preload, self.scheduler.now
        )
        for process in self.replicas:
            process.on_start()
        for client in self.clients:
            client.on_start()

    def total_confirmations(self) -> int:
        """Client-side confirmed commits across all clients."""
        return sum(len(client.confirmations) for client in self.clients)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> RunResult:
        self.start()
        events_before = self.scheduler.events_processed
        wall_start = time.perf_counter()
        stopped_at = self.scheduler.run(
            until=until, max_events=max_events, stop_when=stop_when
        )
        wall_seconds = time.perf_counter() - wall_start
        return RunResult(
            cluster=self,
            stopped_at=stopped_at,
            events_processed=self.scheduler.events_processed - events_before,
            wall_seconds=wall_seconds,
        )

    def run_until_commits(
        self,
        count: int,
        until: float = 100_000.0,
        max_events: int = 20_000_000,
        everywhere: bool = False,
    ) -> RunResult:
        """Run until ``count`` blocks commit (at one honest replica, or at
        every honest replica with ``everywhere=True``)."""

        def reached() -> bool:
            if everywhere:
                return self.metrics.min_honest_height() >= count
            return self.metrics.decisions() >= count

        return self.run(until=until, max_events=max_events, stop_when=reached)


class ClusterBuilder:
    """Fluent builder for clusters.

    Example::

        cluster = (
            ClusterBuilder(n=4, seed=7)
            .with_variant(ProtocolVariant.FALLBACK_3CHAIN)
            .with_delay_model(SynchronousDelay(delta=1.0))
            .build()
        )
    """

    def __init__(
        self,
        n: Optional[int] = None,
        seed: int = 0,
        config: Optional[ProtocolConfig] = None,
    ):
        if config is not None:
            # `None` is the "not passed" sentinel: an explicit n that
            # disagrees with the config is a genuine conflict, never
            # silently resolved in the config's favor.
            if n is not None and n != config.n:
                raise ValueError(
                    f"conflicting cluster sizes: n={n} but config.n={config.n}"
                )
            self._config = config
        else:
            self._config = ProtocolConfig(n=n if n is not None else 4)
        self.seed = seed
        self._delay_model: DelayModel = SynchronousDelay()
        self._delay_model_factory: Optional[Callable[["Cluster"], DelayModel]] = None
        self._loss_model: Optional[LossModel] = None
        self._reliable_channels: Optional[bool] = None
        self._channel_config: Optional[ChannelConfig] = None
        self._fault_schedule: Optional["FaultSchedule"] = None
        self._byzantine: dict[int, ReplicaFactory] = {}
        self._honest_factories: dict[int, ReplicaFactory] = {}
        self._state_machine_factory: Optional[Callable[[], StateMachine]] = None
        self._preload_transactions = 200
        self._client_count = 0
        self._client_kwargs: dict = {}
        self._cert_cache_enabled = True

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def with_config(self, config: ProtocolConfig) -> "ClusterBuilder":
        self._config = config
        return self

    def with_variant(self, variant: ProtocolVariant) -> "ClusterBuilder":
        from dataclasses import replace

        self._config = replace(self._config, variant=variant)
        return self

    def with_delay_model(self, model: DelayModel) -> "ClusterBuilder":
        self._delay_model = model
        self._delay_model_factory = None
        return self

    def with_delay_model_factory(
        self, factory: Callable[["Cluster"], DelayModel]
    ) -> "ClusterBuilder":
        """Delay model that needs the cluster (e.g. the leader oracle)."""
        self._delay_model_factory = factory
        return self

    def with_loss_model(self, model: LossModel, reliable: bool = True) -> "ClusterBuilder":
        """Make the transport lossy.

        By default this also installs the reliable-channel layer so the
        protocol keeps its reliable-link abstraction; pass
        ``reliable=False`` to expose raw loss to the replicas (testing
        protocol-level idempotence / loss tolerance).
        """
        self._loss_model = model
        if self._reliable_channels is None or not reliable:
            self._reliable_channels = reliable
        return self

    def with_reliable_channels(
        self, channel: Optional[ChannelConfig] = None
    ) -> "ClusterBuilder":
        """Force the reliable-channel layer on (even without a loss model),
        optionally with custom retransmission/buffer tuning."""
        self._reliable_channels = True
        if channel is not None:
            self._channel_config = channel
        return self

    def with_fault_schedule(self, schedule: "FaultSchedule") -> "ClusterBuilder":
        """Attach a chaos schedule; loss-injecting schedules imply
        reliable channels (unless explicitly disabled via
        ``with_loss_model(..., reliable=False)``)."""
        self._fault_schedule = schedule
        return self

    def with_honest_factory(
        self, replica_id: int, factory: ReplicaFactory
    ) -> "ClusterBuilder":
        """Use a custom *honest* replica class for one slot (for example
        ``RecoveringReplica.factory()`` for scheduled crash/recover).  The
        replica stays in the honest set for metrics and safety checks."""
        if not 0 <= replica_id < self._config.n:
            raise ValueError(f"replica id {replica_id} out of range")
        if replica_id in self._byzantine:
            raise ValueError(f"replica {replica_id} is already Byzantine")
        self._honest_factories[replica_id] = factory
        return self

    def with_preload(self, count: int) -> "ClusterBuilder":
        """Transactions every mempool holds before the replicas start.

        Any other load attaches a :mod:`repro.traffic.loadgen` generator
        to the built cluster instead (build with ``with_preload(0)``).
        """
        self._preload_transactions = count
        return self

    def with_byzantine(self, replica_id: int, factory: ReplicaFactory) -> "ClusterBuilder":
        if not 0 <= replica_id < self._config.n:
            raise ValueError(f"replica id {replica_id} out of range")
        if replica_id in self._honest_factories:
            raise ValueError(f"replica {replica_id} already has an honest factory")
        if len(self._byzantine) >= self._config.f and replica_id not in self._byzantine:
            raise ValueError(
                f"cannot make more than f={self._config.f} replicas Byzantine"
            )
        self._byzantine[replica_id] = factory
        return self

    def with_state_machine(self, factory: Callable[[], StateMachine]) -> "ClusterBuilder":
        self._state_machine_factory = factory
        return self

    def with_cert_cache(self, enabled: bool) -> "ClusterBuilder":
        """Toggle the cluster-wide verified-certificate cache.

        Disabling it makes every replica re-verify every certificate (the
        pre-cache behavior) — the bypass mode the determinism tests compare
        against."""
        self._cert_cache_enabled = enabled
        return self

    def with_clients(self, count: int, **client_kwargs) -> "ClusterBuilder":
        """Attach closed-loop BFT clients (ids n, n+1, ...).

        Keyword arguments are forwarded to :class:`repro.client.Client`
        (``outstanding``, ``total``, ``retransmit_interval``, ...).
        """
        if count < 0:
            raise ValueError("client count must be non-negative")
        self._client_count = count
        self._client_kwargs = client_kwargs
        return self

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _wants_reliable_channels(self) -> bool:
        if self._reliable_channels is not None:
            return self._reliable_channels
        if self._fault_schedule is not None:
            return self._fault_schedule.needs_reliable_channels
        return False

    def build(self) -> Cluster:
        config = self._config
        scheduler = Scheduler(seed=self.seed)
        if self._wants_reliable_channels():
            network: Network = ReliableNetwork(
                scheduler,
                self._delay_model,
                loss_model=self._loss_model,
                channel=self._channel_config,
            )
        else:
            network = Network(scheduler, self._delay_model, loss_model=self._loss_model)
        setup = SharedSetup.deal(
            config,
            coin_seed=self.seed,
            cert_cache_enabled=self._cert_cache_enabled,
        )
        byzantine_ids = sorted(self._byzantine)
        metrics = MetricsCollector(
            honest_ids=[i for i in range(config.n) if i not in self._byzantine]
        )
        metrics.attach_cert_cache(setup.cert_cache)
        metrics.attach_share_pool(setup.share_pool)
        network.add_send_hook(metrics.on_send)
        if isinstance(network, ReliableNetwork):
            network.add_channel_hook(metrics.on_channel_event)

        mempools = [Mempool(batch_size=config.batch_size) for _ in range(config.n)]
        replicas: list[Process] = []
        for replica_id in range(config.n):
            factory = self._byzantine.get(
                replica_id, self._honest_factories.get(replica_id, Replica)
            )
            state_machine = (
                self._state_machine_factory() if self._state_machine_factory else None
            )
            process = factory(
                replica_id,
                config,
                setup.context_for(replica_id),
                network,
                scheduler,
                mempool=mempools[replica_id],
                state_machine=state_machine,
                observer=metrics,
            )
            replicas.append(process)
            network.register(process)

        clients = []
        if self._client_count:
            from repro.client.client import Client

            client_kwargs = dict(self._client_kwargs)
            # Sane default derived from the cluster's timeout config: one
            # retransmission per ~2 stalled rounds, not a fixed constant.
            client_kwargs.setdefault("retransmit_interval", 2.0 * config.round_timeout)
            for offset in range(self._client_count):
                client = Client(
                    process_id=config.n + offset,
                    scheduler=scheduler,
                    network=network,
                    f=config.f,
                    replica_ids=list(range(config.n)),
                    **client_kwargs,
                )
                network.register(client, in_multicast_group=False)
                clients.append(client)

        cluster = Cluster(
            config=config,
            scheduler=scheduler,
            network=network,
            setup=setup,
            replicas=replicas,
            mempools=mempools,
            metrics=metrics,
            preload=self._preload_transactions,
            byzantine_ids=byzantine_ids,
            clients=clients,
            fault_schedule=self._fault_schedule,
        )
        if self._delay_model_factory is not None:
            network.set_delay_model(self._delay_model_factory(cluster))
        return cluster
