"""The long-running controller serving loop.

:class:`ServeLoop` is the piece the paper motivates but never builds:
the inferred switch model put to work in a *continuous* control loop.
A sustained :class:`~repro.serve.stream.FlowRequestStream` arrives in
virtual time; each flow is looked up in the switch's finite tables, and
misses flow through FDRC admission into batched rule installs scheduled
over the existing Tango schedulers, with the
:class:`~repro.serve.cache.RuleCacheManager` deciding evictions and
wildcard aggregations when the TCAM fills.

Everything runs on one shared :class:`~repro.sim.clock.VirtualClock`:

* the :class:`~repro.sim.events.Simulator` drives periodic maintenance
  (idle-timeout expiry, admission-state pruning);
* the control channel and switch advance the clock with every
  modelled flow-mod, so install latency back-pressures the loop — if
  installs outpace inter-arrival gaps the clock runs ahead of the
  stream and the sustained requests/sec reflects saturation;
* the telemetry collector of the loop's optional
  :class:`~repro.obs.Instruments` samples table occupancy on its
  cadence and receives every install and every flow update
  (NetFlow-style), so the occupancy trajectory and SLO burn rates come
  out of the same pipeline every other tool uses.

The loop is deterministic end to end: same config, same bytes — the
replay test and ``tango-serve --verify-determinism`` hold it to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.requests import RequestDag
from repro.core.scheduler import BasicTangoScheduler, NetworkExecutor
from repro.obs import NULL_INSTRUMENTS, Instruments, SlidingWindow
from repro.openflow.channel import ControlChannel
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.serve.cache import CacheStats, RuleCacheManager
from repro.serve.stream import FlowArrival, FlowRequestStream, StreamConfig
from repro.sim.clock import VirtualClock
from repro.sim.events import Simulator
from repro.sim.rng import SeededRng
from repro.switches.profiles import SwitchProfile
from repro.tables.policies import CachePolicy

#: Unbounded-window latency collector size: enough for one serve run's
#: install records without resampling (matches the telemetry default).
LATENCY_CAPACITY = 262_144


def policy_from_model(model) -> Optional[CachePolicy]:
    """The cache policy an inference run discovered, or None.

    This is the Algorithm 2 → serving plumbing: hand the returned
    policy to :class:`ServeLoop` (or ``tango-serve --infer``) and
    eviction ranks rules exactly as the switch's own hierarchy does.
    """
    if model is None or model.policy_probe is None:
        return None
    return model.policy_probe.as_policy(name=f"inferred:{model.name}")


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serving run.

    Args:
        stream: the workload (see :class:`~repro.serve.stream.StreamConfig`).
        batch_size: flow misses accumulated before one scheduled install
            batch (amortises scheduler rounds, exactly like real
            controllers coalesce flow-mods).
        capacity: rule-budget override; default derives the bounded
            capacity of the switch's table stack (None = unbounded).
        admission_threshold: packet-ins before a rule is installed (FDRC).
        admission_window_ms: admission-counting window.
        aggregate_prefix_len: wildcard aggregate prefix length.
        aggregate_min_rules: minimum siblings before aggregation.
        idle_timeout_ms: rules idle this long are expired by maintenance.
        maintenance_interval_ms: cadence of the simulator maintenance tick.
    """

    stream: StreamConfig
    batch_size: int = 32
    capacity: Optional[int] = None
    admission_threshold: int = 1
    admission_window_ms: float = 50.0
    aggregate_prefix_len: int = 28
    aggregate_min_rules: int = 4
    idle_timeout_ms: float = 500.0
    maintenance_interval_ms: float = 100.0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.admission_threshold < 1:
            raise ValueError("admission_threshold must be at least 1")
        if self.aggregate_min_rules < 2:
            raise ValueError("aggregate_min_rules must be at least 2")
        if self.idle_timeout_ms <= 0:
            raise ValueError("idle_timeout_ms must be positive")
        if self.maintenance_interval_ms <= 0:
            raise ValueError("maintenance_interval_ms must be positive")


def _round(value: Optional[float], digits: int = 4) -> Optional[float]:
    return None if value is None else round(value, digits)


@dataclass
class ServeResult:
    """Deterministic outcome of one serving run."""

    arrivals: int
    duration_ms: float
    batches: int
    rounds: int
    maintenance_ticks: int
    op_count: int
    cache: CacheStats
    install_p50_ms: Optional[float]
    install_p99_ms: Optional[float]
    install_mean_ms: Optional[float]
    occupancy: Dict[str, object] = field(default_factory=dict)
    table_signature: Tuple[Tuple[str, int], ...] = ()

    @property
    def requests_per_sec(self) -> float:
        """Sustained virtual-time throughput (requests per simulated s)."""
        if self.duration_ms <= 0:
            return 0.0
        return self.arrivals / (self.duration_ms / 1000.0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "arrivals": self.arrivals,
            "duration_ms": round(self.duration_ms, 3),
            "requests_per_sec": round(self.requests_per_sec, 3),
            "batches": self.batches,
            "rounds": self.rounds,
            "maintenance_ticks": self.maintenance_ticks,
            "op_count": self.op_count,
            "install_p50_ms": _round(self.install_p50_ms),
            "install_p99_ms": _round(self.install_p99_ms),
            "install_mean_ms": _round(self.install_mean_ms),
            "cache": self.cache.to_dict(),
            "occupancy": self.occupancy,
        }


class ServeLoop:
    """Drives one switch through a sustained flow-request stream.

    Args:
        config: run configuration.
        profile: switch recipe; built fresh on a shared virtual clock.
        policy: eviction-ranking policy (pass the inferred Algorithm 2
            policy via :func:`policy_from_model`; defaults to the
            switch's ground-truth policy).
        instruments: shared by the executor and scheduler; its
            collector receives installs, per-flow updates, and cadence
            occupancy samples, and its registry the
            ``serve.install_ms`` histogram.
        sanitizer: optional race sanitizer; the maintenance simulator is
            built through it so expiry events carry provenance.
    """

    def __init__(
        self,
        config: ServeConfig,
        profile: SwitchProfile,
        policy: Optional[CachePolicy] = None,
        instruments: Instruments = NULL_INSTRUMENTS,
        sanitizer=None,
    ) -> None:
        self.config = config
        self.clock = VirtualClock()
        if sanitizer is not None:
            self.sim = sanitizer.make_simulator(self.clock)
        else:
            self.sim = Simulator(self.clock)
        seed = config.stream.seed
        self.switch = profile.build(clock=self.clock, seed=seed)
        channel = ControlChannel(
            self.switch,
            clock=self.clock,
            rng=SeededRng(seed).child("serve:channel"),
        )
        self.executor = NetworkExecutor(
            {self.switch.name: channel}, instruments=instruments
        )
        self.scheduler = BasicTangoScheduler(self.executor)
        self.cache = RuleCacheManager(
            self.switch,
            policy=policy,
            capacity=config.capacity,
            admission_threshold=config.admission_threshold,
            admission_window_ms=config.admission_window_ms,
            aggregate_prefix_len=config.aggregate_prefix_len,
            aggregate_min_rules=config.aggregate_min_rules,
        )
        self.instruments = instruments
        instruments.watch_switch(self.switch.name, self.switch)
        self._install_window = SlidingWindow(
            float("inf"), capacity=LATENCY_CAPACITY
        )
        self._install_hist = instruments.histogram("serve.install_ms")
        self.stream = FlowRequestStream(config.stream)
        self._pending: List[FlowArrival] = []
        self._running = False
        self._batches = 0
        self._rounds = 0
        self._maintenance_ticks = 0
        self._op_count = 0

    # -- internals ---------------------------------------------------------------
    def _flush(self) -> None:
        """Plan and schedule one install batch through the Tango stack."""
        if not self._pending:
            return
        ops = self.cache.plan_installs(self._pending)
        self._pending.clear()
        if not ops:
            return
        dag = RequestDag()
        deletes = []
        adds = []
        for op in ops:
            if op.command is FlowModCommand.DELETE:
                deletes.append(
                    dag.new_request(
                        self.switch.name,
                        op.command,
                        op.match,
                        priority=op.priority,
                        actions=op.actions,
                    )
                )
            else:
                adds.append(op)
        for op in adds:
            # Adds wait for every planned delete: the slots an eviction
            # or aggregation frees must exist before any install lands.
            dag.new_request(
                self.switch.name,
                op.command,
                op.match,
                priority=op.priority,
                actions=op.actions,
                after=deletes,
            )
        result = self.scheduler.schedule(dag)
        self._batches += 1
        self._rounds += result.rounds
        self._op_count += dag.ops.total() + len(result.records)
        for record in result.records:
            if record.request.command is FlowModCommand.ADD:
                latency = record.finished_ms - record.started_ms
                self._install_window.observe(record.finished_ms, latency)
                if self.instruments.enabled:
                    self._install_hist.observe(latency)

    def _maintenance(self) -> None:
        """Expire idle rules and prune admission state (simulator tick)."""
        self._maintenance_ticks += 1
        now = self.clock.now_ms
        for entry in self.cache.expired_entries(now, self.config.idle_timeout_ms):
            # Idle timeout is switch-local (OpenFlow idle_timeout), so
            # expiry bypasses the control channel but still pays the
            # modelled delete cost on the shared clock.
            self.switch.apply_flow_mod(
                FlowMod(
                    command=FlowModCommand.DELETE,
                    match=entry.match,
                    priority=entry.priority,
                    actions=(),
                )
            )
            self.cache.stats.expirations += 1
        self.cache.prune_admission(now)
        if self._running:
            self.sim.schedule(self.config.maintenance_interval_ms, self._maintenance)

    # -- driving -----------------------------------------------------------------
    def run(self) -> ServeResult:
        """Serve the whole configured stream; returns the run summary."""
        config = self.config
        self._running = True
        self.sim.schedule(config.maintenance_interval_ms, self._maintenance)
        arrivals = 0
        for arrival in self.stream:
            arrivals += 1
            # Run maintenance due before this arrival, then move to its
            # instant.  advance_to no-ops when installs already pushed
            # the clock past t_ms — that is the saturation regime, and
            # the reported requests/sec reflects it; the run horizon
            # tracks the clock frontier so maintenance keeps firing
            # even when the stream lags the clock.
            self.sim.run(until_ms=max(arrival.t_ms, self.clock.now_ms))
            self.clock.advance_to(arrival.t_ms)
            now = self.clock.now_ms
            if self.instruments.enabled:
                self.instruments.observe_flow(
                    self.switch.name,
                    f"t{arrival.tenant}:d{arrival.destination}",
                    now,
                )
            self._op_count += 1  # one table lookup
            if self.cache.lookup(arrival.match, arrival.priority, now) is not None:
                continue
            if not self.cache.admit(arrival.flow_key, now):
                continue
            self._pending.append(arrival)
            if len(self._pending) >= config.batch_size:
                self._flush()
        self._flush()
        self._running = False
        self.sim.run()  # drain the last scheduled maintenance tick
        now = self.clock.now_ms
        self.instruments.finish(now)
        return ServeResult(
            arrivals=arrivals,
            duration_ms=now,
            batches=self._batches,
            rounds=self._rounds,
            maintenance_ticks=self._maintenance_ticks,
            op_count=self._op_count,
            cache=self.cache.stats,
            install_p50_ms=self._install_window.percentile(50.0),
            install_p99_ms=self._install_window.percentile(99.0),
            install_mean_ms=self._install_window.mean(),
            occupancy=self.switch.tables.occupancy_snapshot(),
            table_signature=self.table_signature(),
        )

    def table_signature(self) -> Tuple[Tuple[str, int], ...]:
        """A deterministic fingerprint of the final table contents."""
        return tuple(
            sorted(
                (repr(entry.match.key()), entry.priority)
                for entry in self.switch.tables.entries
            )
        )
