"""The switch inference engine: orchestrates all probes for one switch.

Given a switch (or a profile to build fresh instances from), the engine
runs the size probe (Algorithm 1), the cache-policy probe (Algorithm 2),
and the latency-curve probe, and assembles an
:class:`InferredSwitchModel` -- Tango's abstraction of the switch that
schedulers and applications consume instead of vendor documentation.

**Determinism.**  Every probe draws from child streams of the engine's
``seed`` and all timing is virtual-clock, so inference is reproducible
byte-for-byte — including under an attached
:class:`~repro.faults.FaultInjector`, whose decisions come from its own
seeded streams.  With a ``retry_policy`` set, probes survive transient
faults and the assembled model's :attr:`InferredSwitchModel.confidence`
reports how clean the run was (1.0 = fault-free).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.behavior_inference import BehaviorProber, BehaviorProbeResult
from repro.core.latency_curves import (
    LatencyCurve,
    LatencyCurveProber,
    PriorityPattern,
    derive_rewrite_patterns,
)
from repro.core.patterns import RewritePattern
from repro.core.policy_inference import PolicyProber, PolicyProbeResult
from repro.core.probing import ProbingEngine
from repro.core.scheduler import DurationEstimator
from repro.core.scores import TangoScoreDatabase
from repro.core.size_inference import SizeProber, SizeProbeResult
from repro.obs import NULL_INSTRUMENTS, Instruments
from repro.openflow.channel import ControlChannel
from repro.openflow.messages import FlowModCommand
from repro.core.requests import SwitchRequest
from repro.sim.rng import SeededRng
from repro.switches.profiles import SwitchProfile


@dataclass
class InferredSwitchModel:
    """Everything Tango learned about one switch."""

    name: str
    size_probe: Optional[SizeProbeResult] = None
    policy_probe: Optional[PolicyProbeResult] = None
    behavior_probe: Optional[BehaviorProbeResult] = None
    latency_curves: Dict[Tuple[FlowModCommand, PriorityPattern], LatencyCurve] = field(
        default_factory=dict
    )

    @property
    def layer_sizes(self) -> List[Optional[int]]:
        if self.size_probe is None:
            return []
        return [layer.estimated_size for layer in self.size_probe.layers]

    @property
    def confidence(self) -> float:
        """Min confidence over the probes that report one (1.0 = clean)."""
        values = [
            probe.confidence
            for probe in (self.size_probe, self.policy_probe)
            if probe is not None
        ]
        return min(values) if values else 1.0

    @property
    def fast_table_size(self) -> Optional[int]:
        sizes = self.layer_sizes
        return sizes[0] if sizes else None

    def rewrite_patterns(self) -> List[RewritePattern]:
        """Switch-specific rewrite patterns from the measured curves."""
        if not self.latency_curves:
            return []
        return derive_rewrite_patterns(self.latency_curves)

    def to_dict(self) -> dict:
        """A JSON-serialisable summary of the inferred model.

        Lets operators persist TangoDB contents across controller
        restarts or share them between controllers.
        """
        summary: dict = {"name": self.name}
        if self.size_probe is not None:
            summary["layers"] = [
                {
                    "size": layer.estimated_size,
                    "mean_rtt_ms": round(layer.mean_rtt_ms, 4),
                }
                for layer in self.size_probe.layers
            ]
            summary["cache_full"] = self.size_probe.cache_full
        summary["confidence"] = round(self.confidence, 6)
        if self.policy_probe is not None:
            summary["policy"] = [
                {"attribute": attribute.value, "direction": direction.name}
                for attribute, direction in self.policy_probe.terms
            ]
        if self.behavior_probe is not None:
            summary["behavior"] = {
                "traffic_driven_caching": self.behavior_probe.traffic_driven_caching,
                "first_packet_penalty_ms": round(
                    self.behavior_probe.first_packet_penalty_ms, 4
                ),
                "control_path_ms": round(self.behavior_probe.control_path_ms, 4),
            }
        if self.latency_curves:
            summary["latency_curves"] = {
                f"{op.value}/{pattern.value}": {
                    "linear_ms": round(curve.linear_ms, 6),
                    "quadratic_ms": round(curve.quadratic_ms, 8),
                }
                for (op, pattern), curve in self.latency_curves.items()
            }
        return summary

    def clone_as(self, name: str) -> "InferredSwitchModel":
        """A deep copy of this model relabelled for another switch.

        Used by the fleet model cache (:mod:`repro.core.fleet`): a cache
        hit hands an identical switch a private copy of the origin
        switch's model, so later mutations never alias across switches.
        """
        clone = copy.deepcopy(self)
        clone.name = name
        return clone

    def duration_estimator(self) -> DurationEstimator:
        """Per-request duration estimates from the measured curves.

        Every request is charged its curve's marginal cost at an empty
        table (``per_op_ms(0)``), whatever the switch's fill level: the
        fitted curves' fill term is not used.  Additions read the
        ascending-priority curve; modifications and deletions use their
        flat curves.
        """
        curves = self.latency_curves

        def estimate(request: SwitchRequest) -> float:
            if request.command is FlowModCommand.ADD:
                curve = curves.get((FlowModCommand.ADD, PriorityPattern.ASCENDING))
            else:
                curve = curves.get((request.command, PriorityPattern.SAME))
            if curve is None:
                return 1.0
            return curve.per_op_ms(0)

        return estimate


@dataclass(frozen=True)
class StageCost:
    """What one probe stage of :meth:`SwitchInferenceEngine.infer_steps` cost."""

    stage: str
    probe_ops: int
    virtual_ms: float

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "probe_ops": self.probe_ops,
            "virtual_ms": round(self.virtual_ms, 4),
        }


class SwitchInferenceEngine:
    """Runs Tango's probes against one switch profile.

    Args:
        profile: the switch profile to infer (fresh instances are built
            for destructive probes such as the latency curves).
        scores: shared Tango score database.
        seed: base RNG seed for all probes.
        size_probe_max_rules: cap for switches that never reject adds.
        latency_batch_sizes: batch sizes for the latency-curve probe.
        instruments: shared by every probing engine built; each probe's
            spans read that engine's own virtual clock.
        fault_injector: optional :class:`~repro.faults.FaultInjector`;
            every control channel built for a probe is wrapped so the
            injector's plan applies to the whole inference run.
        retry_policy: optional :class:`~repro.faults.RetryPolicy` handed
            to every probing engine built (deterministic backoff against
            the injected faults).
    """

    def __init__(
        self,
        profile: SwitchProfile,
        scores: Optional[TangoScoreDatabase] = None,
        seed: int = 0,
        size_probe_max_rules: int = 8192,
        size_accuracy_target: float = 0.02,
        latency_batch_sizes: Tuple[int, ...] = (100, 400, 900, 1600),
        policy_cache_size: Optional[int] = None,
        fault_injector=None,
        retry_policy=None,
        instruments: Instruments = NULL_INSTRUMENTS,
    ) -> None:
        self.profile = profile
        self.scores = scores if scores is not None else TangoScoreDatabase()
        self.seed = seed
        self.size_probe_max_rules = size_probe_max_rules
        self.size_accuracy_target = size_accuracy_target
        self.latency_batch_sizes = latency_batch_sizes
        self.policy_cache_size = policy_cache_size
        self.instruments = instruments
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self._build_count = 0
        #: Every probing engine built so far (one per probe stage round);
        #: the fleet driver reads these to charge virtual time and ops.
        #: Finished ones hold no rules: see :meth:`_retire_probe`.
        self.probe_engines: List[ProbingEngine] = []
        #: One entry per stage :meth:`infer_steps` has finished, in order.
        self.ledger: List[StageCost] = []
        self._ledger_mark: Tuple[int, float] = (0, 0.0)

    def _retire_probe(self) -> None:
        """Drop the newest probe switch's rules once its measurement is over.

        A finished probe engine keeps its clock, counters, switch stats
        and channel counters -- everything the accounting reads -- but
        not its flow table, probe handles or the switch stream's block
        of unserved normal draws, so inference holds one live probe
        switch rather than every one it ever built.
        """
        if self.probe_engines:
            engine = self.probe_engines[-1]
            engine.channel.switch.reset_rules()
            engine.channel.switch.rng.sync()
            engine.flows.clear()

    def _fresh_engine(self) -> ProbingEngine:
        self._retire_probe()
        self._build_count += 1
        switch = self.profile.build(seed=self.seed + self._build_count)
        channel = ControlChannel(switch)
        if self.fault_injector is not None:
            channel = self.fault_injector.wrap_channel(channel)
        engine = ProbingEngine(
            channel,
            scores=self.scores,
            rng=SeededRng(self.seed).child(f"probe:{self._build_count}"),
            retry_policy=self.retry_policy,
            instruments=self.instruments,
        )
        self.probe_engines.append(engine)
        return engine

    # -- accounting ---------------------------------------------------------------
    def virtual_cost_ms(self) -> float:
        """Total virtual probing time spent so far, over all probe rounds.

        Each probe stage builds fresh switches whose local clocks start
        at zero, so the cost of a run is the *sum* of those clocks --
        exactly the serial virtual time `infer()` consumes, and the
        quantity the fleet driver turns into event delays.
        """
        return sum(e.channel.clock.now_ms for e in self.probe_engines)

    def probe_ops(self) -> int:
        """Deterministic operation count for this engine's probing so far.

        Flow installs plus RTT measurements over every probing engine
        built -- a pure function of (profile, seed, knobs), used by the
        ``fleet_infer`` perf-regression gate.
        """
        return sum(
            e.installs_completed + e.rtt_measurements for e in self.probe_engines
        )

    def _finish_stage(self, stage: str) -> str:
        """Append ``stage``'s ops and virtual ms since the last stage to the ledger."""
        ops, cost = self.probe_ops(), self.virtual_cost_ms()
        marked_ops, marked_cost = self._ledger_mark
        self.ledger.append(StageCost(stage, ops - marked_ops, cost - marked_cost))
        self._ledger_mark = (ops, cost)
        return stage

    # -- individual probes ------------------------------------------------------
    def infer_sizes(self) -> SizeProbeResult:
        prober = SizeProber(
            self._fresh_engine(),
            max_rules=self.size_probe_max_rules,
            accuracy_target=self.size_accuracy_target,
        )
        try:
            return prober.probe()
        finally:
            self._retire_probe()

    def infer_policy(self, cache_size: int) -> PolicyProbeResult:
        prober = PolicyProber(self._fresh_engine(), cache_size=cache_size)
        try:
            return prober.probe()
        finally:
            self._retire_probe()

    def infer_latency_curves(
        self,
    ) -> Dict[Tuple[FlowModCommand, PriorityPattern], LatencyCurve]:
        prober = LatencyCurveProber(
            self._fresh_engine,
            batch_sizes=self.latency_batch_sizes,
            scores=self.scores,
        )
        try:
            return prober.probe()
        finally:
            self._retire_probe()

    def infer_behavior(self) -> BehaviorProbeResult:
        prober = BehaviorProber(self._fresh_engine())
        try:
            return prober.probe()
        finally:
            self._retire_probe()

    # -- full inference ------------------------------------------------------------
    def infer_steps(
        self, include_policy: bool = True
    ) -> Generator[str, None, InferredSwitchModel]:
        """Run the probes one stage at a time (a resumable generator).

        Yields the completed stage's name after each probe stage (``"size"``,
        ``"behavior"``, ``"policy"`` when it runs, ``"latency_curves"``),
        once its cost is in :attr:`ledger`, and returns the assembled
        :class:`InferredSwitchModel` via ``StopIteration.value``.
        Driving the generator to exhaustion is *byte-identical* to
        :meth:`infer` -- it is the same code -- which is what lets
        :class:`repro.core.fleet.FleetInferenceEngine` interleave many
        switches on one event queue without perturbing any single
        switch's results.
        """
        model = InferredSwitchModel(name=self.profile.name)
        model.size_probe = self.infer_sizes()
        yield self._finish_stage("size")
        model.behavior_probe = self.infer_behavior()
        yield self._finish_stage("behavior")
        if include_policy:
            cache_size = self.policy_cache_size
            if cache_size is None:
                cache_size = model.fast_table_size
            multi_layer = model.size_probe.num_layers > 1
            if cache_size is not None and cache_size >= 8 and multi_layer:
                model.policy_probe = self.infer_policy(cache_size)
                yield self._finish_stage("policy")
        model.latency_curves = self.infer_latency_curves()
        yield self._finish_stage("latency_curves")
        self.scores.put(
            self.profile.name, "switch_model", model, source="inference_engine"
        )
        return model

    def infer(self, include_policy: bool = True) -> InferredSwitchModel:
        """Run all probes and assemble the switch model."""
        steps = self.infer_steps(include_policy=include_policy)
        while True:
            try:
                next(steps)
            except StopIteration as stop:
                return stop.value
