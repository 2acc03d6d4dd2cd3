"""The four workloads: the paper's infer -> install -> serve loop.

Each workload owns a fixed input set made from the workload seed.  One
op runs one input on fresh switch state through the public APIs of
``repro.core.inference``, ``repro.core.scheduler`` and ``repro.serve``;
``check`` then verifies the op's outputs (untimed) and extracts the
simulated figures.  A run cycles through the whole input set, so the
op mix is the same in every cycle.

* ``infer_vendors`` -- one op is a cold inference (Algorithms 1 + 2 and
  the latency curves) of one vendor switch; the set is OVS and
  Switches #1-#3.  Work unit: one switch.  Exercises probing, the
  probers, table fill/overflow, the control channel and the switch
  models; no DAG, scheduler, planner or serve code runs.
* ``install_classbench`` -- one op builds one Table 2 ClassBench DAG and
  installs it on a fresh Switch #1 with ``BasicTangoScheduler`` and the
  rewrite patterns of the Switch #1 model inferred in setup (Fig. 9's
  path).  The set is ClassBench 1/2/3 under topological and R
  priorities.  Work unit: one flow rule installed.
* ``install_prefix`` -- the same six DAGs through ``PrefixTangoScheduler``
  with the inferred duration estimator: the only workload in which the
  prefix planner runs.
* ``serve_churn`` -- one op is one ``ServeLoop.run`` episode of churning
  Zipf flows against Switch #1 with a 48-rule budget (about half the hot
  working set), evicting by the cache policy inferred in setup.  The
  set is twelve episodes with seeds drawn from the workload seed.  Work
  unit: one flow arrival.  The read-heavy (lookup) use of the tables,
  and many small per-batch DAGs.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.inference import InferredSwitchModel, SwitchInferenceEngine
from repro.core.priorities import assign_r_priorities, assign_topological_priorities
from repro.core.requests import RequestDag
from repro.core.scheduler import (
    BasicTangoScheduler,
    NetworkExecutor,
    PrefixTangoScheduler,
)
from repro.openflow.channel import ControlChannel
from repro.openflow.messages import FlowModCommand
from repro.serve import ServeConfig, ServeLoop, StreamConfig, policy_from_model
from repro.switches.profiles import (
    OVS_PROFILE,
    SWITCH_1,
    SWITCH_2,
    SWITCH_3,
)
from repro.workloads.classbench import classbench_preset

#: The paper's bound on size-inference error (Section 4).
SIZE_ERROR_LIMIT_PCT = 5.0

#: Probe seed of the controller's Switch #1 model, the same for every
#: workload seed.  The prefix planner's choices swing with tiny changes
#: in the inferred estimates: over ten probe seeds, installing
#: ClassBench 1 under topological priorities took 113-628 scheduler
#: rounds and 0.2-1.7 s.  A fixed model keeps runs with different
#: workload seeds comparable; 7 gives a mid-range plan.
MODEL_SEED = 7


def subseed(seed: int, *labels) -> int:
    """A per-input seed derived from the workload seed, stable across
    processes (unlike ``hash``, which Python salts per process)."""
    return zlib.crc32(repr((seed,) + labels).encode()) & 0x7FFFFFFF


@dataclass
class Outcome:
    """What ``check`` learned from one op's outputs."""

    units: int
    virtual_ms: float
    signature: str
    problems: List[str] = field(default_factory=list)
    facts: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base: ``setup`` builds ``items``; ``run`` is one timed op."""

    name = ""
    #: Input whose op doubles as the untimed warm-up in setup.
    warmup_index = 0

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.items: List = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, artifacts) -> Outcome:
        raise NotImplementedError

    def set_facts(self, outcomes: Sequence[Outcome]) -> Dict[str, float]:
        """Simulated per-layer figures over the whole input set."""
        return {}


# -- infer_vendors -----------------------------------------------------------------


class InferVendors(Workload):
    name = "infer_vendors"
    warmup_index = 3  # Switch #3: the cheapest cold inference

    def setup(self) -> None:
        profiles = (OVS_PROFILE, SWITCH_1, SWITCH_2, SWITCH_3)
        if self.tiny:
            profiles = (SWITCH_3,)
            self.warmup_index = 0
        self.items = [
            (profile, subseed(self.seed, "infer", profile.name)) for profile in profiles
        ]

    def run(self, item):
        profile, seed = item
        # An explicit seed, never Tango.infer: that one seeds from
        # hash(name), which differs from process to process.
        engine = SwitchInferenceEngine(profile, seed=seed)
        return engine, engine.infer()

    def check(self, item, artifacts) -> Outcome:
        profile, _ = item
        engine, model = artifacts
        problems: List[str] = []
        true_sizes = list(profile.true_layer_sizes)
        true_bounded = [n for n in true_sizes if n is not None]
        sizes = model.layer_sizes
        bounded = [n for n in sizes if n is not None]
        errors: List[float] = []
        if len(bounded) != len(true_bounded) or (None in sizes) != (None in true_sizes):
            problems.append(f"{profile.name}: inferred layers {sizes}, true {true_sizes}")
        else:
            errors = [abs(n - t) * 100.0 / t for n, t in zip(bounded, true_bounded)]
            if any(error > SIZE_ERROR_LIMIT_PCT for error in errors):
                problems.append(
                    f"{profile.name}: sizes {bounded} off true {true_bounded} by >5%"
                )
        has_cache_hierarchy = len(true_sizes) > 1 and true_sizes[0] is not None
        expected = tuple(profile.policy.terms) if has_cache_hierarchy else None
        probed = tuple(model.policy_probe.terms) if model.policy_probe else None
        if probed != expected:
            problems.append(f"{profile.name}: probed policy {probed}, expected {expected}")
        virtual_ms = engine.virtual_cost_ms()
        return Outcome(
            units=1,
            virtual_ms=virtual_ms,
            signature=json.dumps(model.to_dict(), sort_keys=True) + repr(virtual_ms),
            problems=problems,
            facts={
                "core.probing.probe_ops": engine.probe_ops(),
                "size_error_pct_sum": sum(errors),
                "size_error_layers": len(errors),
            },
        )

    def set_facts(self, outcomes: Sequence[Outcome]) -> Dict[str, float]:
        layers = sum(o.facts["size_error_layers"] for o in outcomes)
        total = sum(o.facts["size_error_pct_sum"] for o in outcomes)
        return {"core.inference.size.error_pct": total / layers if layers else 0.0}


# -- install_classbench / install_prefix -------------------------------------------


@dataclass(frozen=True)
class InstallItem:
    label: str
    rules: Tuple
    edges: Tuple[Tuple[int, int], ...]
    priorities: Tuple[int, ...]
    switch_seed: int


class InstallClassbench(Workload):
    name = "install_classbench"

    def setup(self) -> None:
        kinds = (("topological", assign_topological_priorities),)
        if not self.tiny:
            kinds += (("r", assign_r_priorities),)
        for index in (3,) if self.tiny else (1, 2, 3):
            # The Table 2 rule sets themselves, for the reason given at
            # MODEL_SEED: the prefix planner's work varies by up to 2x
            # between generator seeds.  The workload seed varies the
            # switches' jitter.
            ruleset = classbench_preset(index)
            edges = tuple(ruleset.dependencies.edges())
            for kind, assign in kinds:
                priorities = assign(ruleset.dependencies)
                self.items.append(
                    InstallItem(
                        label=f"classbench{index}/{kind}",
                        rules=tuple(ruleset.rules),
                        edges=edges,
                        priorities=tuple(priorities[i] for i in range(len(ruleset))),
                        switch_seed=subseed(self.seed, "switch", index, kind),
                    )
                )
        # The controller's model of Switch #1: its latency curves, from
        # which the rewrite patterns and the duration estimator derive.
        engine = SwitchInferenceEngine(SWITCH_1, seed=MODEL_SEED)
        model = InferredSwitchModel(
            name=SWITCH_1.name, latency_curves=engine.infer_latency_curves()
        )
        self.patterns = model.rewrite_patterns()
        self.estimate = model.duration_estimator()

    def scheduler(self, executor: NetworkExecutor) -> BasicTangoScheduler:
        return BasicTangoScheduler(executor, patterns=self.patterns)

    def run(self, item: InstallItem):
        switch = SWITCH_1.build(seed=item.switch_seed)
        executor = NetworkExecutor({switch.name: ControlChannel(switch)})
        dag = RequestDag()
        requests = [
            dag.new_request(switch.name, FlowModCommand.ADD, rule, priority=priority)
            for rule, priority in zip(item.rules, item.priorities)
        ]
        # Edges follow ACL order, so one final acyclicity check suffices.
        for first, then in item.edges:
            dag.add_dependency(requests[first], requests[then], check_cycle=False)
        dag.validate_acyclic()
        scheduler = self.scheduler(executor)
        return switch, dag, scheduler, scheduler.schedule(dag)

    def check(self, item: InstallItem, artifacts) -> Outcome:
        switch, dag, scheduler, result = artifacts
        problems: List[str] = []
        issued = [record.request.request_id for record in result.records]
        if len(issued) != len(set(issued)):
            problems.append(f"{item.label}: a request was issued twice")
        if set(issued) != {request.request_id for request in dag.requests}:
            problems.append(f"{item.label}: not every request was issued")
        started = {r.request.request_id: r.started_ms for r in result.records}
        finished = {r.request.request_id: r.finished_ms for r in result.records}
        late = sum(
            1
            for first, then in dag.edge_ids()
            if first in finished and then in started and finished[first] > started[then]
        )
        if late:
            problems.append(f"{item.label}: {late} requests started before a dependency")
        if switch.num_flows != len(item.rules):
            problems.append(
                f"{item.label}: {switch.num_flows} flows installed, {len(item.rules)} rules"
            )
        facts: Dict[str, float] = {"core.scheduler.rounds": result.rounds}
        planner = getattr(scheduler, "last_planner", None)
        if planner is not None:
            stats = planner.stats()
            facts["core.planner.plan_calls"] = stats["plan_calls"]
            facts["memo_hits"] = stats["memo_hits"]
            facts["memo_misses"] = stats["memo_misses"]
        return Outcome(
            units=len(result.records),
            virtual_ms=result.makespan_ms,
            signature=repr((result.makespan_ms, tuple(issued))),
            problems=problems,
            facts=facts,
        )


class InstallPrefix(InstallClassbench):
    name = "install_prefix"
    warmup_index = 4  # classbench3/topological: the cheapest prefix plan

    def setup(self) -> None:
        super().setup()
        if self.tiny:
            self.warmup_index = 0

    def scheduler(self, executor: NetworkExecutor) -> BasicTangoScheduler:
        return PrefixTangoScheduler(executor, self.estimate, patterns=self.patterns)


# -- serve_churn ---------------------------------------------------------------------

#: Rule budget: about half the hot working set of the churn stream, so an
#: episode evicts hundreds of rules instead of a handful.
SERVE_BUDGET = 48


class ServeChurn(Workload):
    name = "serve_churn"

    def setup(self) -> None:
        # The controller needs the cache policy (Algorithm 2), which in
        # turn needs the fast-table size (Algorithm 1).
        engine = SwitchInferenceEngine(SWITCH_1, seed=MODEL_SEED)
        model = InferredSwitchModel(name=SWITCH_1.name, size_probe=engine.infer_sizes())
        model.policy_probe = engine.infer_policy(model.fast_table_size)
        self.policy = policy_from_model(model)
        if self.policy is None:
            raise RuntimeError("Switch #1 inference found no cache policy")
        episodes, arrivals = (2, 1000) if self.tiny else (12, 5000)
        # The shape of repro.perf.workloads.serve_churn_config, on Switch #1.
        self.items = [
            ServeConfig(
                stream=StreamConfig(
                    arrivals=arrivals,
                    tenants=16,
                    destinations_per_tenant=64,
                    rate_per_ms=2.0,
                    zipf_skew=1.1,
                    tenant_skew=0.6,
                    churn_interval_ms=150.0,
                    seed=subseed(self.seed, "stream", episode),
                ),
                batch_size=16,
                capacity=SERVE_BUDGET,
                admission_threshold=2,
                admission_window_ms=80.0,
                idle_timeout_ms=400.0,
                maintenance_interval_ms=100.0,
            )
            for episode in range(episodes)
        ]

    def run(self, config: ServeConfig):
        loop = ServeLoop(config, SWITCH_1, policy=self.policy)
        tables = loop.switch.tables
        overfull: List[int] = []

        def insert_within_budget(*args, **kwargs):
            entry = type(tables).insert(tables, *args, **kwargs)
            if len(tables) > config.capacity:
                overfull.append(len(tables))
            return entry

        tables.insert = insert_within_budget
        return loop, loop.run(), overfull

    def check(self, config: ServeConfig, artifacts) -> Outcome:
        loop, result, overfull = artifacts
        problems: List[str] = []
        if overfull:
            problems.append(
                f"occupancy reached {max(overfull)} over the {config.capacity}-rule budget"
            )
        if result.arrivals != config.stream.arrivals:
            problems.append(f"{result.arrivals} of {config.stream.arrivals} arrivals served")
        cache = result.cache
        channel = loop.executor.channels[loop.switch.name]
        return Outcome(
            units=result.arrivals,
            virtual_ms=channel.total_control_time_ms(),
            signature=repr((result.table_signature, cache.hit_rate)),
            problems=problems,
            facts={
                "core.scheduler.rounds": result.rounds,
                "serve.cache.installs": cache.installs,
                "serve.cache.evictions": cache.evictions,
                "serve.cache.punts": cache.punts,
                "serve.cache.aggregations": cache.aggregations,
                "hits": cache.hits,
                "lookups": cache.lookups,
                "install_p99_ms": result.install_p99_ms or 0.0,
            },
        )

    def set_facts(self, outcomes: Sequence[Outcome]) -> Dict[str, float]:
        lookups = sum(o.facts["lookups"] for o in outcomes)
        return {
            "serve.cache.hit_rate": sum(o.facts["hits"] for o in outcomes) / lookups,
            "serve.loop.virtual_install_p99_ms": sum(
                o.facts["install_p99_ms"] for o in outcomes
            )
            / len(outcomes),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (InferVendors, InstallClassbench, InstallPrefix, ServeChurn)
}
