"""Fleet-scale concurrent switch inference.

Tango's premise is probing *many diverse switches* and pooling the
results in a central score database (Section 4), yet one
:class:`~repro.core.inference.SwitchInferenceEngine` drives one switch.
This module scales inference out: a :class:`FleetInferenceEngine` runs N
per-switch engines *concurrently in virtual time* on the shared
:class:`~repro.sim.events.Simulator` event queue, so the fleet's virtual
makespan approaches the slowest single switch instead of the sum of all
of them.

Two mechanisms make fleets cheap:

* **Event-driven probe interleaving.**  Each member's inference runs as
  a resumable generator
  (:meth:`~repro.core.inference.SwitchInferenceEngine.infer_steps`);
  after every probe stage the driver charges the stage's virtual cost to
  the shared fleet clock and re-schedules the member, so independent
  switches overlap while per-switch probe code -- including fault retry
  backoff and disconnect holds on that member's local clocks -- is
  untouched.  A bounded ``max_in_flight`` knob admits members from a
  deterministic queue.
* **Profile-fingerprint model caching.**  An inferred model is memoised
  in TangoDB under a fingerprint of the switch profile's *behaviour*
  (layers, policy, latency models, cost model -- never the name) plus
  the inference configuration.  A fleet of K identical switches pays for
  ~one full probe run: later members hit the cache, and members admitted
  while a same-fingerprint probe is still in flight *coalesce* onto it
  (single-flight) instead of probing again.
  :class:`~repro.core.online_probing.DriftDetector` findings invalidate
  stale entries (:meth:`ModelCache.invalidate_if_drifted`).

**Determinism.**  Event ordering is the queue's ``(time, sequence)``
tie-break and every engine draws from its own seeded streams, so a fixed
(seed, fleet, fault plan) replays byte-for-byte -- and a single-member
fleet is bit-identical to today's sequential
``SwitchInferenceEngine.infer()``: same model, same per-switch TangoDB
records, same probe op counts.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.inference import InferredSwitchModel, SwitchInferenceEngine
from repro.core.online_probing import DriftDetector, DriftFinding
from repro.core.scores import TangoScoreDatabase
from repro.obs import NULL_INSTRUMENTS, Instruments
from repro.sim.events import Simulator
from repro.switches.profiles import SwitchProfile

#: Pseudo-switch name under which fleet-level TangoDB records live
#: (cached models, fleet run provenance).
FLEET_DB_SWITCH = "__fleet__"

#: TangoDB metric name for cached inferred models.
MODEL_CACHE_METRIC = "model_cache"


# -- profile fingerprinting ----------------------------------------------------
def _canonical(value: Any) -> Any:
    """A JSON-serialisable canonical form of profile components.

    Handles the (frozen) dataclasses that make up a
    :class:`~repro.switches.profiles.SwitchProfile` -- table layers,
    TCAM geometry, latency models, cost models, cache policies -- plus
    enums and plain containers.  Unknown objects fall back to their
    class name and sorted ``__dict__``, so a new latency model still
    fingerprints deterministically.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload: Dict[str, Any] = {"__type__": type(value).__name__}
        for f in dataclasses.fields(value):
            payload[f.name] = _canonical(getattr(value, f.name))
        return payload
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(value[key]) for key in sorted(value)}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        return {
            "__type__": type(value).__name__,
            **{str(key): _canonical(attrs[key]) for key in sorted(attrs)},
        }
    return repr(value)


def profile_fingerprint(profile: SwitchProfile, **config: Any) -> str:
    """A stable hex digest of a profile's behaviour plus probe config.

    The profile's ``name`` and declared ``true_layer_sizes`` are
    excluded: two switches that *behave* identically (same layers,
    policy, latency models, cost model) fingerprint identically
    regardless of labels, which is exactly when a cached model transfers.
    Inference knobs (``config``) are folded in so models probed under
    different accuracy targets or batch sizes never cross-contaminate.
    """
    payload = {
        "layers": _canonical(tuple(profile.layers)),
        "policy": _canonical(profile.policy),
        "layer_delays": _canonical(tuple(profile.layer_delays)),
        "control_path_delay": _canonical(profile.control_path_delay),
        "cost_model": _canonical(profile.cost_model),
        "is_ovs": profile.is_ovs,
        "config": _canonical(config),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- fleet membership ----------------------------------------------------------
@dataclass(frozen=True)
class FleetMember:
    """One switch in a fleet: a unique name, its profile, and a seed.

    ``seed`` ``None`` means "assigned by the fleet engine"
    (fleet seed + member index).  When ``name`` differs from the
    profile's vendor label, the member's engine runs against a renamed
    copy of the profile so TangoDB records and fault streams stay
    per-switch.
    """

    name: str
    profile: SwitchProfile
    seed: Optional[int] = None

    def named_profile(self) -> SwitchProfile:
        """The profile this member's engine should probe (renamed copy)."""
        if self.profile.name == self.name:
            return self.profile
        return dataclasses.replace(self.profile, name=self.name)


def build_fleet(
    profiles: Sequence[SwitchProfile], count: Optional[int] = None
) -> List[FleetMember]:
    """Fleet members cycling through ``profiles`` until ``count`` switches.

    Naming is deterministic: the first member of a given profile keeps
    the bare profile name (so a one-profile, one-switch fleet is
    byte-identical to a plain sequential probe), later duplicates get
    ``name#2``, ``name#3``, ...
    """
    if not profiles:
        raise ValueError("build_fleet needs at least one profile")
    total = count if count is not None else len(profiles)
    if total < 1:
        raise ValueError(f"fleet size must be positive, got {total}")
    members: List[FleetMember] = []
    uses: Dict[str, int] = {}
    for index in range(total):
        profile = profiles[index % len(profiles)]
        nth = uses.get(profile.name, 0) + 1
        uses[profile.name] = nth
        name = profile.name if nth == 1 else f"{profile.name}#{nth}"
        members.append(FleetMember(name=name, profile=profile))
    return members


# -- model cache ---------------------------------------------------------------
@dataclass
class CachedModel:
    """One memoised inference result with provenance.

    Stored in TangoDB under ``(FLEET_DB_SWITCH, MODEL_CACHE_METRIC,
    fingerprint=...)`` so caches survive across
    :class:`FleetInferenceEngine` instances that share a score database
    -- a controller restart re-uses earlier probe work.
    """

    fingerprint: str
    model: InferredSwitchModel
    origin: str
    recorded_at_ms: float = 0.0


class ModelCache:
    """Fingerprint-keyed memo of inferred switch models, in TangoDB.

    Args:
        scores: the score database that backs the cache.
        instruments: where the hit/miss/invalidation counters go.
    """

    def __init__(
        self, scores: TangoScoreDatabase, instruments: Instruments = NULL_INSTRUMENTS
    ) -> None:
        self.scores = scores
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0
        self._m_hits = instruments.counter("fleet.cache_hits")
        self._m_misses = instruments.counter("fleet.cache_misses")
        self._m_invalidations = instruments.counter("fleet.cache_invalidations")

    def lookup(self, fingerprint: str) -> Optional[CachedModel]:
        """The cached entry for ``fingerprint``, counting hit or miss."""
        entry = self.scores.get(
            FLEET_DB_SWITCH, MODEL_CACHE_METRIC, fingerprint=fingerprint
        )
        if entry is None:
            self.misses += 1
            self._m_misses.inc()
            return None
        self.hits += 1
        self._m_hits.inc()
        return entry

    def peek(self, fingerprint: str) -> Optional[CachedModel]:
        """The cached entry without touching the hit/miss counters."""
        return self.scores.get(
            FLEET_DB_SWITCH, MODEL_CACHE_METRIC, fingerprint=fingerprint
        )

    def store(
        self,
        fingerprint: str,
        model: InferredSwitchModel,
        origin: str,
        recorded_at_ms: float = 0.0,
    ) -> CachedModel:
        """Memoise a freshly probed model under its fingerprint."""
        entry = CachedModel(
            fingerprint=fingerprint,
            model=model.clone_as(model.name),
            origin=origin,
            recorded_at_ms=recorded_at_ms,
        )
        self.scores.put(
            FLEET_DB_SWITCH,
            MODEL_CACHE_METRIC,
            entry,
            recorded_at_ms=recorded_at_ms,
            source=f"fleet:{origin}",
            fingerprint=fingerprint,
        )
        self.stores += 1
        return entry

    def invalidate(self, fingerprint: str) -> bool:
        """Drop a cached entry; True if one existed."""
        removed = self.scores.remove(
            FLEET_DB_SWITCH, MODEL_CACHE_METRIC, fingerprint=fingerprint
        )
        if removed:
            self.invalidations += 1
            self._m_invalidations.inc()
        return removed

    def invalidate_if_drifted(
        self,
        fingerprint: str,
        fresh: Any,
        detector: Optional[DriftDetector] = None,
    ) -> List[DriftFinding]:
        """Compare a fresh probe against the cached entry; drop it on drift.

        ``fresh`` is an :class:`InferredSwitchModel` or a ``to_dict``
        summary.  Returns the detector's findings; a non-empty list
        means the entry was stale (firmware update, mode change) and has
        been invalidated so the next fleet run re-probes.
        """
        entry = self.peek(fingerprint)
        if entry is None:
            return []
        detector = detector if detector is not None else DriftDetector()
        findings = detector.compare_models(entry.model, fresh)
        if findings:
            self.invalidate(fingerprint)
        return findings


# -- fleet results -------------------------------------------------------------
@dataclass
class FleetMemberResult:
    """Outcome of one member's inference inside a fleet run."""

    name: str
    profile_name: str
    fingerprint: str
    model: InferredSwitchModel
    started_ms: float
    finished_ms: float
    cache_hit: bool
    coalesced: bool = False
    cache_origin: Optional[str] = None
    probe_ops: int = 0
    steps: Tuple[Tuple[str, float, float], ...] = ()

    @property
    def duration_ms(self) -> float:
        return self.finished_ms - self.started_ms

    @property
    def full_probe(self) -> bool:
        """True when this member actually ran every probe itself."""
        return not self.cache_hit and not self.coalesced


@dataclass
class FleetResult:
    """Outcome of a whole fleet inference run."""

    members: List[FleetMemberResult] = field(default_factory=list)
    makespan_ms: float = 0.0
    max_in_flight: Optional[int] = None

    def by_name(self, name: str) -> FleetMemberResult:
        for member in self.members:
            if member.name == name:
                return member
        raise KeyError(f"no fleet member named {name!r}")

    @property
    def models(self) -> Dict[str, InferredSwitchModel]:
        """Member name -> inferred model (insertion order = fleet order)."""
        return {member.name: member.model for member in self.members}

    @property
    def sequential_sum_ms(self) -> float:
        """Virtual time a one-at-a-time run of the same work would take."""
        return sum(member.duration_ms for member in self.members)

    @property
    def full_probe_runs(self) -> int:
        return sum(1 for member in self.members if member.full_probe)

    @property
    def cache_hits(self) -> int:
        return sum(1 for member in self.members if member.cache_hit)

    @property
    def coalesced_joins(self) -> int:
        return sum(1 for member in self.members if member.coalesced)

    @property
    def probe_ops(self) -> int:
        """Total deterministic probe ops over every full probe run."""
        return sum(member.probe_ops for member in self.members)

    @property
    def speedup(self) -> float:
        """Sequential-sum over makespan (1.0 when nothing overlapped)."""
        if self.makespan_ms <= 0.0:
            return 1.0
        return self.sequential_sum_ms / self.makespan_ms

    def summary(self) -> Dict[str, Any]:
        """A JSON-ready digest (CLI ``--json``, fleet provenance record)."""
        return {
            "members": len(self.members),
            "max_in_flight": self.max_in_flight,
            "makespan_ms": round(self.makespan_ms, 4),
            "sequential_sum_ms": round(self.sequential_sum_ms, 4),
            "speedup": round(self.speedup, 4),
            "full_probe_runs": self.full_probe_runs,
            "cache_hits": self.cache_hits,
            "coalesced_joins": self.coalesced_joins,
            "probe_ops": self.probe_ops,
            "per_member": [
                {
                    "name": member.name,
                    "profile": member.profile_name,
                    "started_ms": round(member.started_ms, 4),
                    "finished_ms": round(member.finished_ms, 4),
                    "source": (
                        f"cache:{member.cache_origin}"
                        if member.cache_hit
                        else (
                            f"coalesced:{member.cache_origin}"
                            if member.coalesced
                            else "probe"
                        )
                    ),
                }
                for member in self.members
            ],
        }


# -- the fleet engine ----------------------------------------------------------
class MemberDriver:
    """Steps one member's inference generator and meters its virtual cost.

    :class:`FleetInferenceEngine` steps one driver per member on its
    shared event queue; a driver can also be stepped on its own, as the
    probe-ledger tests do.
    """

    def __init__(
        self, member: FleetMember, engine: SwitchInferenceEngine, include_policy: bool
    ) -> None:
        self.member = member
        self.engine = engine
        self._steps = engine.infer_steps(include_policy=include_policy)
        self.model: Optional[InferredSwitchModel] = None
        self.step_log: List[Tuple[str, float, float]] = []

    def advance(self, fleet_now_ms: float) -> Tuple[Optional[str], float, bool]:
        """Run the next probe stage; returns (stage, elapsed_ms, done).

        ``stage`` is ``None`` on the final (finalisation) step, which
        also captures the assembled model from ``StopIteration.value``
        and probes nothing; a stage's elapsed time is its entry in the
        engine's ledger.
        """
        try:
            stage = next(self._steps)
        except StopIteration as stop:
            self.model = stop.value
            return None, 0.0, True
        elapsed = self.engine.ledger[-1].virtual_ms
        self.step_log.append((stage, fleet_now_ms, fleet_now_ms + elapsed))
        return stage, elapsed, False


class FleetInferenceEngine:
    """Concurrent, cache-aware inference over a fleet of switches.

    Args:
        members: fleet members (see :func:`build_fleet`), or bare
            profiles (each becomes a member named after the profile;
            names must end up unique).
        scores: shared Tango score database (fleet provenance and the
            model cache live here too).
        seed: base seed; member ``i`` defaults to ``seed + i``.
        max_in_flight: at most this many members probing concurrently
            (``None`` = unbounded).  Admission order is the member
            order, re-filled deterministically as members finish.
        use_cache: consult/populate the fingerprint model cache.
        drift_detector: detector used by :meth:`reprobe_member`
            (defaults to a fresh :class:`DriftDetector`).
        instruments: threaded through every member engine; fleet spans
            and events read the shared fleet clock.
        fault_injector / retry_policy: forwarded to every member engine
            (fault decision streams are per switch *name*, so members
            fault independently; retry holds play out on each member's
            local probe clocks and lengthen only that member's stages).
        remaining keyword knobs: forwarded to every member's
            :class:`SwitchInferenceEngine`.
    """

    def __init__(
        self,
        members: Sequence[Union[FleetMember, SwitchProfile]],
        scores: Optional[TangoScoreDatabase] = None,
        seed: int = 0,
        max_in_flight: Optional[int] = None,
        use_cache: bool = True,
        drift_detector: Optional[DriftDetector] = None,
        fault_injector=None,
        retry_policy=None,
        size_probe_max_rules: int = 8192,
        size_accuracy_target: float = 0.02,
        latency_batch_sizes: Tuple[int, ...] = (100, 400, 900, 1600),
        policy_cache_size: Optional[int] = None,
        instruments: Instruments = NULL_INSTRUMENTS,
    ) -> None:
        resolved: List[FleetMember] = []
        for item in members:
            if isinstance(item, FleetMember):
                resolved.append(item)
            else:
                resolved.append(FleetMember(name=item.name, profile=item))
        if not resolved:
            raise ValueError("a fleet needs at least one member")
        names = [member.name for member in resolved]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate fleet member names: {sorted(names)}")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
        self.members = resolved
        self.scores = scores if scores is not None else TangoScoreDatabase()
        self.seed = seed
        self.max_in_flight = max_in_flight
        self.use_cache = use_cache
        self.drift_detector = (
            drift_detector if drift_detector is not None else DriftDetector()
        )
        self.instruments = instruments
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self.engine_knobs: Dict[str, Any] = {
            "size_probe_max_rules": size_probe_max_rules,
            "size_accuracy_target": size_accuracy_target,
            "latency_batch_sizes": tuple(latency_batch_sizes),
            "policy_cache_size": policy_cache_size,
        }
        self.cache = ModelCache(self.scores, instruments=self.instruments)
        self._fingerprints: Dict[str, str] = {}

    # -- helpers ---------------------------------------------------------------
    def member(self, name: str) -> FleetMember:
        for candidate in self.members:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no fleet member named {name!r}")

    def fingerprint_for(self, member: FleetMember, include_policy: bool = True) -> str:
        """The cache fingerprint this member resolves to."""
        return profile_fingerprint(
            member.profile, include_policy=include_policy, **self.engine_knobs
        )

    def _member_seed(self, index: int) -> int:
        member = self.members[index]
        return member.seed if member.seed is not None else self.seed + index

    def _build_engine(self, index: int) -> SwitchInferenceEngine:
        member = self.members[index]
        return SwitchInferenceEngine(
            member.named_profile(),
            scores=self.scores,
            seed=self._member_seed(index),
            fault_injector=self.fault_injector,
            retry_policy=self.retry_policy,
            instruments=self.instruments,
            **self.engine_knobs,
        )

    def _coalescing_allowed(self) -> bool:
        """Whether same-fingerprint probes may single-flight coalesce.

        With an active fault plan, fault streams are per switch *name*:
        each member must run its own probes, so coalescing is off (cache
        lookups of clean models stay on).
        """
        if self.fault_injector is None:
            return True
        plan = getattr(self.fault_injector, "plan", None)
        return plan is not None and plan.is_noop()

    def _cache_store_allowed(self, model: InferredSwitchModel) -> bool:
        """Whether a freshly probed model may seed the fingerprint cache.

        Only clean runs qualify: a degraded or faulted model must not be
        replicated fleet-wide.
        """
        if model.confidence < 1.0:
            return False
        return self._coalescing_allowed()

    # -- the driver ------------------------------------------------------------
    def infer_fleet(self, include_policy: bool = True) -> FleetResult:
        """Infer every member; returns per-member models plus fleet stats.

        Virtual makespan is the shared fleet clock when the event queue
        drains: with an unbounded ``max_in_flight`` and an empty cache it
        approaches the slowest member's own probe time, and with a warm
        cache the cached members cost (virtual) nothing at all.
        """
        sim = Simulator()
        fleet_clock = sim.clock
        results: Dict[str, FleetMemberResult] = {}
        pending = deque(range(len(self.members)))
        in_flight = 0
        # fingerprint -> names of members waiting on an in-flight probe
        waiters: Dict[str, List[Tuple[FleetMember, float]]] = {}
        leaders: Dict[str, str] = {}
        coalesce_ok = self._coalescing_allowed()
        ins = self.instruments

        ins.counter("fleet.members").inc(len(self.members))

        def read_clock() -> float:
            return fleet_clock.now_ms

        def finish_member(result: FleetMemberResult) -> None:
            results[result.name] = result
            if ins.enabled:
                outcome = (
                    "cache"
                    if result.cache_hit
                    else ("coalesced" if result.coalesced else "probe")
                )
                ins.fleet_member_done(
                    result.name, outcome, result.duration_ms, clock=read_clock
                )

        def complete_from_cache(
            member: FleetMember,
            entry: CachedModel,
            started_ms: float,
            fingerprint: str,
            coalesced: bool,
        ) -> None:
            now = fleet_clock.now_ms
            model = entry.model.clone_as(member.name)
            self.scores.put(
                member.name,
                "switch_model",
                model,
                recorded_at_ms=now,
                source=(
                    f"fleet_coalesced:{entry.origin}"
                    if coalesced
                    else f"fleet_cache:{entry.origin}"
                ),
            )
            finish_member(
                FleetMemberResult(
                    name=member.name,
                    profile_name=member.profile.name,
                    fingerprint=fingerprint,
                    model=model,
                    started_ms=started_ms,
                    finished_ms=now,
                    cache_hit=not coalesced,
                    coalesced=coalesced,
                    cache_origin=entry.origin,
                )
            )

        def complete_probe(
            driver: MemberDriver, started_ms: float, fingerprint: str
        ) -> None:
            nonlocal in_flight
            now = fleet_clock.now_ms
            assert driver.model is not None
            stored: Optional[CachedModel] = None
            if self.use_cache and self._cache_store_allowed(driver.model):
                stored = self.cache.store(
                    fingerprint, driver.model, driver.member.name, recorded_at_ms=now
                )
            self._fingerprints[driver.member.name] = fingerprint
            ins.counter("fleet.full_probes").inc()
            finish_member(
                FleetMemberResult(
                    name=driver.member.name,
                    profile_name=driver.member.profile.name,
                    fingerprint=fingerprint,
                    model=driver.model,
                    started_ms=started_ms,
                    finished_ms=now,
                    cache_hit=False,
                    probe_ops=driver.engine.probe_ops(),
                    steps=tuple(driver.step_log),
                )
            )
            leaders.pop(fingerprint, None)
            joined = waiters.pop(fingerprint, [])
            if joined:
                entry = stored
                if entry is None:
                    entry = CachedModel(
                        fingerprint=fingerprint,
                        model=driver.model,
                        origin=driver.member.name,
                        recorded_at_ms=now,
                    )
                for waiting_member, waiting_started in joined:
                    ins.counter("fleet.coalesced_joins").inc()
                    complete_from_cache(
                        waiting_member,
                        entry,
                        waiting_started,
                        fingerprint,
                        coalesced=True,
                    )
            in_flight -= 1
            admit()

        def step(driver: MemberDriver, started_ms: float, fingerprint: str) -> None:
            stage, elapsed, done = driver.advance(fleet_clock.now_ms)
            if ins.enabled and stage is not None:
                ins.fleet_stage_done(
                    driver.member.name, stage, elapsed, clock=read_clock
                )
            if done:
                sim.schedule(
                    elapsed, lambda: complete_probe(driver, started_ms, fingerprint)
                )
            else:
                sim.schedule(
                    elapsed, lambda: step(driver, started_ms, fingerprint)
                )

        def start_member(index: int) -> None:
            nonlocal in_flight
            member = self.members[index]
            started_ms = fleet_clock.now_ms
            fingerprint = self.fingerprint_for(member, include_policy)
            self._fingerprints[member.name] = fingerprint
            ins.event(
                "fleet.member_start",
                category="fleet",
                clock=read_clock,
                switch=member.name,
                profile=member.profile.name,
            )
            if self.use_cache:
                entry = self.cache.lookup(fingerprint)
                if entry is not None:
                    sim.call_soon(
                        lambda: complete_from_cache(
                            member, entry, started_ms, fingerprint, coalesced=False
                        )
                    )
                    return
                if coalesce_ok:
                    if fingerprint in leaders:
                        # Single-flight: join the in-flight probe of an
                        # identical switch instead of duplicating it.
                        waiters.setdefault(fingerprint, []).append(
                            (member, started_ms)
                        )
                        return
                    leaders[fingerprint] = member.name
            in_flight += 1
            driver = MemberDriver(member, self._build_engine(index), include_policy)
            sim.call_soon(lambda: step(driver, started_ms, fingerprint))

        def admit() -> None:
            # Cache hits and coalesced joins occupy no probe slot, so
            # the loop keeps draining past them until a slot fills.
            while pending and (
                self.max_in_flight is None or in_flight < self.max_in_flight
            ):
                start_member(pending.popleft())

        with ins.span(
            "fleet.infer",
            category="fleet",
            clock=read_clock,
            members=len(self.members),
            max_in_flight=self.max_in_flight,
        ) as span:
            # Cadence sampling rides the fleet's own event queue; the
            # sampler is a pure read and re-arms only while workload
            # events remain, so the queue still drains and event
            # outcomes are untouched.
            ins.bind_simulator(sim)
            admit()
            sim.run()
            # The makespan is the workload frontier: the last member
            # finish, which is when a bare run's queue drains, and which
            # a telemetry sampler's final wake-up may overshoot.
            makespan = max(result.finished_ms for result in results.values())
            ins.finish(makespan)
            span.set(
                makespan_ms=makespan,
                full_probes=sum(1 for r in results.values() if r.full_probe),
                cache_hits=sum(1 for r in results.values() if r.cache_hit),
            )

        ordered = [results[member.name] for member in self.members]
        result = FleetResult(
            members=ordered,
            makespan_ms=makespan,
            max_in_flight=self.max_in_flight,
        )
        ins.gauge("fleet.makespan_ms").set(makespan)
        self.scores.put(
            FLEET_DB_SWITCH,
            "fleet_run",
            result.summary(),
            recorded_at_ms=makespan,
            source="fleet_engine",
            members=len(self.members),
        )
        return result

    # -- drift-driven invalidation ---------------------------------------------
    def reprobe_member(
        self, name: str, include_policy: bool = True
    ) -> Tuple[InferredSwitchModel, List[DriftFinding]]:
        """Freshly probe one member and drift-check its cached model.

        Runs the member's full inference sequentially (no cache), then
        compares the result against the cached entry for the member's
        fingerprint with this engine's :class:`DriftDetector`.  Drift
        findings invalidate the stale cache entry -- the next
        :meth:`infer_fleet` re-probes switches of that fingerprint while
        every other fingerprint stays cached.  Returns the fresh model
        and the findings (empty = cache still valid).
        """
        member = self.member(name)
        index = self.members.index(member)
        fingerprint = self.fingerprint_for(member, include_policy)
        model = self._build_engine(index).infer(include_policy=include_policy)
        findings = self.cache.invalidate_if_drifted(
            fingerprint, model, detector=self.drift_detector
        )
        if findings:
            self.instruments.event(
                "fleet.cache_invalidated",
                category="fleet",
                switch=name,
                findings=len(findings),
            )
        return model, findings


__all__ = [
    "FLEET_DB_SWITCH",
    "MODEL_CACHE_METRIC",
    "CachedModel",
    "FleetInferenceEngine",
    "FleetMember",
    "FleetMemberResult",
    "FleetResult",
    "MemberDriver",
    "ModelCache",
    "build_fleet",
    "profile_fingerprint",
]
