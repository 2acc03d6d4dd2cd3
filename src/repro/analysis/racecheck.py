"""Virtual-time race detector and determinism sanitizer.

The whole reproduction leans on one ordering rule: same-virtual-time
events fire in the event queue's ``(time, sequence)`` insertion order.
That tie-break is an *artifact of admission order*: reorder the fleet's
members or change ``--max-in-flight`` and the same-time events of
different members get different sequence numbers.  Any pair of
shared-state accesses whose outcome depends on the tie-break is
therefore latent nondeterminism, and a fleet experiment that varies the
admission order would measure the tie-break instead of the workload.

This module certifies which accesses are independent of admission
order:

* **Access-logging sanitizer proxies** wrap the shared mutable state a
  fleet run touches — :class:`~repro.core.scores.TangoScoreDatabase`
  (:class:`SanitizedScoreDatabase`), the fleet
  :class:`~repro.core.fleet.ModelCache` (:class:`SanitizedModelCache`),
  and the :class:`~repro.obs.metrics.MetricsRegistry`
  (:class:`SanitizedMetricsRegistry`).  Every read/write is tagged with
  the executing event's ``(time_ms, sequence)`` and the owning fleet
  member.
* **Causal provenance** comes from
  :class:`~repro.sim.events.ProvenanceRecorder`: each event knows which
  event scheduled it, giving the happens-before skeleton.
* :func:`check_races` combines the two: two accesses to the same
  location at the same virtual time, from different events with no
  happens-before path between them, where at least one is a
  non-commutative write, are reported as **TNG040** with the full
  access trace.

Commutativity matters: counter increments and histogram observations
from same-time events are order-independent, so they never race with
each other; a gauge ``set`` (last-writer-wins) or a TangoDB ``put`` is
order-dependent and does.

Accesses made outside any event (straight-line setup/teardown around
``sim.run()``) execute in program order under every admission order, so
they are never part of a race.

Run it end to end with ``tango-probe infer --fleet N --sanitize``; the
deliberately racy regression fixture (:func:`run_racy_fixture`) pins the
detector's positive side, and :func:`repro.perf.harness.verify_noop`
guarantees a sanitized run never perturbs the fleet's results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import DiagnosticReport, Severity
from repro.core.scores import ScoreKey, ScoreRecord, TangoScoreDatabase
from repro.sim.clock import VirtualClock
from repro.sim.events import ProvenanceRecorder, Simulator


class AccessKind(enum.Enum):
    """Whether a logged access observed or mutated shared state."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class Access:
    """One logged shared-state access.

    Args:
        kind: READ or WRITE.
        location: canonical name of the state touched, e.g.
            ``db:s1/switch_model`` or ``metric:fleet.cache_hits``.
        time_ms: virtual time of the executing event (0.0 in root code).
        sequence: the executing event's queue sequence, or ``None`` for
            accesses made outside any event (root context).
        owner: the fleet member (or component) on whose behalf the
            access ran, when known.
        op: the concrete operation (``put``, ``get``, ``inc``, ...).
        detail: free-form extra context for the trace line.
        commutative: True for order-independent writes (counter
            increments, histogram observations); same-time commutative
            writes never race with each other.
    """

    kind: AccessKind
    location: str
    time_ms: float
    sequence: Optional[int]
    owner: Optional[str] = None
    op: str = ""
    detail: str = ""
    commutative: bool = False

    def format(self) -> str:
        """One trace line: ``t=5.000ms seq=3 owner=b write put db:... ``."""
        seq = "root" if self.sequence is None else str(self.sequence)
        owner = self.owner if self.owner else "-"
        note = f" ({self.detail})" if self.detail else ""
        flavor = " commutative" if self.commutative else ""
        return (
            f"t={self.time_ms:.3f}ms seq={seq} owner={owner} "
            f"{self.kind.value}{flavor} {self.op} {self.location}{note}"
        )


class AccessLog:
    """An append-only, insertion-ordered log of sanitized accesses."""

    def __init__(self) -> None:
        self.accesses: List[Access] = []

    def record(self, access: Access) -> Access:
        self.accesses.append(access)
        return access

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self):
        return iter(self.accesses)

    def for_location(self, location: str) -> List[Access]:
        return [a for a in self.accesses if a.location == location]


def db_location(switch: str, metric: str, params: Tuple[Tuple[str, Any], ...]) -> str:
    """Canonical location string for one TangoDB record."""
    if not params:
        return f"db:{switch}/{metric}"
    rendered = ",".join(f"{k}={v}" for k, v in params)
    return f"db:{switch}/{metric}?{rendered}"


def metric_location(name: str, labels: Dict[str, Any]) -> str:
    """Canonical location string for one metric handle."""
    if not labels:
        return f"metric:{name}"
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"metric:{name}{{{rendered}}}"


# -- sanitizer proxies ---------------------------------------------------------
class SanitizedScoreDatabase:
    """Access-logging proxy over a :class:`TangoScoreDatabase`.

    Presents the full score-database interface and delegates every call
    to ``inner``, logging each keyed operation against the sanitizer it
    was built by.  ``put``/``remove`` are non-commutative writes; the
    lookups are reads.  Whole-switch scans log a wildcard read
    (``db:<switch>/*``) that conflicts with any write under that switch.
    """

    def __init__(self, inner: TangoScoreDatabase, sanitizer: "RaceSanitizer") -> None:
        self.inner = inner
        self._sanitizer = sanitizer

    def _log(
        self, kind: AccessKind, location: str, op: str, detail: str = ""
    ) -> None:
        self._sanitizer.record(kind, location, op=op, detail=detail)

    def put(
        self,
        switch: str,
        metric: str,
        value: Any,
        recorded_at_ms: float = 0.0,
        source: Optional[str] = None,
        **params: Any,
    ) -> ScoreKey:
        key = ScoreKey.make(switch, metric, **params)
        self._log(
            AccessKind.WRITE,
            db_location(switch, metric, key.params),
            "put",
            detail=source if source else "",
        )
        return self.inner.put(
            switch,
            metric,
            value,
            recorded_at_ms=recorded_at_ms,
            source=source,
            **params,
        )

    def remove(self, switch: str, metric: str, **params: Any) -> bool:
        key = ScoreKey.make(switch, metric, **params)
        self._log(
            AccessKind.WRITE, db_location(switch, metric, key.params), "remove"
        )
        return self.inner.remove(switch, metric, **params)

    def get(self, switch: str, metric: str, default: Any = None, **params: Any) -> Any:
        key = ScoreKey.make(switch, metric, **params)
        value = self.inner.get(switch, metric, default=default, **params)
        self._log(
            AccessKind.READ,
            db_location(switch, metric, key.params),
            "get",
            detail="miss" if value is default else "hit",
        )
        return value

    def get_record(
        self, switch: str, metric: str, **params: Any
    ) -> Optional[ScoreRecord]:
        key = ScoreKey.make(switch, metric, **params)
        self._log(
            AccessKind.READ, db_location(switch, metric, key.params), "get_record"
        )
        return self.inner.get_record(switch, metric, **params)

    def has(self, switch: str, metric: str, **params: Any) -> bool:
        key = ScoreKey.make(switch, metric, **params)
        self._log(AccessKind.READ, db_location(switch, metric, key.params), "has")
        return self.inner.has(switch, metric, **params)

    def records_for_switch(self, switch: str) -> List[ScoreRecord]:
        self._log(AccessKind.READ, f"db:{switch}/*", "records_for_switch")
        return self.inner.records_for_switch(switch)

    def metrics_for_switch(self, switch: str) -> List[str]:
        self._log(AccessKind.READ, f"db:{switch}/*", "metrics_for_switch")
        return self.inner.metrics_for_switch(switch)

    def records(self) -> List[ScoreRecord]:
        return self.inner.records()

    def switches(self) -> List[str]:
        return self.inner.switches()

    def __len__(self) -> int:
        return len(self.inner)


class SanitizedModelCache:
    """Access-logging proxy over a fleet :class:`ModelCache`.

    Logs cache operations against the *database location* of the cached
    entry (``db:__fleet__/model_cache?fingerprint=...``), so a
    cache-level store and a raw TangoDB access to the same entry land on
    the same location and race-check against each other.
    """

    def __init__(self, inner: Any, sanitizer: "RaceSanitizer") -> None:
        from repro.core.fleet import FLEET_DB_SWITCH, MODEL_CACHE_METRIC

        self.inner = inner
        self._sanitizer = sanitizer
        self._switch = FLEET_DB_SWITCH
        self._metric = MODEL_CACHE_METRIC

    def _location(self, fingerprint: str) -> str:
        return db_location(
            self._switch, self._metric, (("fingerprint", fingerprint),)
        )

    def lookup(self, fingerprint: str):
        entry = self.inner.lookup(fingerprint)
        self._sanitizer.record(
            AccessKind.READ,
            self._location(fingerprint),
            op="cache.lookup",
            detail="hit" if entry is not None else "miss",
        )
        return entry

    def peek(self, fingerprint: str):
        entry = self.inner.peek(fingerprint)
        self._sanitizer.record(
            AccessKind.READ, self._location(fingerprint), op="cache.peek"
        )
        return entry

    def store(self, fingerprint: str, model, origin: str, recorded_at_ms: float = 0.0):
        self._sanitizer.record(
            AccessKind.WRITE,
            self._location(fingerprint),
            op="cache.store",
            detail=f"origin={origin}",
        )
        return self.inner.store(
            fingerprint, model, origin, recorded_at_ms=recorded_at_ms
        )

    def invalidate(self, fingerprint: str) -> bool:
        self._sanitizer.record(
            AccessKind.WRITE, self._location(fingerprint), op="cache.invalidate"
        )
        return self.inner.invalidate(fingerprint)

    def invalidate_if_drifted(self, fingerprint: str, fresh, detector=None):
        self._sanitizer.record(
            AccessKind.WRITE,
            self._location(fingerprint),
            op="cache.invalidate_if_drifted",
        )
        return self.inner.invalidate_if_drifted(fingerprint, fresh, detector=detector)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class _SanitizedCounter:
    """Counter handle logging commutative writes (order-independent)."""

    def __init__(self, inner, location: str, sanitizer: "RaceSanitizer") -> None:
        self._inner = inner
        self._location = location
        self._sanitizer = sanitizer

    def inc(self, amount: float = 1.0) -> None:
        self._sanitizer.record(
            AccessKind.WRITE, self._location, op="inc", commutative=True
        )
        self._inner.inc(amount)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class _SanitizedGauge:
    """Gauge handle: ``set`` is a last-writer-wins (racy) write."""

    def __init__(self, inner, location: str, sanitizer: "RaceSanitizer") -> None:
        self._inner = inner
        self._location = location
        self._sanitizer = sanitizer

    def set(self, value: float) -> None:
        self._sanitizer.record(AccessKind.WRITE, self._location, op="set")
        self._inner.set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._sanitizer.record(
            AccessKind.WRITE, self._location, op="inc", commutative=True
        )
        self._inner.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._sanitizer.record(
            AccessKind.WRITE, self._location, op="dec", commutative=True
        )
        self._inner.dec(amount)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class _SanitizedHistogram:
    """Histogram handle logging commutative observations."""

    def __init__(self, inner, location: str, sanitizer: "RaceSanitizer") -> None:
        self._inner = inner
        self._location = location
        self._sanitizer = sanitizer

    def observe(self, value: float) -> None:
        self._sanitizer.record(
            AccessKind.WRITE, self._location, op="observe", commutative=True
        )
        self._inner.observe(value)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class SanitizedMetricsRegistry:
    """Access-logging proxy over metric handle lookups.

    ``inner`` is a :class:`~repro.obs.MetricsRegistry` or an
    :class:`~repro.obs.Instruments` handle (whose lookups return no-op
    handles when no registry is attached, so accesses are logged even
    with metrics off).  Handles are wrapped once per ``(name, labels)``
    so hot paths that cache the handle keep working; counter/histogram
    updates log as commutative writes, ``gauge.set`` as a
    non-commutative one.
    """

    def __init__(self, inner, sanitizer: "RaceSanitizer") -> None:
        self.inner = inner
        self._sanitizer = sanitizer
        self._handles: Dict[Tuple[str, str, str], Any] = {}

    def _wrap(self, flavor: str, name: str, handle, labels: Dict[str, Any]):
        location = metric_location(name, labels)
        key = (flavor, name, location)
        wrapped = self._handles.get(key)
        if wrapped is None:
            cls = {
                "counter": _SanitizedCounter,
                "gauge": _SanitizedGauge,
                "histogram": _SanitizedHistogram,
            }[flavor]
            wrapped = self._handles[key] = cls(handle, location, self._sanitizer)
        return wrapped

    def counter(self, name: str, **labels: Any):
        return self._wrap("counter", name, self.inner.counter(name, **labels), labels)

    def gauge(self, name: str, **labels: Any):
        return self._wrap("gauge", name, self.inner.gauge(name, **labels), labels)

    def histogram(self, name: str, buckets=None, **labels: Any):
        return self._wrap(
            "histogram",
            name,
            self.inner.histogram(name, buckets=buckets, **labels),
            labels,
        )

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


# -- the sanitizer -------------------------------------------------------------
class RaceSanitizer:
    """Binds the access log, provenance recorder, and owner context.

    Typical use (what ``tango-probe infer --sanitize`` does)::

        sanitizer = RaceSanitizer()
        engine = FleetInferenceEngine(members, seed=0, sanitizer=sanitizer)
        engine.infer_fleet()
        result = sanitizer.check()
        if result.findings:
            print(result.report.format())

    The sanitizer never changes what runs: proxies delegate every call
    unchanged and provenance rides on ``compare=False`` event fields, so
    sanitized output is byte-identical to a bare run
    (:func:`repro.perf.harness.verify_noop` asserts exactly that).
    """

    def __init__(self) -> None:
        self.log = AccessLog()
        self.provenance = ProvenanceRecorder()
        self._sim: Optional[Simulator] = None
        self._owner: Optional[str] = None

    # -- wiring ----------------------------------------------------------------
    def make_simulator(self, clock: Optional[VirtualClock] = None) -> Simulator:
        """A simulator whose events carry provenance and access context."""
        self._sim = Simulator(clock=clock, provenance=self.provenance)
        return self._sim

    def set_owner(self, owner: Optional[str]) -> None:
        """Attribute subsequent accesses to a fleet member (or component)."""
        self._owner = owner

    def wrap_scores(self, scores: TangoScoreDatabase) -> SanitizedScoreDatabase:
        return SanitizedScoreDatabase(scores, self)

    def wrap_metrics(self, metrics) -> SanitizedMetricsRegistry:
        return SanitizedMetricsRegistry(metrics, self)

    def wrap_cache(self, cache) -> SanitizedModelCache:
        return SanitizedModelCache(cache, self)

    # -- recording -------------------------------------------------------------
    def record(
        self,
        kind: AccessKind,
        location: str,
        op: str = "",
        detail: str = "",
        commutative: bool = False,
    ) -> Access:
        """Log one access tagged with the current event and owner."""
        event = self._sim.current_event if self._sim is not None else None
        if event is not None:
            time_ms = event.time_ms
            sequence: Optional[int] = event.sequence
        else:
            time_ms = self._sim.clock.now_ms if self._sim is not None else 0.0
            sequence = None
        return self.log.record(
            Access(
                kind=kind,
                location=location,
                time_ms=time_ms,
                sequence=sequence,
                owner=self._owner,
                op=op,
                detail=detail,
                commutative=commutative,
            )
        )

    # -- analysis --------------------------------------------------------------
    def check(self, report: Optional[DiagnosticReport] = None) -> "RaceCheckResult":
        """Build the happens-before graph and report TNG040 findings."""
        return check_races(self.log, self.provenance, report=report)


# -- the detector --------------------------------------------------------------
def _conflicts(a: Access, b: Access) -> bool:
    """True when the pair is order-dependent (ignoring happens-before)."""
    if a.sequence == b.sequence:
        return False  # same event: program order
    if a.kind is not AccessKind.WRITE and b.kind is not AccessKind.WRITE:
        return False  # read/read never conflicts
    if a.commutative and b.commutative:
        return False  # order-independent updates
    return True


def _representatives(group: List[Access]) -> List[Access]:
    """The first access of each (event, kind, commutative) class, in log order.

    Whether two accesses conflict depends only on their events and
    classes, and the first conflicting pair of two events in log order
    is a pair of class-firsts.  So comparing representatives flags the
    same pairs, with the same accesses and in the same order, as
    comparing the whole group -- without pairing the thousands of
    accesses one event can make to one location with each other.
    """
    seen: Dict[Tuple[Optional[int], AccessKind, bool], None] = {}
    reps: List[Access] = []
    for access in group:
        key = (access.sequence, access.kind, access.commutative)
        if key not in seen:
            seen[key] = None
            reps.append(access)
    return reps


@dataclass
class RaceCheckResult:
    """Outcome of one race check: the report plus run statistics."""

    report: DiagnosticReport
    accesses: int = 0
    events: int = 0
    locations: int = 0

    @property
    def findings(self) -> List:
        return self.report.by_code("TNG040")

    def summary(self) -> Dict[str, Any]:
        """A JSON-ready digest (CLI ``--json``, race-smoke artifact)."""
        return {
            "accesses": self.accesses,
            "events": self.events,
            "locations": self.locations,
            "findings": len(self.findings),
            "diagnostics": self.report.to_dicts(),
        }


def check_races(
    log: AccessLog,
    provenance: ProvenanceRecorder,
    report: Optional[DiagnosticReport] = None,
    max_findings: int = 100,
) -> RaceCheckResult:
    """Report every tie-break race in an access log as TNG040.

    Two accesses race when they touch the same location at the same
    virtual time from different events with no happens-before path
    (scheduling ancestry, per ``provenance``) between them, and at least
    one is a non-commutative write.  Root-context accesses (made outside
    any event) run in program order under any admission order and never
    race.
    Each finding carries the racy location's full access trace.
    """
    report = report if report is not None else DiagnosticReport()
    # time -> location -> accesses, insertion-ordered at every level.
    buckets: Dict[float, Dict[str, List[Access]]] = {}
    # time -> wildcard (whole-switch) reads in that instant.
    wildcards: Dict[float, List[Access]] = {}
    event_ids: Dict[int, None] = {}
    locations: Dict[str, None] = {}
    for access in log:
        locations[access.location] = None
        if access.sequence is None:
            continue
        event_ids[access.sequence] = None
        if access.location.endswith("/*"):
            wildcards.setdefault(access.time_ms, []).append(access)
        else:
            buckets.setdefault(access.time_ms, {}).setdefault(
                access.location, []
            ).append(access)

    seen_pairs: Dict[Tuple[str, float, int, int], None] = {}
    findings = 0

    def flag(location: str, time_ms: float, a: Access, b: Access, group: List[Access]):
        nonlocal findings
        lo, hi = sorted((a.sequence, b.sequence))  # type: ignore[type-var]
        pair = (location, time_ms, lo, hi)
        if pair in seen_pairs:
            return
        seen_pairs[pair] = None
        if provenance.ordered(a.sequence, b.sequence):  # type: ignore[arg-type]
            return
        if findings >= max_findings:
            return
        findings += 1
        owners = " vs ".join(
            f"{x.owner or '-'}:{x.op or x.kind.value}" for x in (a, b)
        )
        report.add(
            "TNG040",
            Severity.ERROR,
            f"tie-break race on {location}: events {lo} and {hi} conflict at "
            f"t={time_ms:.3f}ms with no happens-before edge ({owners})",
            location=f"{location} @ t={time_ms:.3f}ms",
            hint="order the accesses through the event queue (schedule one "
            "from the other) or make the update commutative",
            trace=tuple(x.format() for x in group),
        )

    for time_ms in sorted(set(buckets) | set(wildcards)):
        groups = buckets.get(time_ms, {})
        representatives = {
            location: _representatives(group) for location, group in groups.items()
        }
        for location in sorted(groups):
            reps = representatives[location]
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    if _conflicts(reps[i], reps[j]):
                        flag(location, time_ms, reps[i], reps[j], groups[location])
        # Whole-switch scans conflict with any same-time write under
        # that switch's prefix.
        for scan in wildcards.get(time_ms, []):
            prefix = scan.location[:-1]  # "db:<switch>/"
            for location in sorted(groups):
                if not location.startswith(prefix):
                    continue
                for other in representatives[location]:
                    if other.kind is AccessKind.WRITE and _conflicts(scan, other):
                        flag(
                            location,
                            time_ms,
                            scan,
                            other,
                            groups[location] + [scan],
                        )

    return RaceCheckResult(
        report=report,
        accesses=len(log),
        events=len(event_ids),
        locations=len(locations),
    )


# -- fleet integration helpers -------------------------------------------------
def run_racy_fixture(seed: int = 0) -> RaceCheckResult:
    """The seeded regression fixture: a deliberately racy two-member fleet.

    Two members of the same profile fingerprint are driven *without*
    single-flight coalescing: member ``racy-a`` finishes its probe and
    stores the model into the shared cache at the same virtual instant
    member ``racy-b`` looks the fingerprint up, both scheduled
    independently from root — so whether ``racy-b`` hits or misses the
    cache depends purely on the queue's sequence tie-break.  TNG040 must
    flag exactly that store/lookup pair.

    The fixture also includes the safe counterpart — a same-time store
    and lookup where the store's event *schedules* the lookup — which
    must stay silent, pinning both sides of the detector.
    """
    from repro.core.fleet import ModelCache
    from repro.core.inference import InferredSwitchModel

    sanitizer = RaceSanitizer()
    sim = sanitizer.make_simulator()
    cache = sanitizer.wrap_cache(ModelCache(TangoScoreDatabase()))
    fingerprint = f"racy-fixture-{seed}"
    model = InferredSwitchModel(name="racy-a")

    def store_a() -> None:
        sanitizer.set_owner("racy-a")
        cache.store(fingerprint, model, origin="racy-a", recorded_at_ms=5.0)

    def lookup_b() -> None:
        sanitizer.set_owner("racy-b")
        cache.lookup(fingerprint)

    # The race: store and lookup land at t=5.0 from independent root
    # schedules — no happens-before edge, outcome decided by sequence.
    sim.schedule_at(5.0, store_a)
    sim.schedule_at(5.0, lookup_b)

    # The safe twin at t=9.0: the store's own event schedules the
    # same-instant lookup, so provenance orders them (no finding).
    safe_fingerprint = f"safe-fixture-{seed}"

    def safe_lookup() -> None:
        sanitizer.set_owner("safe-b")
        cache.lookup(safe_fingerprint)

    def safe_store() -> None:
        sanitizer.set_owner("safe-a")
        cache.store(safe_fingerprint, model, origin="safe-a", recorded_at_ms=9.0)
        sim.call_soon(safe_lookup)

    sim.schedule_at(9.0, safe_store)
    sim.run()
    return sanitizer.check()


__all__ = [
    "Access",
    "AccessKind",
    "AccessLog",
    "RaceCheckResult",
    "RaceSanitizer",
    "SanitizedMetricsRegistry",
    "SanitizedModelCache",
    "SanitizedScoreDatabase",
    "check_races",
    "db_location",
    "metric_location",
    "run_racy_fixture",
]
