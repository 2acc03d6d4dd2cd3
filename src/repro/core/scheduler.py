"""The Tango scheduler (paper Section 6, Algorithm 3) and its extensions.

The basic scheduler repeatedly extracts the *independent set* of the
switch-request DAG and asks the pattern oracle for the best issue order:
every registered rewrite pattern scores the set (e.g. ``-(10*|DEL| +
1*|MOD| + 20*|ADD|^2)``), the highest-scoring pattern wins, and the
requests are issued in that pattern's order -- deletions first, then
modifications, then additions sorted by priority in the cheap direction
for this switch.

Three extensions from the paper are implemented, each overriding one
decision of the basic scheduler's single scheduling loop:

* **Non-greedy prefix batching** (:class:`PrefixTangoScheduler`) picks
  the batch: instead of always issuing the whole independent set, it
  evaluates issuing only a prefix first (whose completion unlocks new
  requests and thus larger, better-ordered future batches), picking the
  alternative with the better estimated completion time.
* **Deadlines** (:class:`DeadlineAwareTangoScheduler`) reorder the
  batch: requests whose ``install_by`` the pattern order would
  overshoot go first.
* **Concurrent dependent dispatch** (:class:`ConcurrentTangoScheduler`)
  moves a request's start: when request B depends on request A on a
  *different* switch, B can be released before A completes provided B's
  estimated finish trails A's by a guard interval (weak consistency).

Static verification is opt-in: call
:meth:`BasicTangoScheduler.precheck` before ``schedule``.

**Fault tolerance.**  Every scheduler survives injected transient faults
(:mod:`repro.faults`): a request whose ``issue`` raises a
:class:`~repro.openflow.errors.TransientFaultError` is *deferred* — it
is simply not marked done, so it stays in the ``RequestDag`` and
reappears in a later independent set, where the batch is re-planned
around it.  Disconnect faults carry a reconnect time which becomes the
request's earliest retry instant, so retries never spin inside an
outage window.  :class:`ScheduleResult` splits deadline misses into
"missed due to fault" (the request itself was deferred at least once)
versus "missed due to schedule".

**Determinism.**  Scheduling consumes no wall clock and no randomness of
its own: all timing flows from the switches' virtual clocks and any
fault decisions from the injector's seeded streams, so a (DAG, executor,
fault plan, seed) tuple replays byte-for-byte.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.patterns import RewritePattern, TangoPatternDatabase
from repro.core.planner import TailCostPlanner
from repro.core.requests import ReadySimulation, RequestDag, SwitchRequest
from repro.obs import NULL_INSTRUMENTS, Instruments
from repro.openflow.channel import ControlChannel
from repro.openflow.errors import TransientFaultError
from repro.openflow.messages import FlowModCommand

if TYPE_CHECKING:  # pragma: no cover - typing-only import, avoids a package cycle
    from repro.faults.injector import FaultInjector


@dataclass
class IssueRecord:
    """Timing of one issued request."""

    request: SwitchRequest
    started_ms: float
    finished_ms: float


@dataclass
class ScheduleResult:
    """Outcome of scheduling one request DAG.

    ``deadline_misses`` is the total;
    ``deadline_misses_fault`` counts misses of requests that were
    deferred by at least one injected transient fault, and
    ``deadline_misses_schedule`` the remainder (pure scheduling misses).
    """

    makespan_ms: float
    records: List[IssueRecord] = field(default_factory=list)
    rounds: int = 0
    pattern_choices: List[str] = field(default_factory=list)
    deadline_misses: int = 0
    fault_retries: int = 0
    faulted_request_ids: Set[int] = field(default_factory=set)
    deadline_misses_fault: int = 0
    deadline_misses_schedule: int = 0

    @property
    def total_requests(self) -> int:
        return len(self.records)


class NetworkExecutor:
    """Issues switch requests against simulated switches.

    Each switch runs on its own virtual clock; the executor aligns all
    clocks to a common epoch when created (or on :meth:`reset_epoch`), so
    finish times are comparable across switches and dependent requests on
    different switches serialise correctly.  Every issued request is
    reported to ``instruments`` (:meth:`Instruments.request_issued`).
    """

    def __init__(
        self,
        channels: Dict[str, ControlChannel],
        fault_injector: Optional["FaultInjector"] = None,
        instruments: Instruments = NULL_INSTRUMENTS,
    ) -> None:
        if not channels:
            raise ValueError("need at least one switch channel")
        self.fault_injector = fault_injector
        if fault_injector is not None:
            channels = fault_injector.wrap_channels(channels)
        self.channels = dict(channels)
        self.epoch_ms = 0.0
        self.instruments = instruments
        # Declared up front so every command's series exports, even at 0.
        for command in FlowModCommand:
            instruments.counter("executor.requests_issued", command=command.value)
        instruments.histogram("executor.issue_ms")
        self.reset_epoch()

    def reset_epoch(self) -> None:
        """Align every switch clock to a common starting instant."""
        epoch = max(ch.clock.now_ms for ch in self.channels.values())
        for channel in self.channels.values():
            channel.clock.advance_to(epoch)
        self.epoch_ms = epoch

    def now_ms(self) -> float:
        """The executor's virtual-time frontier (max over switch clocks)."""
        return max(ch.clock.now_ms for ch in self.channels.values())

    def switch_available_at(self, location: str) -> float:
        return self.channels[location].clock.now_ms

    def issue(self, request: SwitchRequest, not_before_ms: float = 0.0) -> IssueRecord:
        """Execute one request; the switch idles until ``not_before_ms``.

        Raises:
            KeyError: unknown switch location.
        """
        channel = self.channels[request.location]
        channel.clock.advance_to(max(channel.clock.now_ms, not_before_ms))
        started = channel.clock.now_ms
        channel.send_flow_mod(request.mod)
        finished = channel.clock.now_ms
        if self.instruments.enabled:
            self.instruments.request_issued(request, started, finished)
        return IssueRecord(
            request=request, started_ms=started, finished_ms=finished
        )


def count_commands(requests: Sequence[SwitchRequest]) -> Dict[FlowModCommand, int]:
    return Counter(request.command for request in requests)


class _OrderingOracle:
    """The paper's ``orderingTangoOracle``: pick the best rewrite pattern.

    ``choose`` is memoized per batch: lookahead schedulers re-score the
    same independent set many times while exploring prefix cuts, and the
    chosen pattern and sort *permutation* are a pure function of the
    batch's (id, command, priority) triples for a fixed pattern set.
    Only the pattern and permutation are cached — never the request
    objects themselves — so a hit from a different DAG whose ids happen
    to collide still orders the *caller's* requests, not stale ones.
    The cache is bounded (oldest entry evicted) and private to this
    oracle instance.
    """

    _CACHE_LIMIT = 4096

    def __init__(
        self,
        patterns: Sequence[RewritePattern],
        instruments: Instruments = NULL_INSTRUMENTS,
    ) -> None:
        if not patterns:
            raise ValueError("need at least one rewrite pattern")
        self.patterns = list(patterns)
        self._cache: Dict[tuple, Tuple[RewritePattern, Tuple[int, ...]]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._instruments = instruments
        self._m_calls = instruments.counter("scheduler.oracle_calls")
        self._m_scored = instruments.counter("scheduler.oracle_requests_scored")

    def note_incremental_order(self, scored: int) -> None:
        """Attribute ordering work done incrementally on the oracle's
        behalf (the tail-cost planner materialising ordered prefixes)."""
        if self._instruments.enabled:
            self._m_calls.inc()
            self._m_scored.inc(scored)

    def choose(
        self, requests: Sequence[SwitchRequest]
    ) -> Tuple[RewritePattern, List[SwitchRequest]]:
        if self._instruments.enabled:
            self._m_calls.inc()
            self._m_scored.inc(len(requests))
        key = tuple((r.request_id, r.command, r.priority) for r in requests)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            pattern, perm = cached
            return pattern, [requests[i] for i in perm]
        self.cache_misses += 1
        counts = count_commands(requests)
        best_pattern = max(self.patterns, key=lambda p: p.score_counts(counts))
        perm = tuple(
            sorted(
                range(len(requests)),
                key=lambda i: best_pattern.order_key(
                    requests[i].command, requests[i].priority
                )
                + (requests[i].request_id, i),
            )
        )
        if len(self._cache) >= self._CACHE_LIMIT:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = (best_pattern, perm)
        return best_pattern, [requests[i] for i in perm]


#: Estimates the duration (ms) of one request on its switch.
DurationEstimator = Callable[[SwitchRequest], float]


class _Batch(NamedTuple):
    """One round's plan.

    ``planned`` is what the batch span reports (its size and estimate)
    and what the round counts as requested; ``issue_order`` is the same
    requests in the order they are issued; ``attrs`` are the span's
    variant-specific attributes.
    """

    pattern: RewritePattern
    planned: List[SwitchRequest]
    issue_order: List[SwitchRequest]
    attrs: Dict[str, Any]


class BasicTangoScheduler:
    """Algorithm 3: greedy batches ordered by the pattern oracle.

    :meth:`schedule` is the one scheduling loop; each extension below
    overrides only the decision it adds: :meth:`_next_batch` (which
    requests form the round's batch and in what order),
    :meth:`_earliest_start` (when a request may start) and
    :meth:`_after_batch` (bookkeeping once the batch has landed).

    Args:
        executor: network executor bound to the target switches.
        patterns: rewrite patterns to score (defaults to the pattern
            database's registered set).
        pattern_db: optional shared pattern database.
        instruments: where batch spans, batch/request/oracle counters and
            the collector's batch stream go; spans are timestamped from
            the executor's virtual-time frontier.  Defaults to the
            executor's handle, so attaching once at the executor covers
            both.
    """

    #: Per-request duration estimate the variant plans with, if any;
    #: batch spans and :meth:`precheck` read it.
    estimate: Optional[DurationEstimator] = None
    #: Concurrent-dispatch guard interval (ms), if the variant has one.
    guard_ms: Optional[float] = None

    def __init__(
        self,
        executor: NetworkExecutor,
        patterns: Optional[Sequence[RewritePattern]] = None,
        pattern_db: Optional[TangoPatternDatabase] = None,
        instruments: Optional[Instruments] = None,
    ) -> None:
        self.executor = executor
        self.instruments = (
            instruments if instruments is not None else executor.instruments
        )
        if patterns is None:
            db = pattern_db if pattern_db is not None else TangoPatternDatabase()
            patterns = db.rewrite_patterns
        self.oracle = _OrderingOracle(patterns, instruments=self.instruments)
        name = type(self).__name__
        # Declared up front so each series exports, even at 0.
        for series in ("batches", "requests", "deadline_misses", "fault_retries"):
            self.instruments.counter(f"scheduler.{series}", scheduler=name)
        self._fault_holds: Dict[int, float] = {}
        self._fault_attempts: Dict[int, int] = {}

    # -- telemetry -------------------------------------------------------------
    def _batch_estimate_ms(self, ordered: Sequence[SwitchRequest]) -> Optional[float]:
        """Estimated batch makespan (per-switch serial), if this variant
        has an estimator."""
        estimate = self.estimate
        if estimate is None:
            return None
        per_switch: Dict[str, float] = defaultdict(float)
        for request in ordered:
            per_switch[request.location] += estimate(request)
        return max(per_switch.values(), default=0.0)

    def _open_batch(
        self,
        pattern_name: str,
        requests: Sequence[SwitchRequest],
        round_index: int,
        **attrs,
    ):
        """Open the batch's instrumentation (``None`` when disabled)."""
        if not self.instruments.enabled:
            return None
        return self.instruments.open_batch(
            type(self).__name__,
            pattern_name,
            len(requests),
            round_index,
            clock=self.executor.now_ms,
            estimate=lambda: self._batch_estimate_ms(requests),
            **attrs,
        )

    def _close_batch(self, batch, requested: int, records: Sequence[IssueRecord]) -> None:
        """Close it once ``records`` (this batch's issues) have landed."""
        if batch is not None:
            self.instruments.close_batch(
                batch,
                self.executor.now_ms(),
                requested,
                len(records),
                _count_deadline_misses(records, self.executor.epoch_ms),
            )

    # -- static verification ---------------------------------------------------
    def precheck(self, dag: RequestDag):
        """Statically verify ``dag``; call it before :meth:`schedule`.

        Runs :func:`repro.analysis.analyze_dag` with whatever knowledge
        this scheduler variant has (its ``estimate`` and ``guard_ms``).

        Returns:
            The :class:`~repro.analysis.DiagnosticReport`.

        Raises:
            repro.analysis.DiagnosticError: on any ERROR-level
                diagnostic (cycles, infeasible deadlines, ...).
        """
        from repro.analysis import analyze_dag

        report = analyze_dag(dag, estimate=self.estimate, guard_ms=self.guard_ms)
        report.raise_on_errors()
        return report

    # -- fault-tolerant issue path ---------------------------------------------
    #: Upper bound on transient-fault deferrals for a single request,
    #: guarding against a misconfigured injector (e.g. a disconnect
    #: window the workload can never outlive).
    MAX_FAULT_DEFERRALS = 64

    def _begin_schedule(self, dag: RequestDag) -> ScheduleResult:
        """Shared preamble: epoch reset and fault state."""
        self.executor.reset_epoch()
        self._fault_holds = {}
        self._fault_attempts = {}
        return ScheduleResult(makespan_ms=0.0)

    def _dep_finish(
        self, dag: RequestDag, request: SwitchRequest, finish_times: Dict[int, float]
    ) -> float:
        """Latest finish among the request's completed dependencies.

        Dependency-free requests anchor at the executor epoch so guard
        and deadline arithmetic stay on the executor timeline.
        """
        return max(
            (finish_times[p] for p in dag.predecessor_ids(request.request_id)),
            default=self.executor.epoch_ms,
        )

    #: A request's earliest start: as soon as its dependencies have
    #: finished (its switch serialises it after the switch's earlier work).
    _earliest_start = _dep_finish

    def _issue_or_defer(
        self,
        dag: RequestDag,
        request: SwitchRequest,
        not_before_ms: float,
        finish_times: Dict[int, float],
        result: ScheduleResult,
    ) -> Optional[IssueRecord]:
        """Issue one request; on a transient fault defer it instead.

        A deferred request is *not* marked done: it stays in the DAG and
        is re-planned as part of a later independent set.  Disconnect
        faults record the reconnect instant as the request's earliest
        retry time, honoured on the next attempt via ``not_before_ms``.
        Returns the issue record, or ``None`` when deferred.
        """
        rid = request.request_id
        hold = self._fault_holds.pop(rid, None)
        if hold is not None:
            not_before_ms = max(not_before_ms, hold)
        try:
            record = self.executor.issue(request, not_before_ms=not_before_ms)
        except TransientFaultError as fault:
            self._note_fault(request, fault, result)
            return None
        finish_times[rid] = record.finished_ms
        result.records.append(record)
        dag.mark_done(request)
        return record

    def _note_fault(
        self, request: SwitchRequest, fault: TransientFaultError, result: ScheduleResult
    ) -> None:
        rid = request.request_id
        attempts = self._fault_attempts.get(rid, 0) + 1
        self._fault_attempts[rid] = attempts
        if attempts > self.MAX_FAULT_DEFERRALS:
            raise RuntimeError(
                f"request {rid} deferred {attempts} times by injected faults; "
                "giving up (check the fault plan's windows and probabilities)"
            ) from fault
        if fault.retry_at_ms is not None:
            self._fault_holds[rid] = fault.retry_at_ms
        result.fault_retries += 1
        result.faulted_request_ids.add(rid)
        if self.instruments.enabled:
            self.instruments.fault_deferred(
                type(self).__name__, request, fault, attempts, clock=self.executor.now_ms
            )

    def _finalize_schedule(self, result: ScheduleResult, makespan: float) -> ScheduleResult:
        """Shared epilogue: makespan and fault-attributed deadline misses."""
        epoch = self.executor.epoch_ms
        result.makespan_ms = makespan - epoch
        result.deadline_misses = _count_deadline_misses(result.records, epoch)
        result.deadline_misses_fault = _count_deadline_misses(
            [
                r
                for r in result.records
                if r.request.request_id in result.faulted_request_ids
            ],
            epoch,
        )
        result.deadline_misses_schedule = (
            result.deadline_misses - result.deadline_misses_fault
        )
        return result

    # -- the scheduling loop ---------------------------------------------------
    def _next_batch(self, dag: RequestDag, makespan: float) -> _Batch:
        """The independent set, ordered by the winning rewrite pattern.

        ``makespan`` is the latest finish so far on the executor
        timeline.
        """
        independent = dag.independent_requests()
        if not independent:
            raise RuntimeError("DAG not done but no independent requests")
        pattern, ordered = self.oracle.choose(independent)
        return _Batch(pattern, ordered, ordered, {})

    def _after_batch(self, issued: Sequence[IssueRecord]) -> None:
        """Called once per round with the records of the requests issued
        (not fault-deferred) in it."""

    def schedule(self, dag: RequestDag) -> ScheduleResult:
        """Issue every request in the DAG; returns timing results.

        Batches are the DAG's successive independent sets, each ordered
        by the winning rewrite pattern.  Within the virtual timeline a
        request starts as soon as its switch is free and its own
        dependencies have finished -- there is no cross-switch barrier,
        so independent work on different switches overlaps.

        Nothing is verified up front; call :meth:`precheck` first for
        static verification.  Requests hit by injected transient faults
        are deferred and re-planned in later rounds (see the module
        docstring).
        """
        result = self._begin_schedule(dag)
        finish_times: Dict[int, float] = {}
        makespan = self.executor.epoch_ms
        while not dag.is_done():
            batch = self._next_batch(dag, makespan)
            result.pattern_choices.append(batch.pattern.name)
            span = self._open_batch(
                batch.pattern.name, batch.planned, result.rounds, **batch.attrs
            )
            batch_start = len(result.records)
            for request in batch.issue_order:
                start = self._earliest_start(dag, request, finish_times)
                record = self._issue_or_defer(dag, request, start, finish_times, result)
                if record is not None:
                    makespan = max(makespan, record.finished_ms)
            issued = result.records[batch_start:]
            self._close_batch(span, len(batch.planned), issued)
            self._after_batch(issued)
            result.rounds += 1
        return self._finalize_schedule(result, makespan)


def _count_deadline_misses(records: Sequence[IssueRecord], epoch_ms: float) -> int:
    misses = 0
    for record in records:
        deadline = record.request.install_by_ms
        if deadline is not None and record.finished_ms - epoch_ms > deadline:
            misses += 1
    return misses


class PrefixTangoScheduler(BasicTangoScheduler):
    """Non-greedy batching extension (the paper's "scheduling tree").

    After ordering a batch, the scheduler considers issuing only a prefix
    of it when the prefix's completion unlocks dependent requests: the
    unlocked requests join the next batch, which may then be ordered more
    cheaply (e.g. merging additions into one ascending run).  Candidate
    prefixes are explored recursively up to ``lookahead_depth`` --
    "a scheduling tree of possibilities" (Section 6, Extensions) -- with
    estimated completion times from a duration estimator built on Tango
    latency curves.

    Planning is incremental (:class:`~repro.core.planner.TailCostPlanner`):
    one planner lives for the whole schedule, maintaining the
    greedy-to-completion tail cost, per-level member sets (the ready set
    is the frontier level, in pattern order), and a frontier-fingerprint
    plan memo, patched in O(out-degree) per issued batch and committed
    to the long-lived completion cursor.  The
    retired recursive planner survives as the reference planner in
    ``tests/test_prefix_planner_differential.py``, which pins both to
    identical decisions and schedules.

    After :meth:`schedule` returns, ``last_planner`` exposes the run's
    planner (memo/pruning/rebuild counters) for bench trajectories.

    Args:
        executor: network executor.
        estimate: per-request duration estimate in ms.
        max_prefixes: candidate prefix cuts evaluated per tree node.
        lookahead_depth: how many batch decisions ahead the tree explores
            before falling back to greedy full batches.
        options: :class:`BasicTangoScheduler`'s keywords, as for every
            variant below (``patterns``, ``pattern_db``, ``instruments``).
    """

    estimate: DurationEstimator

    def __init__(
        self,
        executor: NetworkExecutor,
        estimate: DurationEstimator,
        max_prefixes: int = 4,
        lookahead_depth: int = 2,
        **options: Any,
    ) -> None:
        super().__init__(executor, **options)
        if lookahead_depth < 1:
            raise ValueError("lookahead_depth must be at least 1")
        self.estimate = estimate
        self.max_prefixes = max_prefixes
        self.lookahead_depth = lookahead_depth
        #: The planner used by the most recent :meth:`schedule` run.
        self.last_planner: Optional[TailCostPlanner] = None

    def _make_planner(self, sim: ReadySimulation) -> TailCostPlanner:
        """An incremental tail-cost planner owning ``sim`` from here on."""
        return TailCostPlanner(
            sim,
            estimate=self.estimate,
            patterns=self.oracle.patterns,
            max_prefixes=self.max_prefixes,
            oracle=self.oracle,
        )

    def _plan(
        self, sim: ReadySimulation, depth: int
    ) -> Tuple[float, Optional[int]]:
        """Best estimated remaining cost and the first-batch cut to take.

        One-shot probe: builds a :class:`TailCostPlanner` over ``sim``
        and plans once, leaving the cursor exactly as found.  The
        scheduling loop itself keeps a single long-lived planner instead
        (see :meth:`_begin_schedule`), so the per-round cost is the
        incremental patch, not this O(V + E) construction.
        """
        return self._make_planner(sim).plan(depth)

    @staticmethod
    def _resolve_cut(cut: Optional[int], total: int) -> int:
        """Batch size from a planner cut: ``None`` means the whole batch.

        A cut of ``0`` is *not* the same as ``None`` -- the planner
        contract is cut in ``[1, ready_count]`` or ``None`` -- and
        treating it as falsy would silently issue the full batch.
        """
        return total if cut is None else cut

    def _begin_schedule(self, dag: RequestDag) -> ScheduleResult:
        result = super()._begin_schedule(dag)
        # One long-lived planner over one long-lived lookahead cursor,
        # kept in sync with the issued requests by _after_batch -- no
        # per-round O(V + E) rebuilds, re-sorts, or greedy re-walks.
        self.last_planner = self._make_planner(dag.simulation(dag.done_ids))
        return result

    def _next_batch(self, dag: RequestDag, makespan: float) -> _Batch:
        planner = self.last_planner
        assert planner is not None  # built by _begin_schedule
        if planner.ready_count == 0:
            raise RuntimeError("DAG not done but no independent requests")
        pattern = planner.current_pattern()
        _, cut = planner.plan(self.lookahead_depth)
        issue_now = planner.head_requests(self._resolve_cut(cut, planner.ready_count))
        attrs = {"ready": planner.ready_count, "cut": len(issue_now)}
        return _Batch(pattern, issue_now, issue_now, attrs)

    def _after_batch(self, issued: Sequence[IssueRecord]) -> None:
        # Only issued requests are committed: a fault-deferred request
        # stays pending in the DAG, the cursor and the planner's
        # frontier alike.
        planner = self.last_planner
        assert planner is not None
        planner.commit(record.request.request_id for record in issued)


class DeadlineAwareTangoScheduler(BasicTangoScheduler):
    """Honours ``install_by`` deadlines ahead of pattern order.

    Switch requests may carry a deadline ("install_by: ms or best
    effort", Section 6).  Within each independent set, requests whose
    deadlines are at risk -- the estimated completion of the
    pattern-ordered batch would overshoot them -- are issued first in
    earliest-deadline order; the remainder keeps the rewrite pattern's
    cheap ordering.
    """

    estimate: DurationEstimator

    def __init__(
        self, executor: NetworkExecutor, estimate: DurationEstimator, **options: Any
    ) -> None:
        super().__init__(executor, **options)
        self.estimate = estimate

    def _split_urgent(
        self, ordered: Sequence[SwitchRequest], now_ms: float
    ) -> Tuple[List[SwitchRequest], List[SwitchRequest]]:
        """Requests that would miss their deadline in pattern order."""
        urgent: List[SwitchRequest] = []
        relaxed: List[SwitchRequest] = []
        elapsed: Dict[str, float] = {}
        for request in ordered:
            location = request.location
            elapsed[location] = elapsed.get(location, 0.0) + self.estimate(request)
            deadline = request.install_by_ms
            if deadline is not None and now_ms + elapsed[location] > deadline:
                urgent.append(request)
            else:
                relaxed.append(request)
        urgent.sort(key=lambda r: (r.install_by_ms, r.request_id))
        return urgent, relaxed

    def _next_batch(self, dag: RequestDag, makespan: float) -> _Batch:
        batch = super()._next_batch(dag, makespan)
        urgent, relaxed = self._split_urgent(
            batch.planned, makespan - self.executor.epoch_ms
        )
        # The span keeps the pattern-ordered batch: its estimate sums
        # the per-request floats in that order.
        return batch._replace(
            issue_order=urgent + relaxed, attrs={"urgent": len(urgent)}
        )


class ConcurrentTangoScheduler(BasicTangoScheduler):
    """Concurrent dependent dispatch with guard times (weak consistency).

    A request whose dependencies are still in flight may be released
    early when its estimated finish time exceeds every dependency's
    estimated finish by at least ``guard_ms``, using Tango latency curves
    for the estimates.  This removes the batch barrier entirely: requests
    start as soon as their switch and their (guarded) dependencies allow.

    Raises:
        ValueError: ``guard_ms`` is negative, infinite or NaN.
    """

    estimate: DurationEstimator
    guard_ms: float

    def __init__(
        self,
        executor: NetworkExecutor,
        estimate: DurationEstimator,
        guard_ms: float = 5.0,
        **options: Any,
    ) -> None:
        super().__init__(executor, **options)
        # A NaN guard would silently drop the dependency wait: every
        # comparison against it is false, so max() keeps the switch's
        # free time.
        if not math.isfinite(guard_ms) or guard_ms < 0:
            raise ValueError(
                f"guard_ms must be finite and non-negative, got {guard_ms!r}"
            )
        self.estimate = estimate
        self.guard_ms = guard_ms

    def _next_batch(self, dag: RequestDag, makespan: float) -> _Batch:
        batch = super()._next_batch(dag, makespan)
        return batch._replace(attrs={"guard_ms": self.guard_ms})

    def _earliest_start(
        self, dag: RequestDag, request: SwitchRequest, finish_times: Dict[int, float]
    ) -> float:
        # Guard times are measured on the executor's timeline, so
        # dependency-free requests anchor at the epoch, not at zero.  On
        # a fault-deferred retry the anchor is recomputed from
        # finish_times, so a dependency that completed in an earlier
        # round still projects its guard onto the retry.
        dep_finish = self._dep_finish(dag, request, finish_times)
        own_estimate = self.estimate(request)
        # Weak consistency: start early as long as the estimated finish
        # trails every dependency's finish by the guard.
        return max(
            self.executor.switch_available_at(request.location),
            dep_finish + self.guard_ms - own_estimate,
        )
