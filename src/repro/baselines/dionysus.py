"""Dionysus-style critical-path update scheduling.

Dionysus [Jin et al., SIGCOMM 2014] models a network update as a
dependency graph and repeatedly schedules the ready operation with the
greatest critical-path length, so that long chains start as early as
possible.  It reacts to runtime speeds (an op is issued the moment its
switch frees up) but is *switch-diversity oblivious*: it does not know
that deletions are cheaper than additions on a given switch, nor that
addition cost depends on priority order -- the gap Tango exploits
(paper Section 7.2).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.requests import RequestDag
from repro.core.scheduler import (
    NetworkExecutor,
    ScheduleResult,
    _count_deadline_misses,
)
from repro.obs import Instruments


class DionysusScheduler:
    """Critical-path list scheduler over the request DAG.

    Args:
        executor: network executor bound to the target switches.
        instruments: where per-round spans (tagged
            ``policy="critical_path"``; Dionysus has no pattern oracle)
            and round/request counters go.  Defaults to the executor's.
    """

    def __init__(
        self, executor: NetworkExecutor, instruments: Optional[Instruments] = None
    ) -> None:
        self.executor = executor
        self.instruments = (
            instruments if instruments is not None else executor.instruments
        )
        name = type(self).__name__
        self._m_batches = self.instruments.counter("scheduler.batches", scheduler=name)
        self._m_requests = self.instruments.counter("scheduler.requests", scheduler=name)

    def schedule(self, dag: RequestDag) -> ScheduleResult:
        """Issue every request, longest-remaining-chain first."""
        self.executor.reset_epoch()
        result = ScheduleResult(makespan_ms=0.0)
        # Cached on the DAG: repeated runs over the same structure (the
        # common A/B-comparison pattern) pay the longest-path sweep once.
        critical = dag.critical_path_lengths()
        finish_times: Dict[int, float] = {}
        makespan = self.executor.epoch_ms

        while not dag.is_done():
            ready = dag.independent_requests()
            if not ready:
                raise RuntimeError("DAG not done but no independent requests")
            # Longest critical path first; FIFO within ties (Dionysus has
            # no notion of rule-type or priority-order cost).
            ready.sort(key=lambda r: (-critical[r.request_id], r.request_id))
            ins = self.instruments
            if ins.enabled:
                span = ins.span(
                    "scheduler.batch",
                    category="scheduler",
                    clock=self.executor.now_ms,
                    policy="critical_path",
                    batch_size=len(ready),
                    round=result.rounds,
                )
                batch_start_ms = self.executor.now_ms()
            for request in ready:
                dep_finish = max(
                    (
                        finish_times[p]
                        for p in dag.predecessor_ids(request.request_id)
                    ),
                    default=self.executor.epoch_ms,
                )
                record = self.executor.issue(request, not_before_ms=dep_finish)
                finish_times[request.request_id] = record.finished_ms
                result.records.append(record)
                dag.mark_done(request)
                makespan = max(makespan, record.finished_ms)
            if ins.enabled:
                span.set(actual_ms=self.executor.now_ms() - batch_start_ms).close()
                self._m_batches.inc()
                self._m_requests.inc(len(ready))
            result.rounds += 1
        result.makespan_ms = makespan - self.executor.epoch_ms
        result.deadline_misses = _count_deadline_misses(
            result.records, self.executor.epoch_ms
        )
        return result
