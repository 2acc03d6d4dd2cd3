"""Rule-operation latency curves.

Tango probes each switch with rewriting patterns -- the same set of rule
operations issued in different orders -- and records how installation
time scales with batch size (paper Figures 3a-3b).  The prober measures
the four curves the controller reads, each on fresh switches:

* ADD at ascending priority -- rewrite-pattern weights
  (:func:`derive_rewrite_patterns`), the duration estimator
  (:meth:`repro.core.inference.InferredSwitchModel.duration_estimator`)
  and :class:`repro.core.placement.FlowPlacer`;
* ADD at descending priority -- rewrite-pattern weights (how much worse
  descending-priority adds are than ascending ones on *this* switch);
* MODIFY and DELETE of same-priority rules -- rewrite-pattern weights
  and the duration estimator.

Same- and random-priority ADD orders (Figure 3c) have no reader here;
``benchmarks/bench_fig3c_priority_orders.py`` reproduces that figure.

Each curve samples a ladder of batch sizes, one fresh switch per batch.
MODIFY and DELETE share their switches: ``k`` preinstalled rules are
modified, then deleted, so every MODIFY runs at fill ``k`` and the
DELETEs at falling fill, as two separate batches would.  A ladder stops
after the first batch the table rejected: every larger batch would
measure the same full table again.

Total time for ``n`` operations is fitted as ``t(n) = a*n + b*n^2``: the
linear term is the per-operation base cost and the quadratic term
captures TCAM entry shifting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.patterns import RewritePattern, make_del_mod_add_pattern
from repro.core.probing import ProbeHandle, ProbingEngine
from repro.core.scores import TangoScoreDatabase
from repro.faults.retry import RetryGiveUpError
from repro.openflow.errors import TableFullError
from repro.openflow.messages import FlowModCommand


#: ``(operations measured, elapsed ms)`` of one batch.
Sample = Tuple[int, float]


class PriorityPattern(enum.Enum):
    """Priority orderings of the probed rules.

    ADD curves are keyed ascending or descending; MODIFY and DELETE
    operate on rules of one priority (``SAME``).
    """

    ASCENDING = "ascending"
    DESCENDING = "descending"
    SAME = "same"


@dataclass(frozen=True)
class LatencyCurve:
    """A fitted ``t(n) = a*n + b*n^2`` installation-time curve (ms)."""

    op: FlowModCommand
    pattern: PriorityPattern
    linear_ms: float
    quadratic_ms: float
    samples: Tuple[Tuple[int, float], ...] = ()

    def total_ms(self, n: int) -> float:
        """Estimated total time to apply ``n`` operations."""
        return self.linear_ms * n + self.quadratic_ms * n * n

    def per_op_ms(self, n_existing: int) -> float:
        """Estimated marginal cost of the next operation."""
        return self.total_ms(n_existing + 1) - self.total_ms(n_existing)


def fit_curve(
    op: FlowModCommand,
    pattern: PriorityPattern,
    samples: Sequence[Tuple[int, float]],
) -> LatencyCurve:
    """Least-squares fit of ``t(n) = a*n + b*n^2`` through the samples."""
    if not samples:
        raise ValueError("need at least one sample to fit")
    ns = np.array([n for n, _ in samples], dtype=float)
    ts = np.array([t for _, t in samples], dtype=float)
    design = np.column_stack([ns, ns * ns])
    coef, *_ = np.linalg.lstsq(design, ts, rcond=None)
    return LatencyCurve(
        op=op,
        pattern=pattern,
        linear_ms=max(0.0, float(coef[0])),
        quadratic_ms=max(0.0, float(coef[1])),
        samples=tuple((int(n), float(t)) for n, t in samples),
    )


class LatencyCurveProber:
    """Measures installation-time curves on fresh switch instances.

    Each measurement needs a pristine switch (installs perturb TCAM
    state), so the prober takes a factory of probing engines rather than
    a single channel.

    Args:
        engine_factory: returns a probing engine to a *fresh* switch.
        batch_sizes: rule counts at which to sample the curve.
        scores: shared score database for the fitted curves.
    """

    def __init__(
        self,
        engine_factory: Callable[[], ProbingEngine],
        batch_sizes: Sequence[int] = (100, 400, 900, 1600),
        scores: Optional[TangoScoreDatabase] = None,
    ) -> None:
        if not batch_sizes:
            raise ValueError("need at least one batch size")
        self.engine_factory = engine_factory
        self.batch_sizes = tuple(sorted(set(batch_sizes)))
        self.scores = scores if scores is not None else TangoScoreDatabase()
        self._switch_name: Optional[str] = None

    # -- measurement ---------------------------------------------------------
    def _engine(self) -> ProbingEngine:
        engine = self.engine_factory()
        self._switch_name = engine.switch_name
        return engine

    def _measure_add(
        self, pattern: PriorityPattern, n: int
    ) -> Tuple[bool, List[Sample]]:
        """``(table full, [(rules actually installed, elapsed ms)])``.

        Bounded switches may reject before ``n`` rules land; the sample
        is then truncated at the rejection point.
        """
        engine = self._engine()
        if pattern is PriorityPattern.ASCENDING:
            priorities = range(1, n + 1)
        else:
            priorities = range(n, 0, -1)
        start = engine.now_ms
        installed = 0
        table_full = False
        for priority in priorities:
            handle = engine.new_handle(priority=priority)
            try:
                engine.install_flow(handle)
            except TableFullError:
                table_full = True
                break
            except RetryGiveUpError:
                continue  # degraded mode: the sample just gets smaller
            installed += 1
        return table_full, [(installed, engine.now_ms - start)]

    def _measure_mod_del(self, n: int) -> Tuple[bool, List[Sample]]:
        """``(table full, [MODIFY sample, DELETE sample])`` on one switch.

        Preinstalls up to ``n`` same-priority rules, then times a MODIFY
        of each and then a DELETE of each.  Each phase's first operation
        follows another command, as after a preinstall alone.
        """
        engine = self._engine()
        handles: List[ProbeHandle] = []
        table_full = False
        for _ in range(n):
            handle = engine.new_handle(priority=100)
            try:
                engine.install_flow(handle)
            except TableFullError:
                table_full = True
                break
            except RetryGiveUpError:
                continue
            handles.append(handle)
        samples: List[Sample] = []
        for command in (FlowModCommand.MODIFY, FlowModCommand.DELETE):
            start = engine.now_ms
            measured = 0
            for handle in handles:
                try:
                    engine.send_flow_mod(handle.flow_mod(command))
                except RetryGiveUpError:
                    continue
                measured += 1
            samples.append((measured, engine.now_ms - start))
        return table_full, samples

    def _ladder(
        self, measure: Callable[[int], Tuple[bool, List[Sample]]]
    ) -> List[List[Sample]]:
        """Run ``measure`` up the batch sizes; one sample list per curve.

        Stops after the first batch the table rejected, and drops empty
        samples (every operation of the batch gave up).
        """
        rows = []
        for n in self.batch_sizes:
            table_full, samples = measure(n)
            rows.append(samples)
            if table_full:
                break
        return [[s for s in column if s[0] > 0] for column in zip(*rows)]

    # -- public API -----------------------------------------------------------
    def probe(self) -> Dict[Tuple[FlowModCommand, PriorityPattern], LatencyCurve]:
        """Measure and fit the four curves the controller reads."""
        curves: Dict[Tuple[FlowModCommand, PriorityPattern], LatencyCurve] = {}
        for pattern in (PriorityPattern.ASCENDING, PriorityPattern.DESCENDING):
            (samples,) = self._ladder(partial(self._measure_add, pattern))
            curves[(FlowModCommand.ADD, pattern)] = fit_curve(
                FlowModCommand.ADD, pattern, samples
            )
        mod_del = zip(
            (FlowModCommand.MODIFY, FlowModCommand.DELETE),
            self._ladder(self._measure_mod_del),
        )
        for op, samples in mod_del:
            curves[(op, PriorityPattern.SAME)] = fit_curve(
                op, PriorityPattern.SAME, samples
            )
        if self._switch_name is not None:
            for (op, pattern), curve in curves.items():
                self.scores.put(
                    self._switch_name,
                    "latency_curve",
                    curve,
                    source=f"latency_curve_prober:{pattern.value}",
                    op=op.value,
                    pattern=pattern.value,
                )
        return curves


def derive_rewrite_patterns(
    curves: Dict[Tuple[FlowModCommand, PriorityPattern], LatencyCurve],
    reference_n: int = 200,
) -> List[RewritePattern]:
    """Turn measured curves into switch-specific rewrite patterns.

    The paper's default patterns use fixed weights; with measured curves
    Tango can weight each pattern by the switch's actual costs, e.g. OVS
    gets (near-)equal ascending/descending weights while hardware
    switches heavily penalise descending adds.
    """
    del_curve = curves[(FlowModCommand.DELETE, PriorityPattern.SAME)]
    mod_curve = curves[(FlowModCommand.MODIFY, PriorityPattern.SAME)]
    del_w = max(1e-6, del_curve.total_ms(reference_n) / reference_n)
    mod_w = max(1e-6, mod_curve.total_ms(reference_n) / reference_n)

    patterns = []
    for pattern_kind, name in (
        (PriorityPattern.ASCENDING, "DEL MOD ASCEND_ADD"),
        (PriorityPattern.DESCENDING, "DEL MOD DESCEND_ADD"),
    ):
        add_curve = curves[(FlowModCommand.ADD, pattern_kind)]
        # Normalise so the weight multiplies |ADD|^2 like the paper's score.
        add_w = max(1e-6, add_curve.total_ms(reference_n) / (reference_n**2))
        patterns.append(
            make_del_mod_add_pattern(
                name,
                add_weight=add_w,
                del_weight=del_w,
                mod_weight=mod_w,
                ascending_adds=pattern_kind is PriorityPattern.ASCENDING,
            )
        )
    return patterns
