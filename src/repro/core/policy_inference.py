"""Cache-replacement policy inference (paper Algorithm 2).

Under the ATTRIB / MONOTONE / LEX switch model, the cache policy is a
lexicographic ordering over (insertion time, use time, traffic count,
priority) with a monotone direction per attribute.  The probe:

1. installs ``s = 2 * cache_size`` flows and *initialises* each attribute
   so that every attribute splits the flows into a high half and a low
   half, with the halves of different attributes statistically
   independent (a balanced bit design; Figure 6 visualises one instance).
   Priorities take the priority half as their major key and the
   insertion half as the next, and each insertion class is installed in
   ascending priority, so the round pays only the ``(s/4)**2`` TCAM
   shifts that independent priority and insertion halves force.  One
   traffic pass sends 0 or 10 packets per flow, and the use-time packet
   that follows is each flow's last traffic packet (counts 1 | 11);
2. probes every flow once in reverse-use (MRU-first) order -- an order
   chosen so that probing never changes any flow's *relative* position
   under any attribute (use times are refreshed in an order-preserving
   way; traffic counts are initialised with gaps larger than the +1 a
   probe adds);
3. marks each flow cached/not-cached from its RTT tier, correlates the
   cached bit against every attribute's design half (not its raw value:
   the priority layout orders each insertion class, which couples raw
   priority and insertion rank), and picks the strongest (attribute,
   direction);
4. recurses with the found attribute held constant to expose the next
   lexicographic term, terminating when a *serial* attribute (insertion
   or use time, which are unique by construction and already induce a
   total order) is found.

**Determinism and degradation.**  The probe itself is deterministic (all
timing is virtual-clock, the flow design is a fixed bit pattern); under
injected faults (:mod:`repro.faults`) an install that exhausts its
retries is dropped from the round — the design stays valid on the
surviving flows, just with a smaller sample — and the result's
``confidence`` field reports the clean fraction of installs and RTT
measurements (1.0 on a fault-free run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clustering import Cluster, assign_cluster, cluster_1d
from repro.core.probing import ProbeHandle, ProbingEngine
from repro.faults.retry import RetryGiveUpError
from repro.tables.entry import SERIAL_ATTRIBUTES, FlowAttribute
from repro.tables.policies import CachePolicy, Direction

#: Bit assignment: which bit of (flow_index % 16) drives each attribute's
#: high/low half.  Any fixed assignment works; independence comes from the
#: bits being balanced and pairwise independent over blocks of 16.
_ATTRIBUTE_BITS: Dict[FlowAttribute, int] = {
    FlowAttribute.INSERTION: 0,
    FlowAttribute.USE_TIME: 1,
    FlowAttribute.TRAFFIC: 2,
    FlowAttribute.PRIORITY: 3,
}

#: Final traffic counts for the low/high halves, the use-time packet
#: included; the gap (>= 10, as in the paper) absorbs the single extra
#: packet each later probe adds.
_TRAFFIC_LOW_PACKETS = 1
_TRAFFIC_HIGH_PACKETS = 11

_PRIORITY_CONSTANT = 1000


@dataclass
class PolicyProbeResult:
    """Inference outcome for one switch.

    ``confidence`` is 1.0 on a clean run and degrades with the fraction
    of probe installs that gave up after retries and of RTT measurements
    that timed out during this probe.
    """

    terms: List[Tuple[FlowAttribute, Direction]]
    correlations: List[Dict[str, float]] = field(default_factory=list)
    rounds: int = 0
    confidence: float = 1.0

    def as_policy(self, name: str = "inferred") -> CachePolicy:
        return CachePolicy(terms=tuple(self.terms), name=name)

    @property
    def primary(self) -> Optional[Tuple[FlowAttribute, Direction]]:
        return self.terms[0] if self.terms else None


def _high_bit(index: int, attribute: FlowAttribute) -> bool:
    return bool((index % 16) >> _ATTRIBUTE_BITS[attribute] & 1)


class PolicyProber:
    """Runs the policy-probing pattern against one switch.

    Args:
        engine: probing engine bound to the switch (should have no probe
            flows installed; the prober cleans up between rounds).
        cache_size: size of the cache layer under investigation (from the
            size probe).
        correlation_threshold: below this |correlation| no attribute is
            considered to influence caching and the probe stops.
        cluster_gap_ms: RTT gap separating latency tiers.
    """

    def __init__(
        self,
        engine: ProbingEngine,
        cache_size: int,
        correlation_threshold: float = 0.5,
        cluster_gap_ms: float = 0.5,
        max_terms: int = 4,
    ) -> None:
        if cache_size < 8:
            raise ValueError("cache_size too small to probe reliably")
        self.engine = engine
        self.cache_size = cache_size
        self.correlation_threshold = correlation_threshold
        self.cluster_gap_ms = cluster_gap_ms
        self.max_terms = max_terms

    # -- one probing round -----------------------------------------------------
    def _flow_count(self) -> int:
        s = 2 * self.cache_size
        return ((s + 15) // 16) * 16  # multiple of 16 keeps the bits balanced

    def _initialise_round(
        self, free_attributes: Sequence[FlowAttribute]
    ) -> Tuple[List[ProbeHandle], np.ndarray, Dict[FlowAttribute, np.ndarray]]:
        """Install flows and initialise attributes.

        Returns the surviving flows' handles, their design indices (which
        fix each flow's attribute halves, see :func:`_high_bit`) and their
        raw attribute values (which set the measurement orders).
        """
        s = self._flow_count()
        indices = list(range(s))
        values = {attribute: np.zeros(s) for attribute in FlowAttribute}

        # Priorities are fixed at insert time.  The priority half is the
        # major key and the insertion half the next, so installing each
        # insertion class in ascending priority makes a flow shift only
        # the first class's high-priority flows, and only when it is a
        # second-class low-priority flow: (s/4)^2 shifts, the fewest any
        # independent priority/insertion design allows.
        def priority_for(index: int) -> int:
            if FlowAttribute.PRIORITY not in free_attributes:
                return _PRIORITY_CONSTANT
            return (
                s * _high_bit(index, FlowAttribute.PRIORITY)
                + (s // 2) * _high_bit(index, FlowAttribute.INSERTION)
                + index // 2
            )

        handles: List[Optional[ProbeHandle]] = [None] * s
        insertion_order = sorted(
            indices, key=lambda i: (_high_bit(i, FlowAttribute.INSERTION), priority_for(i))
        )
        for insertion_rank, index in enumerate(insertion_order):
            handle = self.engine.new_handle(priority=priority_for(index))
            try:
                self.engine.install_flow(handle)
            except RetryGiveUpError:
                # Degraded mode: the flow is dropped from this round's
                # design; ranks of surviving flows keep their relative
                # order, so correlations stay valid on a smaller sample.
                continue
            handles[index] = handle
            values[FlowAttribute.INSERTION][index] = insertion_rank
            values[FlowAttribute.PRIORITY][index] = handle.priority

        # Traffic counts: high half gets more packets; constant otherwise.
        # The use-time packet below is each flow's last traffic packet.
        for index in indices:
            if handles[index] is None:
                continue
            if FlowAttribute.TRAFFIC in free_attributes:
                packets = (
                    _TRAFFIC_HIGH_PACKETS
                    if _high_bit(index, FlowAttribute.TRAFFIC)
                    else _TRAFFIC_LOW_PACKETS
                )
            else:
                packets = _TRAFFIC_LOW_PACKETS
            for _ in range(packets - 1):
                self.engine.send_probe_packet(handles[index])
            values[FlowAttribute.TRAFFIC][index] = packets

        # Use times last, so earlier traffic does not disturb the pattern.
        use_order = sorted(
            indices, key=lambda i: (_high_bit(i, FlowAttribute.USE_TIME), i)
        )
        for use_rank, index in enumerate(use_order):
            if handles[index] is None:
                continue
            self.engine.send_probe_packet(handles[index])
            values[FlowAttribute.USE_TIME][index] = use_rank

        # Compact to surviving flows so handle and value indices agree.
        kept_handles = [h for h in handles if h is not None]
        kept = np.array([i for i in indices if handles[i] is not None], dtype=int)
        return kept_handles, kept, {a: column[kept] for a, column in values.items()}

    def _measure_cached_bits(
        self, handles: List[ProbeHandle], order: Iterable[int]
    ) -> Tuple[np.ndarray, List[Cluster]]:
        """Probe flows in ``order``; classify each flow's tier.

        Each RTT is recorded against the flow's layer *before* the probe's
        own counter update, so the order only matters through the state
        changes probes inflict on *later* measurements.
        """
        rtts = [0.0] * len(handles)
        for index in order:
            rtts[index] = self.engine.measure_rtt(handles[index])
        clusters = cluster_1d(
            rtts, min_gap_ms=self.cluster_gap_ms, min_cluster_fraction=0.002
        )
        cached = np.array(
            [1.0 if assign_cluster(clusters, rtt) == 0 else 0.0 for rtt in rtts]
        )
        return cached, clusters

    @staticmethod
    def _correlate(
        kept: np.ndarray, attribute: FlowAttribute, cached: np.ndarray
    ) -> float:
        """Correlation of the cached bit with ``attribute``'s design half.

        The halves are independent by construction, so a cached bit
        driven by one attribute leaves every other attribute's
        correlation at zero; the raw values are not independent (the
        priority layout orders each insertion class).
        """
        halves = (kept >> _ATTRIBUTE_BITS[attribute]) & 1
        if halves.std() == 0 or cached.std() == 0:
            return 0.0
        return float(np.corrcoef(halves, cached)[0, 1])

    # -- probing rounds ---------------------------------------------------------
    def _first_round(
        self, free: List[FlowAttribute]
    ) -> Tuple[Optional[Tuple[FlowAttribute, Direction]], float, Dict[str, float]]:
        """One initialisation, measured MRU-first; correlate everything.

        With every attribute initialised far apart, probing cannot reorder
        any attribute (Section 5.3), so a single measurement identifies
        the primary sort attribute.
        """
        self.engine.remove_all_flows()
        handles, kept, values = self._initialise_round(free)
        order = np.argsort(-values[FlowAttribute.USE_TIME], kind="stable")
        cached, _ = self._measure_cached_bits(handles, order)

        correlations: Dict[str, float] = {}
        best: Optional[Tuple[FlowAttribute, Direction]] = None
        best_abs = 0.0
        for attribute in free:
            corr = self._correlate(kept, attribute, cached)
            correlations[attribute.value] = corr
            if abs(corr) > best_abs:
                best_abs = abs(corr)
                direction = Direction.INCREASING if corr > 0 else Direction.DECREASING
                best = (attribute, direction)
        return best, best_abs, correlations

    def _recursion_round(
        self, free: List[FlowAttribute]
    ) -> Tuple[Optional[Tuple[FlowAttribute, Direction]], float, Dict[str, float]]:
        """Identify the next lexicographic term with held-constant probing.

        With the found attributes held constant, the flows *tie* on every
        found attribute, so the +1 a probe adds to a flow's traffic count
        (or its use-time refresh) can promote a not-yet-cached flow and
        evict an unmeasured cached one, corrupting later measurements.
        The defence is to measure once per candidate ``(attribute,
        direction)`` in that candidate's *predicted-cached-first* order:
        when the candidate is the true next term, every cached flow is
        measured before the first promotion can evict one, so its
        correlation is undamaged; wrong candidates only lose correlation
        they never had.
        """
        best: Optional[Tuple[FlowAttribute, Direction]] = None
        best_score = 0.0
        correlations: Dict[str, float] = {}
        for attribute in free:
            for direction in (Direction.INCREASING, Direction.DECREASING):
                self.engine.remove_all_flows()
                handles, kept, values = self._initialise_round(free)
                # Candidate-first, then MRU-first (lexsort: last key major).
                order = np.lexsort(
                    (
                        -values[FlowAttribute.USE_TIME],
                        -direction.value * values[attribute],
                    )
                )
                cached, _ = self._measure_cached_bits(handles, order)
                corr = self._correlate(kept, attribute, cached)
                score = direction.value * corr
                label = f"{attribute.value}:{'+' if direction is Direction.INCREASING else '-'}"
                correlations[label] = corr
                if score > best_score:
                    best_score = score
                    best = (attribute, direction)
        return best, best_score, correlations

    # -- public API -----------------------------------------------------------------
    def probe(self) -> PolicyProbeResult:
        """Infer the policy's lexicographic terms, primary first."""
        result = PolicyProbeResult(terms=[])
        found: List[FlowAttribute] = []
        installs_before = self.engine.installs_completed
        giveups_before = self.engine.fault_giveups
        rtt_measured_before = self.engine.rtt_measurements
        rtt_timeouts_before = self.engine.rtt_timeouts
        root = self.engine.instruments.span(
            "infer.policy_probe",
            category="inference",
            clock=self.engine.clock,
            switch=self.engine.switch_name,
            cache_size=self.cache_size,
        )
        while len(result.terms) < self.max_terms:
            free = [a for a in FlowAttribute if a not in found]
            if not free:
                break
            with self.engine.instruments.span(
                "infer.policy.round",
                category="inference",
                clock=self.engine.clock,
                round=result.rounds,
                free=len(free),
            ) as round_span:
                if not found:
                    best, best_score, correlations = self._first_round(free)
                else:
                    best, best_score, correlations = self._recursion_round(free)
                round_span.set(
                    best=best[0].value if best is not None else None,
                    score=round(best_score, 6),
                )
            self.engine.instruments.counter("infer.policy.rounds").inc()
            result.rounds += 1
            result.correlations.append(correlations)

            if best is None or best_score < self.correlation_threshold:
                break
            result.terms.append(best)
            found.append(best[0])
            if best[0] in SERIAL_ATTRIBUTES:
                break

        self.engine.remove_all_flows()
        installs = self.engine.installs_completed - installs_before
        giveups = self.engine.fault_giveups - giveups_before
        measured = self.engine.rtt_measurements - rtt_measured_before
        timeouts = self.engine.rtt_timeouts - rtt_timeouts_before
        install_ok = installs / (installs + giveups) if (installs + giveups) else 1.0
        measure_ok = (measured - timeouts) / measured if measured else 1.0
        result.confidence = install_ok * measure_ok
        root.set(
            rounds=result.rounds,
            terms=" > ".join(a.value for a, _ in result.terms),
            confidence=round(result.confidence, 6),
        ).close()
        self.engine.scores.put(
            self.engine.switch_name,
            "policy_probe",
            result,
            recorded_at_ms=self.engine.now_ms,
            source="policy_prober",
        )
        return result
