"""Flow-table size inference (paper Algorithm 1).

Three stages:

1. *Fill* -- insert probe rules in doubling batches, sending one data
   packet per rule upon insertion (so the switch model leaves no cache
   slot empty), until the OpenFlow API rejects an add (total capacity
   reached) or a configurable cap is hit (switches with unbounded
   software tables never reject).
2. *Cluster* -- probe every installed rule once and cluster the RTTs;
   each cluster is one flow-table layer.
3. *Sample* -- for each layer, repeatedly draw random rules and count the
   consecutive draws whose RTT stays within the layer.  The run length is
   negative-binomially distributed with hit probability ``p = n_i/m``;
   the MLE over ``k`` trials with total run length ``a`` gives
   ``p_hat = a/(k+a)`` and the size estimate ``n_hat = m * a/(k+a)``.

The algorithm is asymptotically optimal: O(n) rule installs issued in
O(log n) batches, and O(n) probe packets (Section 5.2).

**Determinism and degradation.**  The probe draws only from the engine's
seeded RNG and the virtual clock, so runs replay byte-for-byte — with or
without injected faults (:mod:`repro.faults`).  When the engine has a
retry policy and an install still gives up
(:class:`~repro.faults.RetryGiveUpError`), the doubling round *resumes*
with the next probe rule instead of crashing; the result's
``confidence`` field reports the clean fraction of installs and RTT
measurements (1.0 on a fault-free run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.clustering import Cluster, assign_cluster, cluster_1d
from repro.core.probing import ProbingEngine
from repro.faults.retry import RetryGiveUpError
from repro.openflow.errors import TableFullError


@dataclass
class LayerEstimate:
    """Inferred properties of one flow-table layer."""

    mean_rtt_ms: float
    estimated_size: Optional[int]  # None = unbounded (software table)
    sample_trials: int = 0
    total_hits: int = 0


@dataclass
class SizeProbeResult:
    """Outcome of one size-probing run.

    ``confidence`` is 1.0 on a clean run and degrades towards 0 with the
    fraction of probe installs that gave up after retries
    (``install_giveups``) and of RTT measurements that timed out — a
    coarse but monotone signal that the estimates rest on fewer or
    noisier observations than requested.
    """

    total_rules_installed: int
    cache_full: bool
    clusters: List[Cluster]
    layers: List[LayerEstimate]
    rules_sent: int
    packets_sent: int
    install_giveups: int = 0
    confidence: float = 1.0

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def bounded_sizes(self) -> List[int]:
        return [l.estimated_size for l in self.layers if l.estimated_size is not None]


class SizeProber:
    """Runs the size-probing pattern against one switch.

    Args:
        engine: probing engine bound to the switch under test.
        trials_per_level: ``k``, sampling trials per cache layer.
        max_rules: cap for switches that never reject (software tables).
        initial_batch: first doubling batch size.
        cluster_gap_ms: minimum RTT gap separating two layers.
        priority: priority used for all probe rules (constant, so probing
            cost is priority-independent and the FIFO/LRU orderings are
            not disturbed).
    """

    def __init__(
        self,
        engine: ProbingEngine,
        trials_per_level: int = 50,
        max_rules: int = 8192,
        initial_batch: int = 16,
        cluster_gap_ms: float = 0.5,
        priority: int = 100,
        accuracy_target: float = 0.02,
        packet_budget_factor: int = 12,
    ) -> None:
        """See class docstring.

        Args:
            trials_per_level: minimum number of sampling trials (``k``).
            accuracy_target: target relative standard error of each size
                estimate; sampling continues until the accumulated hit
                count supports it (hits ~ 1/target^2) or the packet budget
                runs out.  0.02 keeps estimates comfortably inside the
                paper's "within 5% of actual" claim.
            packet_budget_factor: per-level cap on sampling packets, as a
                multiple of the number of installed rules (keeps the
                probe O(n), per the paper's optimality argument).
        """
        if trials_per_level <= 0:
            raise ValueError("trials_per_level must be positive")
        if max_rules <= 0:
            raise ValueError("max_rules must be positive")
        if not 0 < accuracy_target < 1:
            raise ValueError("accuracy_target must be in (0, 1)")
        self.engine = engine
        self.trials_per_level = trials_per_level
        self.max_rules = max_rules
        self.initial_batch = initial_batch
        self.cluster_gap_ms = cluster_gap_ms
        self.priority = priority
        self.accuracy_target = accuracy_target
        self.packet_budget_factor = packet_budget_factor

    # -- stage 1 ----------------------------------------------------------------
    def _fill(self) -> Tuple[bool, int]:
        """Insert rules in doubling batches.

        Returns ``(cache_full, giveups)``: whether the switch rejected an
        add (capacity reached) and how many installs were abandoned after
        exhausting their retry budget.  A given-up install *resumes the
        doubling round* with the next probe rule — the failed rule never
        occupied a slot, so the fill's termination argument (each success
        fills one slot; the switch rejects at capacity) is unchanged.
        """
        cache_full = False
        giveups = 0
        batch = self.initial_batch
        rounds = 0
        with self.engine.instruments.span(
            "infer.size.fill", category="inference", clock=self.engine.clock
        ) as span:
            while not cache_full and len(self.engine.flows) < self.max_rules:
                target = min(len(self.engine.flows) + batch, self.max_rules)
                while len(self.engine.flows) < target:
                    handle = self.engine.new_handle(priority=self.priority)
                    try:
                        self.engine.install_flow(handle)
                    except TableFullError:
                        cache_full = True
                        break
                    except RetryGiveUpError:
                        giveups += 1
                        if giveups > self.max_rules:
                            # Pathological plan (virtually every install
                            # fails): stop filling, report what we have.
                            span.set(fill_aborted=True)
                            self.engine.instruments.counter(
                                "infer.size.doubling_rounds"
                            ).inc(rounds)
                            return False, giveups
                        continue
                    # Traffic upon insertion keeps every cache slot occupied.
                    self.engine.send_probe_packet(handle)
                batch *= 2
                rounds += 1
            span.set(
                doubling_rounds=rounds,
                rules_installed=len(self.engine.flows),
                cache_full=cache_full,
                install_giveups=giveups,
            )
        self.engine.instruments.counter("infer.size.doubling_rounds").inc(rounds)
        return cache_full, giveups

    # -- stage 2 ----------------------------------------------------------------
    def _cluster(self) -> List[Cluster]:
        rtts = []
        flows = list(self.engine.flows)
        self.engine.rng.shuffle(flows)
        with self.engine.instruments.span(
            "infer.size.cluster", category="inference", clock=self.engine.clock
        ) as span:
            for handle in flows:
                rtts.append(self.engine.measure_rtt(handle))
            clusters = cluster_1d(
                rtts, min_gap_ms=self.cluster_gap_ms, min_cluster_fraction=0.002
            )
            span.set(probes=len(rtts), clusters=len(clusters))
        return clusters

    # -- stage 3 ----------------------------------------------------------------
    def _sample_level(self, clusters: List[Cluster], level: int, m: int) -> LayerEstimate:
        # The per-trial run length is geometric with hit probability
        # p = n_level / m, and the MLE's relative standard error scales as
        # 1/sqrt(total hits); sample until the hit count supports the
        # accuracy target (subject to the O(n) packet budget).
        target_hits = int(round(1.0 / self.accuracy_target**2))
        packet_budget = self.packet_budget_factor * m
        span = self.engine.instruments.span(
            "infer.size.sample_layer",
            category="inference",
            clock=self.engine.clock,
            layer=level,
        )
        packets = 0
        total_hits = 0
        trials_done = 0
        capped = False
        while trials_done < self.trials_per_level or (
            total_hits < target_hits and packets < packet_budget and not capped
        ):
            run = 0
            handle = self.engine.select_random()
            rtt = self.engine.measure_rtt(handle)
            packets += 1
            while assign_cluster(clusters, rtt) == level and run < m:
                run += 1
                handle = self.engine.select_random()
                rtt = self.engine.measure_rtt(handle)
                packets += 1
            trials_done += 1
            total_hits += run
            if run >= m:
                # The layer holds (nearly) every rule; cap per the paper.
                capped = True
        estimated = round(m * total_hits / (trials_done + total_hits)) if total_hits else 0
        span.set(
            mle_trials=trials_done,
            mle_hits=total_hits,
            packets=packets,
            estimated_size=estimated,
        ).close()
        self.engine.instruments.counter("infer.size.sample_trials").inc(trials_done)
        return LayerEstimate(
            mean_rtt_ms=clusters[level].mean_ms,
            estimated_size=estimated,
            sample_trials=trials_done,
            total_hits=total_hits,
        )

    # -- confidence -------------------------------------------------------------
    @staticmethod
    def _confidence(
        m: int, giveups: int, rtt_measured: int, rtt_timed_out: int
    ) -> float:
        """Clean fraction of installs times clean fraction of measurements."""
        install_ok = m / (m + giveups) if (m + giveups) else 1.0
        measure_ok = (
            (rtt_measured - rtt_timed_out) / rtt_measured if rtt_measured else 1.0
        )
        return install_ok * measure_ok

    # -- public API ------------------------------------------------------------
    def probe(self) -> SizeProbeResult:
        """Run all three stages and return the per-layer size estimates."""
        root = self.engine.instruments.span(
            "infer.size_probe",
            category="inference",
            clock=self.engine.clock,
            switch=self.engine.switch_name,
        )
        rtt_measured_before = self.engine.rtt_measurements
        rtt_timeouts_before = self.engine.rtt_timeouts
        cache_full, giveups = self._fill()
        m = len(self.engine.flows)
        if m == 0:
            root.set(rules_installed=0, layers=0).close()
            return SizeProbeResult(
                total_rules_installed=0,
                cache_full=cache_full,
                clusters=[],
                layers=[],
                rules_sent=0,
                packets_sent=0,
                install_giveups=giveups,
                confidence=self._confidence(0, giveups, 0, 0),
            )
        clusters = self._cluster()

        layers: List[LayerEstimate] = []
        for level in range(len(clusters)):
            if len(clusters) == 1:
                # A single tier: every rule sits in one layer of size m
                # (bounded) or unbounded (the cap stopped us, not the switch).
                layers.append(
                    LayerEstimate(
                        mean_rtt_ms=clusters[0].mean_ms,
                        estimated_size=m if cache_full else None,
                    )
                )
                break
            if level == len(clusters) - 1:
                # Slowest tier: the remainder. Unbounded unless the switch
                # rejected, in which case it holds m minus the faster tiers.
                if cache_full:
                    faster = sum(l.estimated_size or 0 for l in layers)
                    layers.append(
                        LayerEstimate(
                            mean_rtt_ms=clusters[level].mean_ms,
                            estimated_size=max(0, m - faster),
                        )
                    )
                else:
                    layers.append(
                        LayerEstimate(
                            mean_rtt_ms=clusters[level].mean_ms, estimated_size=None
                        )
                    )
                break
            layers.append(self._sample_level(clusters, level, m))

        result = SizeProbeResult(
            total_rules_installed=m,
            cache_full=cache_full,
            clusters=clusters,
            layers=layers,
            rules_sent=m + (1 if cache_full else 0),
            packets_sent=m * 2 + sum(l.total_hits + l.sample_trials for l in layers),
            install_giveups=giveups,
            confidence=self._confidence(
                m,
                giveups,
                self.engine.rtt_measurements - rtt_measured_before,
                self.engine.rtt_timeouts - rtt_timeouts_before,
            ),
        )
        root.set(
            rules_installed=m,
            layers=len(layers),
            packets_sent=result.packets_sent,
            cache_full=cache_full,
            confidence=round(result.confidence, 6),
        ).close()
        self.engine.scores.put(
            self.engine.switch_name,
            "size_probe",
            result,
            recorded_at_ms=self.engine.now_ms,
            source="size_prober",
        )
        return result
