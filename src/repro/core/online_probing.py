"""Online probing: measuring a switch that is already in production.

The paper notes the probing engine can run "offline testing of the
switch before it is plugged in the network, but online testing when the
switch is running" (Section 4).  Online probing differs in two ways:

* the switch holds *production* rules the prober must not disturb -- so
  probe rules are installed alongside them and removed afterwards;
* what can be measured changes: the rejection point now reveals the
  *free* capacity, and adding the production rule count (from flow
  stats) recovers the total.

:class:`DriftDetector` complements this: by comparing a freshly probed
model against the stored TangoDB model, the controller notices when a
firmware update or mode change silently altered a switch's properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.probing import ProbingEngine
from repro.openflow.errors import TableFullError
from repro.openflow.messages import FlowStatsRequest


@dataclass
class OnlineSizeResult:
    """Capacity view of a production switch."""

    production_rules: int
    free_capacity: Optional[int]  # None = never rejected (software tables)
    probe_rules_used: int

    @property
    def total_capacity(self) -> Optional[int]:
        """Total bounded capacity, or None for unbounded switches."""
        if self.free_capacity is None:
            return None
        return self.production_rules + self.free_capacity


class OnlineSizeProber:
    """Measures free and total capacity without disrupting production.

    The probe installs disposable rules until the switch rejects one
    (free capacity) or a cap is reached (unbounded software tables), then
    deletes every probe rule.  Probe matches that collide with a
    production rule's are skipped, so production rules are never touched;
    no data traffic is sent, so the impact is limited to transient table
    occupancy -- suitable for maintenance windows.

    Args:
        engine: probing engine bound to the production switch.
        max_probe_rules: cap for switches that never reject.
        probe_priority: priority for probe rules; keep it *below*
            production priorities so probe adds never shift them.
    """

    def __init__(
        self,
        engine: ProbingEngine,
        max_probe_rules: int = 8192,
        probe_priority: int = 1,
    ) -> None:
        if max_probe_rules <= 0:
            raise ValueError("max_probe_rules must be positive")
        self.engine = engine
        self.max_probe_rules = max_probe_rules
        self.probe_priority = probe_priority

    def probe(self) -> OnlineSizeResult:
        """Measure free capacity; leaves the switch as it was found."""
        stats = self.engine.channel.request_flow_stats(FlowStatsRequest())
        production = len(stats.entries)
        # Cleanup deletes probe rules by match, which would take a
        # production rule on the same match with it: skip those matches.
        taken = {entry.match for entry in stats.entries}

        free: Optional[int] = None
        installed = 0
        try:
            while installed < self.max_probe_rules:
                handle = self.engine.new_handle(priority=self.probe_priority)
                if handle.match in taken:
                    continue
                try:
                    self.engine.install_flow(handle)
                except TableFullError:
                    free = installed
                    break
                installed += 1
        finally:
            self.engine.remove_all_flows()

        result = OnlineSizeResult(
            production_rules=production,
            free_capacity=free,
            probe_rules_used=installed,
        )
        self.engine.scores.put(
            self.engine.switch_name,
            "online_size_probe",
            result,
            recorded_at_ms=self.engine.now_ms,
            source="online_size_prober",
        )
        return result


@dataclass(frozen=True)
class DriftFinding:
    """One property that changed between two probed models."""

    property_path: str
    before: Any
    after: Any


class DriftDetector:
    """Compares two inferred-model summaries (``to_dict`` payloads).

    Args:
        size_tolerance: relative layer-size change below which two
            estimates count as equal (inference noise, not drift).
        latency_tolerance: relative latency-curve coefficient change
            treated as noise.
    """

    def __init__(
        self, size_tolerance: float = 0.05, latency_tolerance: float = 0.25
    ) -> None:
        self.size_tolerance = size_tolerance
        self.latency_tolerance = latency_tolerance

    def _relative_change(self, before: float, after: float) -> float:
        if before == after:
            return 0.0
        scale = max(abs(before), abs(after), 1e-12)
        return abs(after - before) / scale

    def compare_models(self, before: Any, after: Any) -> List[DriftFinding]:
        """Like :meth:`compare`, accepting models or summary dicts.

        Convenience for the fleet model cache
        (:meth:`repro.core.fleet.ModelCache.invalidate_if_drifted`):
        either argument may be an
        :class:`~repro.core.inference.InferredSwitchModel` (its
        ``to_dict`` summary is taken) or an already-serialised summary.
        Switch names are ignored -- only measured properties count.
        """
        before_summary = before.to_dict() if hasattr(before, "to_dict") else before
        after_summary = after.to_dict() if hasattr(after, "to_dict") else after
        return self.compare(before_summary, after_summary)

    def compare(
        self, before: Dict[str, Any], after: Dict[str, Any]
    ) -> List[DriftFinding]:
        """All material differences between two model summaries."""
        findings: List[DriftFinding] = []

        old_layers = before.get("layers", [])
        new_layers = after.get("layers", [])
        if len(old_layers) != len(new_layers):
            findings.append(
                DriftFinding("layers.count", len(old_layers), len(new_layers))
            )
        for index, (old, new) in enumerate(zip(old_layers, new_layers)):
            old_size, new_size = old.get("size"), new.get("size")
            if (old_size is None) != (new_size is None):
                findings.append(
                    DriftFinding(f"layers[{index}].size", old_size, new_size)
                )
            elif old_size is not None and (
                self._relative_change(old_size, new_size) > self.size_tolerance
            ):
                findings.append(
                    DriftFinding(f"layers[{index}].size", old_size, new_size)
                )

        old_policy = before.get("policy")
        new_policy = after.get("policy")
        if old_policy != new_policy and (old_policy or new_policy):
            findings.append(DriftFinding("policy", old_policy, new_policy))

        old_behavior = before.get("behavior", {}).get("traffic_driven_caching")
        new_behavior = after.get("behavior", {}).get("traffic_driven_caching")
        if old_behavior != new_behavior:
            findings.append(
                DriftFinding("behavior.traffic_driven_caching", old_behavior, new_behavior)
            )

        old_curves = before.get("latency_curves", {})
        new_curves = after.get("latency_curves", {})
        # A coefficient only matters through its impact on a realistic
        # batch; tiny quadratic terms fitted onto essentially-linear
        # curves are regression noise, not drift.
        reference_n = 500
        for key in sorted(set(old_curves) & set(new_curves)):
            for coefficient in ("linear_ms", "quadratic_ms"):
                old_value = old_curves[key][coefficient]
                new_value = new_curves[key][coefficient]
                if self._relative_change(old_value, new_value) <= self.latency_tolerance:
                    continue
                if coefficient == "linear_ms":
                    if max(abs(old_value), abs(new_value)) <= 1e-2:
                        continue
                else:
                    quad_impact = max(abs(old_value), abs(new_value)) * reference_n**2
                    linear_impact = (
                        max(
                            abs(old_curves[key]["linear_ms"]),
                            abs(new_curves[key]["linear_ms"]),
                        )
                        * reference_n
                    )
                    if quad_impact < 0.15 * (linear_impact + 1.0):
                        continue
                findings.append(
                    DriftFinding(
                        f"latency_curves[{key}].{coefficient}",
                        old_value,
                        new_value,
                    )
                )
        return findings
