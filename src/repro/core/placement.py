"""Flow placement across diverse switches.

Section 1 of the paper: "comparing across switches, Tango records that
insertion into the flow table of the hardware switch is substantially
slower than into that of the software switch.  Hence, when Tango needs
to install a low-bandwidth flow where start up latency is more
important, Tango will put the flow at the software switch, instead of
the hardware switch."

:class:`FlowPlacer` makes that decision from inferred switch models: a
flow's total cost on a switch is its rule-installation latency (from the
measured latency curves, at the switch's current fill level) plus its
expected forwarding cost (fast-tier RTT from the size probe, times the
expected packet volume).  Low-volume, setup-critical flows land on
software switches; high-volume flows pay the install cost once and ride
the hardware fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.inference import InferredSwitchModel
from repro.core.latency_curves import PriorityPattern
from repro.openflow.messages import FlowModCommand


@dataclass(frozen=True)
class FlowRequirements:
    """What the application tells Tango about a flow (API hints).

    Args:
        expected_packets: forwarding volume over the flow's lifetime.
        setup_weight: relative importance of rule-installation latency
            (1.0 = a millisecond of setup hurts as much as a millisecond
            of cumulative forwarding delay).
    """

    expected_packets: float
    setup_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.expected_packets < 0:
            raise ValueError("expected_packets must be non-negative")
        if self.setup_weight < 0:
            raise ValueError("setup_weight must be non-negative")


@dataclass(frozen=True)
class PlacementScore:
    """Cost breakdown of placing a flow on one switch."""

    switch: str
    install_ms: float
    per_packet_ms: float
    total_ms: float


class FlowPlacer:
    """Chooses a switch for each flow from inferred cost models.

    Args:
        models: inferred models of the candidate switches (must contain
            latency curves; size-probe clusters supply the forwarding
            RTT, with a fallback for models probed without one).
    """

    def __init__(self, models: Sequence[InferredSwitchModel]) -> None:
        if not models:
            raise ValueError("need at least one switch model")
        self._models: Dict[str, InferredSwitchModel] = {m.name: m for m in models}

    def _install_ms(self, model: InferredSwitchModel, fill_level: int) -> float:
        curve = model.latency_curves.get(
            (FlowModCommand.ADD, PriorityPattern.ASCENDING)
        )
        if curve is None:
            return 1.0
        return curve.per_op_ms(fill_level)

    @staticmethod
    def _fast_rtt_ms(model: InferredSwitchModel) -> float:
        if model.size_probe is not None and model.size_probe.clusters:
            return model.size_probe.clusters[0].mean_ms
        return 1.0

    def score(
        self,
        switch: str,
        requirements: FlowRequirements,
        fill_level: int = 0,
    ) -> PlacementScore:
        """Cost of placing the flow on ``switch``."""
        model = self._models[switch]
        install = self._install_ms(model, fill_level)
        per_packet = self._fast_rtt_ms(model)
        total = (
            requirements.setup_weight * install
            + requirements.expected_packets * per_packet
        )
        return PlacementScore(
            switch=switch,
            install_ms=install,
            per_packet_ms=per_packet,
            total_ms=total,
        )

    def place(
        self,
        requirements: FlowRequirements,
        candidates: Optional[Sequence[str]] = None,
        fill_levels: Optional[Dict[str, int]] = None,
    ) -> PlacementScore:
        """The cheapest placement among ``candidates`` (default: all)."""
        names = list(candidates) if candidates is not None else list(self._models)
        unknown = [n for n in names if n not in self._models]
        if unknown:
            raise KeyError(f"no inferred model for switches {unknown}")
        fill_levels = fill_levels or {}
        scores = [
            self.score(name, requirements, fill_level=fill_levels.get(name, 0))
            for name in names
        ]
        return min(scores, key=lambda s: (s.total_ms, s.switch))

    def crossover_packets(self, software: str, hardware: str) -> float:
        """Packet volume where the hardware switch becomes the better home.

        Below this volume the software switch's cheap installs win;
        above it the hardware fast path amortises its install cost.
        Returns ``inf`` when the hardware switch never wins.
        """
        soft = self.score(software, FlowRequirements(expected_packets=0))
        hard = self.score(hardware, FlowRequirements(expected_packets=0))
        forwarding_gain = soft.per_packet_ms - hard.per_packet_ms
        install_penalty = hard.install_ms - soft.install_ms
        if forwarding_gain <= 0:
            return float("inf") if install_penalty > 0 else 0.0
        return max(0.0, install_penalty / forwarding_gain)
