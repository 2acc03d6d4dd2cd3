"""The Tango controller facade.

:class:`Tango` wires together the architecture of Figure 4: the score
and pattern databases (TangoDB), the probing/inference engines, and the
network scheduler.  Applications register switches, let Tango infer
their properties, submit request DAGs, and get optimised installation.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional

from repro.core.inference import InferredSwitchModel, SwitchInferenceEngine
from repro.core.patterns import RewritePattern, TangoPatternDatabase
from repro.core.requests import RequestDag
from repro.core.requests import SwitchRequest
from repro.core.scheduler import (
    BasicTangoScheduler,
    ConcurrentTangoScheduler,
    NetworkExecutor,
    PrefixTangoScheduler,
    ScheduleResult,
)
from repro.core.scores import TangoScoreDatabase
from repro.obs import NULL_INSTRUMENTS, Instruments
from repro.openflow.channel import ControlChannel
from repro.switches.base import SimulatedSwitch
from repro.switches.profiles import SwitchProfile


class Tango:
    """The Tango controller.

    Args:
        seed: base seed for all probing randomness.
        instruments: threaded through the probing engines, schedulers,
            and executors built by this controller.

    Example:
        >>> from repro.switches import SWITCH_2
        >>> tango = Tango(seed=1)
        >>> name = tango.register_profile(SWITCH_2)
        >>> model = tango.infer(name, include_policy=False)
        >>> model.fast_table_size is not None
        True
    """

    def __init__(
        self,
        seed: int = 0,
        instruments: Instruments = NULL_INSTRUMENTS,
    ) -> None:
        self.seed = seed
        self.instruments = instruments
        self.scores = TangoScoreDatabase()
        self.patterns = TangoPatternDatabase()
        self._profiles: Dict[str, SwitchProfile] = {}
        self._switches: Dict[str, SimulatedSwitch] = {}
        self._channels: Dict[str, ControlChannel] = {}
        self._models: Dict[str, InferredSwitchModel] = {}

    # -- switch management ---------------------------------------------------
    def register_profile(
        self, profile: SwitchProfile, name: Optional[str] = None
    ) -> str:
        """Register a switch built from ``profile``; returns its name."""
        name = name or profile.name
        if name in self._switches:
            raise ValueError(f"switch {name!r} already registered")
        switch = profile.build(seed=self.seed + len(self._switches))
        self._profiles[name] = profile
        self._switches[name] = switch
        self._channels[name] = ControlChannel(switch)
        return name

    def register_switch(
        self, switch: SimulatedSwitch, profile: Optional[SwitchProfile] = None
    ) -> str:
        """Register an existing switch instance (e.g. shared with netem)."""
        name = switch.name
        if name in self._switches:
            raise ValueError(f"switch {name!r} already registered")
        self._switches[name] = switch
        self._channels[name] = ControlChannel(switch)
        if profile is not None:
            self._profiles[name] = profile
        return name

    @property
    def switch_names(self) -> List[str]:
        return list(self._switches.keys())

    def switch(self, name: str) -> SimulatedSwitch:
        return self._switches[name]

    def channel(self, name: str) -> ControlChannel:
        return self._channels[name]

    # -- inference ---------------------------------------------------------------
    def infer(
        self, name: str, include_policy: bool = True, **probe_kwargs
    ) -> InferredSwitchModel:
        """Probe a registered switch's profile and cache the model.

        Probing runs against fresh instances built from the profile (the
        paper's offline mode), leaving the production switch untouched.
        Extra keyword arguments (e.g. ``size_probe_max_rules``) are
        forwarded to :class:`SwitchInferenceEngine`.
        """
        profile = self._profiles.get(name)
        if profile is None:
            raise KeyError(
                f"switch {name!r} has no registered profile to probe offline"
            )
        engine = SwitchInferenceEngine(
            profile,
            scores=self.scores,
            # crc32, not hash(): str hashing is salted per process.
            seed=self.seed + zlib.crc32(name.encode()) % 1000,
            instruments=self.instruments,
            **probe_kwargs,
        )
        model = engine.infer(include_policy=include_policy)
        self._models[name] = model
        return model

    def model(self, name: str) -> Optional[InferredSwitchModel]:
        return self._models.get(name)

    # -- scheduling -----------------------------------------------------------------
    def _executor(self) -> NetworkExecutor:
        return NetworkExecutor(self._channels, instruments=self.instruments)

    def _patterns_for(self, dag: RequestDag) -> List[RewritePattern]:
        """Measured per-switch patterns when available, else defaults."""
        locations = {r.location for r in dag.requests}
        measured: List[RewritePattern] = []
        for location in locations:
            model = self._models.get(location)
            if model is not None:
                measured.extend(model.rewrite_patterns())
        return measured or self.patterns.rewrite_patterns

    def make_scheduler(
        self, dag: RequestDag, variant: str = "basic"
    ) -> BasicTangoScheduler:
        """Build a scheduler for ``dag`` using inferred switch knowledge.

        Args:
            dag: the request DAG about to be scheduled.
            variant: ``"basic"``, ``"prefix"``, or ``"concurrent"``.
        """
        executor = self._executor()
        patterns = self._patterns_for(dag)
        if variant == "basic":
            return BasicTangoScheduler(executor, patterns=patterns)
        estimate = self._duration_estimator(dag)
        if variant == "prefix":
            return PrefixTangoScheduler(executor, estimate, patterns=patterns)
        if variant == "concurrent":
            return ConcurrentTangoScheduler(executor, estimate, patterns=patterns)
        raise ValueError(f"unknown scheduler variant {variant!r}")

    def _duration_estimator(self, dag: RequestDag):
        estimators = {
            name: model.duration_estimator()
            for name, model in self._models.items()
            if model.latency_curves
        }

        def estimate(request: SwitchRequest) -> float:
            estimator = estimators.get(request.location)
            return estimator(request) if estimator is not None else 1.0

        return estimate

    def schedule(self, dag: RequestDag, variant: str = "basic") -> ScheduleResult:
        """Schedule and execute a request DAG against the registered switches.

        For static verification first (cycles, shadowed rules, deadline
        feasibility, ...), call ``precheck(dag)`` on
        :meth:`make_scheduler`'s scheduler before its ``schedule``.
        """
        return self.make_scheduler(dag, variant=variant).schedule(dag)
