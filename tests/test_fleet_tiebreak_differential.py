"""Same-time tie-break differential for the fleet engine.

The fleet engine runs every member on one event queue, which orders
events by ``(time, insertion sequence)``.  The sequence is only a
tie-break: no answer the fleet gives may depend on it.  These tests
re-run a fleet with same-time events popped in reverse insertion order
and in two seeded shuffles, and compare what the experiments read --
the summary, each member's model, the TangoDB contents and the metrics
-- against the run in normal order.

Every perturbed order is causal: an event is pushed only after the
event that schedules it has run, so it can never pop before its
parent.  Admission order is *not* perturbed: the coalescing leader and
the cache origin follow member order by design.

The global ``scores.records()`` insertion order is not compared.  It
records which same-time member first wrote a key, which the tie-break
may decide; every per-switch record order is compared.
"""

import heapq
import random

import pytest

import repro.core.fleet as fleet_module
from repro.core.fleet import FleetInferenceEngine, build_fleet
from repro.faults import FaultInjector, RetryPolicy
from repro.netem.scenarios import FAULT_SCENARIOS
from repro.obs import Instruments
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import Event, EventQueue, Simulator
from repro.switches.profiles import VENDOR_PROFILES

#: Small probe knobs so each fleet run takes a fraction of a second.
FAST = {"size_probe_max_rules": 128, "latency_batch_sizes": (20, 60)}

#: The stock four-profile fleet and the chaos-faulted fleet.
FLEETS = {
    "stock16": (("switch1", "switch2", "switch3", "ovs"), 16, None),
    "chaos4": (("switch1", "switch2"), 4, "chaos"),
}

IN_FLIGHT = (1, 2, 4, None)

#: Same-time orders to compare against the normal one: reversed, or a
#: shuffle with the given seed.
ORDERS = {"reversed": None, "shuffle-1": 1, "shuffle-2": 2}


class TieBreakQueue(EventQueue):
    """An event queue whose same-time order is ``tie_break(insertion index)``."""

    def __init__(self, tie_break) -> None:
        super().__init__()
        self._tie_break = tie_break

    def push(self, time_ms, action):
        event = Event(
            time_ms=time_ms,
            sequence=self._tie_break(next(self._counter)),
            action=action,
        )
        heapq.heappush(self._heap, event)
        return event


def _simulator(order):
    """A fresh simulator whose same-time events pop in ``order``."""
    rng = random.Random(order)
    sim = Simulator()
    sim.queue = TieBreakQueue(
        (lambda index: -index) if order is None else (lambda index: rng.random())
    )
    return sim


def _run_fleet(fleet, max_in_flight):
    names, size, scenario = FLEETS[fleet]
    members = build_fleet([VENDOR_PROFILES[name] for name in names], size)
    injector = retry = None
    if scenario is not None:
        injector = FaultInjector(FAULT_SCENARIOS[scenario].plan(0))
        retry = RetryPolicy()
    metrics = MetricsRegistry()
    engine = FleetInferenceEngine(
        members,
        max_in_flight=max_in_flight,
        fault_injector=injector,
        retry_policy=retry,
        instruments=Instruments(metrics=metrics),
        **FAST,
    )
    result = engine.infer_fleet()
    scores = engine.scores
    return {
        "summary": result.summary(),
        "models": {m.name: m.model.to_dict() for m in result.members},
        "db": {
            record.key: (repr(record.value), record.recorded_at_ms, record.source)
            for record in scores.records()
        },
        "db_order": {
            switch: [record.key for record in scores.records_for_switch(switch)]
            for switch in scores.switches()
        },
        "metrics": metrics.snapshot(),
    }


@pytest.mark.parametrize("max_in_flight", IN_FLIGHT, ids=lambda k: f"k={k}")
@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_same_time_order_never_changes_the_outputs(monkeypatch, fleet, max_in_flight):
    normal = _run_fleet(fleet, max_in_flight)
    # A stored value whose repr carried an object address would differ
    # between identical runs.
    assert all(" at 0x" not in value for value, _, _ in normal["db"].values())
    for name, order in ORDERS.items():
        with monkeypatch.context() as patch:
            patch.setattr(fleet_module, "Simulator", lambda: _simulator(order))
            perturbed = _run_fleet(fleet, max_in_flight)
        for part in normal:
            assert perturbed[part] == normal[part], (name, part)


def test_the_perturbed_queue_keeps_causality_and_reverses_peers():
    sim = _simulator(None)
    fired = []
    sim.schedule_at(1.0, lambda: fired.append("a"))
    sim.schedule_at(1.0, lambda: fired.append("b"))

    def parent():
        fired.append("parent")
        sim.call_soon(lambda: fired.append("child"))

    sim.schedule_at(1.0, parent)
    sim.schedule_at(0.5, lambda: fired.append("early"))
    sim.run()
    # Peers pop newest first; the child, pushed by its parent, pops
    # after it and ahead of the peers still pending.
    assert fired == ["early", "parent", "child", "b", "a"]


# -- member lookup ---------------------------------------------------------------
def test_reprobe_member_rejects_an_unknown_name():
    members = build_fleet([VENDOR_PROFILES["switch1"]], 1)
    engine = FleetInferenceEngine(members, **FAST)
    with pytest.raises(KeyError, match="no fleet member named 'nope'"):
        engine.reprobe_member("nope")
