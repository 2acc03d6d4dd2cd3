"""Golden schedules for the four Tango schedulers.

Each case runs one scheduler on one DAG with a tracer, a metrics
registry and the default telemetry collector attached, and pins the
schedule (makespan, rounds, pattern choices, fault retries and a digest
of every ``(request_id, started_ms, finished_ms)`` record) together with
the sha256 of the trace JSONL and the telemetry JSONL.  The same run
with nothing attached must produce the same schedule.  Any change to the
scheduling loop must leave every value here unchanged.

The runs: the triangle testbed's link-failure scenario, the same
scenario under the seeded ``disconnect`` fault plan, a two-switch DAG
whose deadlines force :class:`DeadlineAwareTangoScheduler` to promote
urgent requests, and a three-switch dependency chain on which
:class:`ConcurrentTangoScheduler` releases requests early.
"""

import hashlib

import pytest

from repro.core.requests import RequestDag
from repro.core.scheduler import (
    BasicTangoScheduler,
    ConcurrentTangoScheduler,
    DeadlineAwareTangoScheduler,
    PrefixTangoScheduler,
)
from repro.faults import FaultInjector
from repro.netem.network import EmulatedNetwork
from repro.netem.scenarios import FAULT_SCENARIOS, LinkFailureScenario
from repro.netem.topology import triangle_topology
from repro.obs import Instruments, MetricsRegistry, Tracer, default_collector
from repro.obs.export import jsonl_lines
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.sim.rng import SeededRng
from repro.switches import VENDOR_PROFILES

SEED = 7


def _estimate(request):
    """Non-dyadic estimates, so float summation order shows."""
    return 0.1 * (1 + request.priority % 7)


def _triangle():
    network = EmulatedNetwork(
        triangle_topology(),
        default_profile=VENDOR_PROFILES["switch1"],
        profiles={"s3": VENDOR_PROFILES["switch3"]},
        seed=SEED,
    )
    rng = SeededRng(SEED).child("cli-flows")
    for _ in range(40):
        network.new_flow("s1", "s2", priority=rng.randint(1, 2000))
    network.preinstall_flow_rules()
    return network


def _lf_dag(network):
    return LinkFailureScenario(network, ("s1", "s2")).build_dag().dag


def _match(index):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(0x0A000000 + index, 32))


def _deadline_dag(network):
    """Per switch, 12 ADDs in ascending priority; every fourth carries a
    deadline that the pattern's ascending order overshoots."""
    dag = RequestDag()
    for location in ("s1", "s3"):
        previous = []
        for index in range(12):
            deadline = 1.0 + 0.2 * index if index % 4 == 3 else None
            request = dag.new_request(
                location,
                FlowModCommand.ADD,
                _match(index),
                priority=100 + index,
                install_by_ms=deadline,
                after=previous if index % 3 == 0 else (),
            )
            previous = [request]
    return dag


def _cross_switch_dag(network):
    """Dependency chains hopping s1 -> s3 -> s2, plus independent ADDs."""
    dag = RequestDag()
    for index in range(10):
        first = dag.new_request(
            "s1", FlowModCommand.ADD, _match(index), priority=10 + index
        )
        second = dag.new_request(
            "s3", FlowModCommand.ADD, _match(index), priority=10 + index, after=[first]
        )
        dag.new_request(
            "s2", FlowModCommand.ADD, _match(index), priority=10 + index, after=[second]
        )
        dag.new_request("s3", FlowModCommand.ADD, _match(100 + index), priority=5)
    return dag


SCHEDULERS = {
    "basic": lambda ex: BasicTangoScheduler(ex),
    "prefix": lambda ex: PrefixTangoScheduler(ex, _estimate),
    "deadline": lambda ex: DeadlineAwareTangoScheduler(ex, _estimate),
    "concurrent": lambda ex: ConcurrentTangoScheduler(ex, _estimate, guard_ms=0.25),
}

DAGS = {"lf": _lf_dag, "deadline": _deadline_dag, "cross": _cross_switch_dag}


def _run(scheduler, dag_name, faulted, instruments):
    network = _triangle()
    dag = DAGS[dag_name](network)
    injector = (
        FaultInjector(FAULT_SCENARIOS["disconnect"].plan(SEED)) if faulted else None
    )
    executor = network.executor(fault_injector=injector, instruments=instruments)
    result = SCHEDULERS[scheduler](executor).schedule(dag)
    instruments.finish(executor.now_ms())
    records = repr(
        [(r.request.request_id, r.started_ms, r.finished_ms) for r in result.records]
    )
    return {
        "makespan_ms": result.makespan_ms,
        "rounds": result.rounds,
        "pattern_choices": result.pattern_choices,
        "fault_retries": result.fault_retries,
        "records": hashlib.sha256(records.encode()).hexdigest(),
    }


def _digest(records):
    return hashlib.sha256("\n".join(jsonl_lines(records)).encode()).hexdigest()


#: (scheduler, DAG, faulted, expected schedule, trace digest, telemetry digest)
CASES = [
    (
        "basic",
        "lf",
        False,
        {
            "makespan_ms": 126.99306573179655,
            "rounds": 2,
            "pattern_choices": ["DEL MOD ASCEND_ADD"] * 2,
            "fault_retries": 0,
            "records": "1c5e45f7fc6d587c84aa0d6961f32997bb0321dad2e5ca533fc73216cb6cedf2",
        },
        "d80fa8fd688d353dd6c18f673ba291cc1dd568e1b4f5b5f59497e605d056b4ad",
        "9fe3b607eef2533d8ed820cd99529f35f099bc5527719273166e280e41faf475",
    ),
    (
        "basic",
        "lf",
        True,
        {
            "makespan_ms": 171.9181257097787,
            "rounds": 3,
            "pattern_choices": ["DEL MOD ASCEND_ADD"] * 3,
            "fault_retries": 40,
            "records": "2d7df7a0d2934d7623b8dde1ad0724298b5020b072251720606c23fa25080fa9",
        },
        "b8aac364f100520b08481d549694d5c77a5439e0dfcbd00cb70e6ca4bdeb353d",
        "6c0b3f48aec6cd97020b5b254ab5cdea8909dd6ac3fe7ff390f5520bfee7d828",
    ),
    (
        "prefix",
        "lf",
        False,
        {
            "makespan_ms": 126.99306573179655,
            "rounds": 14,
            "pattern_choices": ["DEL MOD ASCEND_ADD"] * 14,
            "fault_retries": 0,
            "records": "f8d83c4b13739a1b8ac026c9e41f75c7d6b786d9fd4cad6e3392bede7512fd7e",
        },
        "cc3dae64545241cdf60b920b535efd9405ea3773c6aa03be7efd6c888547500b",
        "5634368138d685419c6b884844ec5f55811c5403facb5169a03be1a0f6842842",
    ),
    (
        "prefix",
        "lf",
        True,
        {
            "makespan_ms": 171.9181257097787,
            "rounds": 15,
            "pattern_choices": ["DEL MOD ASCEND_ADD"] * 15,
            "fault_retries": 3,
            "records": "c5a8b66217c2791544953285c2f89119dde8f39bcde9beaf4fd679c023e6d1f8",
        },
        "7c8165e996bc7260cbe34b1fa8561d0cfcc2bfc0a44f6b55de3781fa986b4d2a",
        "3faba3f7b217e5439597107622dd373f53e31cf366778cdc5f20298b38d86fd9",
    ),
    (
        "deadline",
        "lf",
        False,
        {
            "makespan_ms": 126.99306573179655,
            "rounds": 2,
            "pattern_choices": ["DEL MOD ASCEND_ADD"] * 2,
            "fault_retries": 0,
            "records": "1c5e45f7fc6d587c84aa0d6961f32997bb0321dad2e5ca533fc73216cb6cedf2",
        },
        "63caaac13798b82c9584cc0263dbfc44325794fc16bb445c67304f61e652dbff",
        "615b8349533efabb441d7a2122a9d08e03477b8901c09fa8f4877ddac6889bf1",
    ),
    (
        "deadline",
        "lf",
        True,
        {
            "makespan_ms": 171.9181257097787,
            "rounds": 3,
            "pattern_choices": ["DEL MOD ASCEND_ADD"] * 3,
            "fault_retries": 40,
            "records": "2d7df7a0d2934d7623b8dde1ad0724298b5020b072251720606c23fa25080fa9",
        },
        "0dc124ec69b97a8dcfa15e594879c5ed52d1b946c14c02fced8cb9154beacac5",
        "eb92837954cd2441d6b3efd967af228a210136c58b1c366e25b41e81845af088",
    ),
    (
        "deadline",
        "deadline",
        False,
        {
            "makespan_ms": 15.77912088626131,
            "rounds": 2,
            "pattern_choices": ["DEL MOD ASCEND_ADD"] * 2,
            "fault_retries": 0,
            "records": "2484d471ad314210845e2f6aae7ad177eb5796ae65703fb4d72d4d14fb1cb41b",
        },
        "4f481be26363672f22d8bd2de7e15f5487fa6b637130c75888eac79332718e66",
        "8f46439405e06ed074fb936337627db9b25c4385f1dcb770e2577e5ba7ac53a2",
    ),
    (
        "concurrent",
        "lf",
        False,
        {
            "makespan_ms": 126.64306573179653,
            "rounds": 2,
            "pattern_choices": ["DEL MOD ASCEND_ADD"] * 2,
            "fault_retries": 0,
            "records": "04267e5c4c7efc0ce3b5477c8bb3a5bcd620219ba46ad81a47b8e9d94fc37c24",
        },
        "05f846f11bce849b416149b4699e6f8a623cf21724e7f8d126f8f90ac714e6d1",
        "7cf13416281e53de9d7e1bb3a0bba0c38a8cba6324bd3d7a7021f7fe1d86f7ae",
    ),
    (
        "concurrent",
        "lf",
        True,
        {
            "makespan_ms": 171.5681257097787,
            "rounds": 3,
            "pattern_choices": ["DEL MOD ASCEND_ADD"] * 3,
            "fault_retries": 40,
            "records": "57fab8b3a3024ad7e799217d1312e771ee39589adb02b2aed069901c495e153b",
        },
        "049188d6494a503406c55c50130a4c77743ecdf3a5ec9a946d9c751c04e44711",
        "2ad8ce273f002c439cb709a14b0f14181799dbfbf694cf2a8d5c5825a8829b20",
    ),
    (
        "concurrent",
        "cross",
        False,
        {
            "makespan_ms": 20.528742409548343,
            "rounds": 3,
            "pattern_choices": ["DEL MOD ASCEND_ADD"] * 3,
            "fault_retries": 0,
            "records": "e761e2ca153b12af69915ff39f5d344981e6cd1ebee5c6c53fefc69bdecc0d59",
        },
        "c2e4040dfbc144652ca89c1e503b58eaad54a69a15485b5615dc09a7dc2e1c5c",
        "66c5231b07da5a177ee2cd26a4c25eb7b88b2ad6fc8ef3d9ba8e4053b7c027ea",
    ),
]


@pytest.mark.parametrize(
    "scheduler, dag_name, faulted, expected, trace, telemetry",
    CASES,
    ids=[f"{c[0]}-{c[1]}{'-faulted' if c[2] else ''}" for c in CASES],
)
def test_schedule_and_streams_are_pinned(
    scheduler, dag_name, faulted, expected, trace, telemetry
):
    tracer, collector = Tracer(), default_collector()
    instruments = Instruments(tracer, MetricsRegistry(), telemetry=collector)
    attached = _run(scheduler, dag_name, faulted, instruments)
    assert attached == expected
    assert _digest(tracer.events) == trace
    assert _digest(collector.samples) == telemetry
    assert _run(scheduler, dag_name, faulted, Instruments()) == expected
