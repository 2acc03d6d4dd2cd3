"""Property tests for the tail-cost planner's level maintenance.

Random DAGs on one or two switches, with non-dyadic estimates, are
driven through random sequences of ``complete``/``undo``/``commit`` and
tail-only leaf evaluations.  After every step the planner's levels must
equal a from-scratch recomputation; within one completion a request
moves at most once, and by exactly one level; a leaf evaluation returns
the tail a real complete would leave, bit for bit, and leaves the
planner exactly as it found it.
"""

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import TailCostPlanner
from repro.core.requests import RequestDag
from repro.core.scheduler import PrefixTangoScheduler
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.perf.workloads import fast_executor

COMMANDS = (FlowModCommand.ADD, FlowModCommand.MODIFY, FlowModCommand.DELETE)
LOCATIONS = ("a", "b")


@st.composite
def planners(draw):
    """A random DAG and a fresh planner over it."""
    n = draw(st.integers(min_value=1, max_value=28))
    n_switches = draw(st.integers(min_value=1, max_value=2))
    dag = RequestDag()
    requests = [
        dag.new_request(
            LOCATIONS[draw(st.integers(0, n_switches - 1))],
            draw(st.sampled_from(COMMANDS)),
            Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32)),
            priority=draw(st.integers(1, 8)),
        )
        for i in range(n)
    ]
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
    )
    for a, b in sorted({(a, b) for a, b in pairs if a < b}):
        dag.add_dependency(requests[a], requests[b], check_cycle=False)
    # Tenths are not binary fractions: the tail's float order shows.
    estimates = {r.request_id: 0.1 * draw(st.integers(0, 9)) for r in requests}

    def estimate(request):
        return estimates[request.request_id]

    patterns = PrefixTangoScheduler(
        fast_executor(*LOCATIONS), estimate=estimate
    ).oracle.patterns
    return dag, TailCostPlanner(dag.simulation(), estimate, patterns)


def _fresh_levels(dag: RequestDag, completed) -> Dict[int, int]:
    """Greedy levels of the pending requests, recomputed from scratch."""
    levels: Dict[int, int] = {}
    for rid in dag.topological_order():
        if rid in completed:
            continue
        pending = [levels[p] for p in dag.predecessor_ids(rid) if p not in completed]
        levels[rid] = 1 + max(pending) if pending else 0
    return levels


def _check_levels(planner: TailCostPlanner, dag: RequestDag, completed) -> None:
    shift = planner._shift
    levels = {rid: raw - shift for rid, raw in planner._level.items()}
    assert levels == _fresh_levels(dag, completed)
    for raw, level in planner._levels.items():
        members = {rid for rid, at in planner._level.items() if at == raw}
        assert level.members == members
        assert sum(level.counts.values()) == len(members)


def _snapshot(planner: TailCostPlanner):
    """Everything a leaf evaluation must leave untouched, floats as hex."""
    levels = {
        raw: (
            frozenset(level.members),
            None if level.ordered is None else tuple(level.ordered),
            tuple(level.commands),
            tuple(sorted((loc, value.hex()) for loc, value in level.loads.items())),
            tuple(sorted(level.counts.items())),
            level.makespan.hex(),
            level.unlocking,
        )
        for raw, level in planner._levels.items()
    }
    return (
        dict(planner._level),
        levels,
        planner._tail.hex(),
        planner.fingerprint,
        planner._shift,
        planner._completed,
        len(planner._frames),
    )


def _recording_moves(planner: TailCostPlanner) -> List[tuple]:
    """Record every ``(request, raw level)`` a request is added to."""
    moves: List[tuple] = []
    add = planner._add_to_level

    def recording(rid, raw, journal, leaf=False):
        moves.append((rid, raw))
        add(rid, raw, journal, leaf)

    planner._add_to_level = recording
    return moves


def _check_moves(moves: List[tuple], before: Dict[int, int]) -> None:
    moved = [rid for rid, _ in moves]
    assert len(moved) == len(set(moved)), "a request moved twice"
    for rid, raw in moves:
        assert raw == before[rid] - 1, "a request moved by more than one level"


@settings(max_examples=120, deadline=None)
@given(planners(), st.data())
def test_levels_moves_and_leaves_under_random_operations(built, data):
    dag, planner = built
    moves = _recording_moves(planner)
    completed = set()
    frames: List[List[int]] = []  # the ids each open complete() finished
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        ready = [r.request_id for r in planner.head_requests(planner.ready_count)]
        action = data.draw(
            st.sampled_from(("complete", "commit", "undo", "leaf")), label="action"
        )
        if action == "undo":
            if not frames:
                continue
            planner.undo()
            completed.difference_update(frames.pop())
        elif not ready:
            continue
        elif action == "leaf":
            if len(ready) < 2:
                continue
            # A plan node's leaves: nested prefixes of one order, sharing
            # their frontier removals.
            order = data.draw(st.permutations(ready), label="order")
            cuts = sorted(
                set(data.draw(st.lists(st.integers(1, len(ready) - 1), min_size=1)))
            )
            expected = []
            for cut in cuts:
                planner.complete(order[:cut])
                expected.append(planner.plan(0)[0].hex())
                planner.undo()
            before = _snapshot(planner)
            calls = planner.plan_calls
            removals: List[tuple] = []
            removed = 0
            for cut, tail in zip(cuts, expected):
                moves.clear()
                assert planner._leaf_rest(order[:cut], removed, removals).hex() == tail
                _check_moves(moves, before[0])
                removed = cut
            planner._replay_inverse(removals, True)
            assert planner.plan_calls == calls + len(cuts)
            assert _snapshot(planner) == before
        elif action == "commit" and frames:
            continue  # the scheduler commits only with no frame open
        else:
            order = data.draw(st.permutations(ready), label="order")
            rids = order[: data.draw(st.integers(1, len(ready)), label="size")]
            before = dict(planner._level)
            moves.clear()
            if action == "commit":
                planner.commit(rids)
            else:
                planner.complete(rids)
                frames.append(rids)
            completed.update(rids)
            _check_moves(moves, before)
        _check_levels(planner, dag, completed)
