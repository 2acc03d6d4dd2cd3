"""Tests for switch requests and the request DAG."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.requests import RequestDag, SwitchRequest
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.sim.rng import SeededRng


def _match(i):
    return Match(eth_type=0x0800, ip_dst=IpPrefix(i, 32))


def _dag_with_chain(n=3):
    dag = RequestDag()
    previous = None
    requests = []
    for i in range(n):
        request = dag.new_request(
            location="s1",
            command=FlowModCommand.ADD,
            match=_match(i),
            priority=i,
            after=[previous] if previous else (),
        )
        requests.append(request)
        previous = request
    return dag, requests


def test_new_request_assigns_unique_ids():
    dag = RequestDag()
    a = dag.new_request("s1", FlowModCommand.ADD, _match(1))
    b = dag.new_request("s2", FlowModCommand.DELETE, _match(2))
    assert a.request_id != b.request_id
    assert len(dag) == 2


def test_flow_mod_conversion():
    dag = RequestDag()
    request = dag.new_request(
        "s1", FlowModCommand.ADD, _match(1), priority=7, install_by_ms=50.0
    )
    flow_mod = request.mod
    assert flow_mod.command is FlowModCommand.ADD
    assert flow_mod.priority == 7
    assert flow_mod.install_by_ms == 50.0


def test_duplicate_request_rejected():
    dag = RequestDag()
    request = dag.new_request("s1", FlowModCommand.ADD, _match(1))
    with pytest.raises(ValueError):
        dag.add_request(request)


def test_cycle_rejected():
    dag, requests = _dag_with_chain(2)
    with pytest.raises(ValueError):
        dag.add_dependency(requests[1], requests[0])
    # The failed edge must not linger.
    assert dag.independent_requests() == [requests[0]]


def test_independent_requests_respect_dependencies():
    dag, requests = _dag_with_chain(3)
    assert dag.independent_requests() == [requests[0]]
    dag.mark_done(requests[0])
    assert dag.independent_requests() == [requests[1]]


def test_mark_done_unknown_rejected():
    dag = RequestDag()
    other = RequestDag().new_request("s", FlowModCommand.ADD, _match(1))
    with pytest.raises(KeyError):
        dag.mark_done(other)


def test_is_done_and_pending():
    dag, requests = _dag_with_chain(2)
    assert not dag.is_done()
    assert len(dag.pending()) == 2
    for request in requests:
        dag.mark_done(request)
    assert dag.is_done()
    assert dag.pending() == []


def test_reset_forgets_completion():
    dag, requests = _dag_with_chain(2)
    dag.mark_done(requests[0])
    dag.reset()
    assert dag.independent_requests() == [requests[0]]


def test_dependencies_of():
    dag, requests = _dag_with_chain(3)
    assert dag.dependencies_of(requests[0]) == []
    assert dag.dependencies_of(requests[2]) == [requests[1]]


def test_critical_path_lengths():
    dag, requests = _dag_with_chain(3)
    lengths = dag.critical_path_lengths()
    assert lengths[requests[0].request_id] == 3
    assert lengths[requests[2].request_id] == 1


def test_depth():
    dag, _ = _dag_with_chain(4)
    assert dag.depth() == 4
    flat = RequestDag()
    for i in range(5):
        flat.new_request("s", FlowModCommand.ADD, _match(i))
    assert flat.depth() == 1
    assert RequestDag().depth() == 0


def test_diamond_dependencies():
    dag = RequestDag()
    top = dag.new_request("s", FlowModCommand.ADD, _match(0))
    left = dag.new_request("s", FlowModCommand.ADD, _match(1), after=[top])
    right = dag.new_request("s", FlowModCommand.ADD, _match(2), after=[top])
    bottom = dag.new_request("s", FlowModCommand.ADD, _match(3), after=[left, right])
    dag.mark_done(top)
    assert set(r.request_id for r in dag.independent_requests()) == {
        left.request_id,
        right.request_id,
    }
    dag.mark_done(left)
    assert bottom not in dag.independent_requests()
    dag.mark_done(right)
    assert dag.independent_requests() == [bottom]


# -- incremental ready set / query API ----------------------------------------
def test_independent_requests_report_insertion_order():
    dag = RequestDag()
    requests = [
        dag.new_request("s", FlowModCommand.ADD, _match(i), priority=50 - i)
        for i in range(6)
    ]
    assert dag.independent_requests() == requests


def test_mark_done_is_idempotent():
    dag, requests = _dag_with_chain(3)
    dag.mark_done(requests[0])
    dag.mark_done(requests[0])  # second completion must not double-decrement
    assert dag.independent_requests() == [requests[1]]


def test_successors_and_predecessor_ids():
    dag, requests = _dag_with_chain(3)
    assert dag.successors_of(requests[0]) == [requests[1]]
    assert dag.successors_of(requests[2]) == []
    assert dag.predecessor_ids(requests[1].request_id) == [requests[0].request_id]
    assert dag.successor_ids(requests[1].request_id) == [requests[2].request_id]
    assert dag.edge_ids() == [
        (requests[0].request_id, requests[1].request_id),
        (requests[1].request_id, requests[2].request_id),
    ]


def test_ready_after_is_stateless():
    dag, requests = _dag_with_chain(3)
    assert dag.ready_after(()) == [requests[0]]
    assert dag.ready_after({requests[0].request_id}) == [requests[1]]
    # The live completion state is untouched.
    assert dag.independent_requests() == [requests[0]]


def test_dependency_on_unknown_request_rejected():
    dag = RequestDag()
    known = dag.new_request("s", FlowModCommand.ADD, _match(0))
    stranger = SwitchRequest(999, "s", FlowMod(FlowModCommand.ADD, _match(1)))
    with pytest.raises(KeyError):
        dag.add_dependency(known, stranger)
    with pytest.raises(KeyError):
        dag.add_dependency(stranger, known)


def test_duplicate_dependency_is_idempotent():
    dag = RequestDag()
    a = dag.new_request("s", FlowModCommand.ADD, _match(0))
    b = dag.new_request("s", FlowModCommand.ADD, _match(1))
    dag.add_dependency(a, b)
    dag.add_dependency(a, b)  # no double-count of b's pending in-edges
    dag.mark_done(a)
    assert dag.independent_requests() == [b]


def test_rejected_cycle_leaves_counters_intact():
    dag = RequestDag()
    a = dag.new_request("s", FlowModCommand.ADD, _match(0))
    b = dag.new_request("s", FlowModCommand.ADD, _match(1))
    dag.add_dependency(a, b)
    with pytest.raises(ValueError):
        dag.add_dependency(b, a)
    assert dag.independent_requests() == [a]
    dag.mark_done(a)
    assert dag.independent_requests() == [b]


def test_self_edge_on_fresh_request_rejected_without_mutation():
    """A fresh request is a sink, so its cycle check takes the O(1) path;
    the self-edge must still be refused with nothing changed."""
    dag = RequestDag()
    a = dag.new_request("s", FlowModCommand.ADD, _match(0))
    with pytest.raises(ValueError):
        dag.add_dependency(a, a)
    assert dag.ops.cycle_visits == 1  # the one visit _reaches makes
    assert dag.edge_ids() == []
    assert dag.successor_ids(a.request_id) == []
    assert dag.predecessor_ids(a.request_id) == []
    assert dag.independent_requests() == [a]
    assert dag.is_acyclic()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sink_fast_path_matches_full_search(seed):
    """Seeded random DAG growth: every checked edge is accepted or
    rejected exactly as the full descendant search decides, at the same
    ``cycle_visits`` cost, whether or not ``then`` is a sink."""
    rng = SeededRng(seed).child("dag")
    dag = RequestDag()
    nodes = [dag.new_request("s", FlowModCommand.ADD, _match(0))]
    sink_checks = 0
    for step in range(400):
        if rng.uniform() < 0.3:
            nodes.append(dag.new_request("s", FlowModCommand.ADD, _match(step + 1)))
        first, then = rng.choice(nodes), rng.choice(nodes)
        fid, tid = first.request_id, then.request_id
        edges = dag.edge_ids()
        visits = dag.ops.cycle_visits
        if (fid, tid) in edges:
            want_cycle, want_visits = False, 0  # idempotent: no search
        else:
            want_cycle = dag._reaches(tid, fid)
            want_visits = dag.ops.cycle_visits - visits
            dag.ops.cycle_visits = visits
            sink_checks += not dag.successor_ids(tid)
        if want_cycle:
            with pytest.raises(ValueError):
                dag.add_dependency(first, then)
            assert dag.edge_ids() == edges
        else:
            dag.add_dependency(first, then)
            assert (fid, tid) in dag.edge_ids()
        assert dag.ops.cycle_visits - visits == want_visits
    assert dag.is_acyclic()
    assert sink_checks > 50  # the fast path was exercised


def test_critical_path_cache_invalidated_on_mutation():
    dag, requests = _dag_with_chain(2)
    first = dag.critical_path_lengths()
    assert first[requests[0].request_id] == 2
    # Returned dict is a private copy.
    first[requests[0].request_id] = 99
    assert dag.critical_path_lengths()[requests[0].request_id] == 2
    tail = dag.new_request("s", FlowModCommand.ADD, _match(9), after=[requests[1]])
    lengths = dag.critical_path_lengths()
    assert lengths[requests[0].request_id] == 3
    assert lengths[tail.request_id] == 1


def test_cycle_check_helpers():
    dag, requests = _dag_with_chain(3)
    assert dag.is_acyclic()
    assert dag.find_cycle_ids() == []
    assert dag.topological_order() == [r.request_id for r in requests]


# -- ReadySimulation ----------------------------------------------------------
def test_simulation_complete_and_undo_round_trip():
    dag, requests = _dag_with_chain(3)
    sim = dag.simulation()
    assert sim.ready() == [requests[0]]
    sim.complete([requests[0].request_id])
    assert sim.ready() == [requests[1]]
    sim.complete([requests[1].request_id])
    assert sim.ready() == [requests[2]]
    sim.undo()
    assert sim.ready() == [requests[1]]
    sim.undo()
    assert sim.ready() == [requests[0]]
    # The DAG itself never saw any completion.
    assert dag.independent_requests() == [requests[0]]


def test_simulation_rejects_double_completion():
    dag, requests = _dag_with_chain(2)
    sim = dag.simulation()
    sim.complete([requests[0].request_id])
    with pytest.raises(ValueError):
        sim.complete([requests[0].request_id])


def test_simulation_complete_is_atomic_on_error():
    """A rejected batch must leave the cursor untouched -- no partially
    applied frame that undo() cannot revert."""
    dag, requests = _dag_with_chain(3)
    sim = dag.simulation()
    sim.complete([requests[0].request_id])
    with pytest.raises(ValueError):
        # Second id is already done; the first must NOT be applied.
        sim.complete([requests[1].request_id, requests[0].request_id])
    assert sim.ready() == [requests[1]]  # unchanged
    sim.undo()  # only the original frame exists
    assert sim.ready() == [requests[0]]
    with pytest.raises(IndexError):
        sim.undo()


def test_simulation_complete_rejects_duplicates_in_batch():
    dag, requests = _dag_with_chain(2)
    sim = dag.simulation()
    with pytest.raises(ValueError):
        sim.complete([requests[0].request_id, requests[0].request_id])
    assert sim.ready() == [requests[0]]  # nothing applied


def test_simulation_undo_without_frames_raises():
    dag, _ = _dag_with_chain(2)
    with pytest.raises(IndexError):
        dag.simulation().undo()


def test_simulation_commit_is_permanent_and_idempotent():
    dag, requests = _dag_with_chain(3)
    sim = dag.simulation()
    sim.commit([requests[0].request_id])
    sim.commit([requests[0].request_id])  # already done: no-op
    assert sim.ready() == [requests[1]]
    with pytest.raises(IndexError):
        sim.undo()  # commits push no undo frames


def test_simulation_seeded_with_done_set():
    dag, requests = _dag_with_chain(3)
    sim = dag.simulation({requests[0].request_id, requests[1].request_id})
    assert sim.ready() == [requests[2]]
    sim.complete([requests[2].request_id])
    assert sim.is_done()


# -- new_request(after=...) against the per-edge loop ----------------------------
@st.composite
def sink_link_specs(draw):
    """A base DAG (forward edges, some nodes done) plus the parent list of
    one new request: node indices with repeats, and now and then an
    unknown request or the new request itself."""
    n = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    done = draw(st.lists(node, max_size=n))
    parent = st.one_of(node, node, node, st.sampled_from(["unknown", "self"]))
    return n, edges, done, draw(st.lists(parent, max_size=3 * n))


def _sink_link_base(n, edges, done):
    dag = RequestDag()
    requests = [dag.new_request("s1", FlowModCommand.ADD, _match(i)) for i in range(n)]
    for a, b in edges:
        if a < b:
            dag.add_dependency(requests[a], requests[b])
    for i in done:
        dag.mark_done(requests[i])
    return dag, requests


def _sink_link_parents(dag, requests, tokens):
    def resolve(token):
        if token == "unknown":
            return SwitchRequest(10_000, "s1", FlowMod(FlowModCommand.ADD, _match(0)))
        if token == "self":  # the id the new request is about to get
            return SwitchRequest(len(dag), "s1", FlowMod(FlowModCommand.ADD, _match(0)))
        return requests[token]

    return [resolve(token) for token in tokens]


def _sink_link_state(dag):
    state = (
        [(rid, list(succ)) for rid, succ in dag._succ.items()],
        [(rid, list(pred)) for rid, pred in dag._pred.items()],
        dag._edge_count,
        dict(dag._pending),
        sorted(dag._ready),
        dag._critical_cache,
        dataclasses.asdict(dag.ops),
    )
    return state + (
        [r.request_id for r in dag.independent_requests()],
        dag.critical_path_lengths(),
        dataclasses.asdict(dag.ops),
    )


@settings(max_examples=300, deadline=None)
@given(sink_link_specs())
def test_new_request_after_matches_per_edge_loop(spec):
    """``new_request(after=...)`` leaves exactly the edges (in order),
    counters and ready state that ``add_dependency`` per parent leaves,
    including after the ``KeyError``/``ValueError`` of a bad parent."""
    n, edges, done, tokens = spec
    outcomes = []
    for one_step in (True, False):
        dag, requests = _sink_link_base(n, edges, done)
        parents = _sink_link_parents(dag, requests, tokens)
        try:
            if one_step:
                dag.new_request("s1", FlowModCommand.ADD, _match(n), after=iter(parents))
            else:
                request = dag.new_request("s1", FlowModCommand.ADD, _match(n))
                for parent in parents:
                    dag.add_dependency(parent, request)
            error = None
        except (KeyError, ValueError) as exc:
            error = (type(exc), str(exc))
        outcomes.append((error, _sink_link_state(dag)))
    assert outcomes[0] == outcomes[1]


def test_new_request_after_keeps_edges_before_unknown_parent():
    dag = RequestDag()
    a = dag.new_request("s", FlowModCommand.ADD, _match(0))
    b = dag.new_request("s", FlowModCommand.ADD, _match(1))
    stranger = SwitchRequest(999, "s", FlowMod(FlowModCommand.ADD, _match(2)))
    with pytest.raises(KeyError, match="999"):
        dag.new_request("s", FlowModCommand.ADD, _match(3), after=[a, stranger, b])
    assert dag.edge_ids() == [(a.request_id, 2)]
    assert dag.ops.cycle_visits == 1
    assert [r.request_id for r in dag.independent_requests()] == [0, 1]
    dag.mark_done(a)
    assert [r.request_id for r in dag.independent_requests()] == [1, 2]
