"""Switch requests and the switch-request DAG (paper Section 6).

A *switch request* is one rule operation targeted at one switch::

    req_elem = {'location': switch_id,
                'type':     add | del | mod,
                'priority': priority number or none,
                'rule parameters': match, action,
                'install_by': ms or best effort}

Requests may depend on each other (consistent-update ordering, barrier
priorities for negation); the dependencies form a directed acyclic graph
that the Tango scheduler consumes.

Scheduling queries are *incremental*: the DAG maintains a per-node
pending-predecessor counter and a ready set, so
:meth:`RequestDag.independent_requests` costs O(ready) and
:meth:`RequestDag.mark_done` costs O(out-degree) instead of rescanning
all V requests per round (which made chain-heavy DAGs quadratic).
:meth:`RequestDag.critical_path_lengths` is cached and invalidated on
structural mutation.  Lookahead schedulers that explore hypothetical
completion orders use :class:`ReadySimulation`, an undoable cursor over
the same counters that never copies the DAG.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.openflow.actions import Action, OutputAction
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand


class SwitchRequest(NamedTuple):
    """One rule operation bound for one switch.

    ``mod`` is the request's one :class:`FlowMod`, built (and validated)
    when the request is made and sent as is at every issue; the rule
    fields read through to it.
    """

    request_id: int
    location: str
    mod: FlowMod

    @property
    def command(self) -> FlowModCommand:
        return self.mod.command

    @property
    def match(self) -> Match:
        return self.mod.match

    @property
    def priority(self) -> int:
        return self.mod.priority

    @property
    def install_by_ms(self) -> Optional[float]:
        """The deadline in virtual ms; None = best effort."""
        return self.mod.install_by_ms


@dataclass
class DagOpCounters:
    """Algorithmic-work counters for the DAG's scheduling queries.

    These feed the scalability guard tests and the op-count bench cases
    (:mod:`repro.perf.harness`): they count *operations*, not wall time,
    so an accidental O(V*E)-per-round regression fails loudly and
    deterministically.

    Attributes:
        edge_visits: successor/predecessor edges touched while
            maintaining the ready set (``mark_done``, ``reset``).
        ready_yields: requests returned by ``independent_requests``.
        cycle_visits: nodes the ``add_dependency`` cycle check searched;
            construction work, so left out of :meth:`total`.
    """

    edge_visits: int = 0
    ready_yields: int = 0
    cycle_visits: int = 0

    def total(self) -> int:
        return self.edge_visits + self.ready_yields

    def clear(self) -> None:
        self.edge_visits = 0
        self.ready_yields = 0
        self.cycle_visits = 0


class RequestDag:
    """A DAG of switch requests.

    An edge ``a -> b`` means request ``a`` must complete before ``b`` is
    issued (e.g. reverse-path consistent updates, or barrier rules that
    implement negation).
    """

    def __init__(self) -> None:
        # Ordered sets ({id: None}) keyed by id, in insertion order.
        self._succ: Dict[int, Dict[int, None]] = {}
        self._pred: Dict[int, Dict[int, None]] = {}
        self._edge_count = 0
        self._requests: Dict[int, SwitchRequest] = {}
        self._done: Set[int] = set()
        self._ids = itertools.count()
        # Incremental scheduling state: number of not-yet-done
        # predecessors per node, the set of ready (pending, unblocked)
        # nodes, and each node's insertion sequence (ready sets are
        # reported in insertion order, matching the historical scan).
        self._pending: Dict[int, int] = {}
        self._ready: Set[int] = set()
        self._seq: Dict[int, int] = {}
        self._critical_cache: Optional[Dict[int, int]] = None
        self.ops = DagOpCounters()

    # -- construction ---------------------------------------------------------
    def new_request(
        self,
        location: str,
        command: FlowModCommand,
        match: Match,
        priority: int = 0,
        actions: Tuple[Action, ...] = (OutputAction(port=1),),
        install_by_ms: Optional[float] = None,
        after: Iterable[SwitchRequest] = (),
    ) -> SwitchRequest:
        """Create and add a request, optionally dependent on ``after``.

        Raises:
            ValueError: the rule is not a valid :class:`FlowMod`; the DAG
                and its id counter are left untouched.
        """
        mod = FlowMod(command, match, priority, actions, install_by_ms)
        request = SwitchRequest(next(self._ids), location, mod)
        self.add_request(request)
        self._link_sink(after, request.request_id)
        return request

    def add_request(self, request: SwitchRequest) -> None:
        if request.request_id in self._requests:
            raise ValueError(f"duplicate request id {request.request_id}")
        rid = request.request_id
        self._requests[rid] = request
        self._succ[rid] = {}
        self._pred[rid] = {}
        self._seq[rid] = len(self._seq)
        self._pending[rid] = 0
        self._ready.add(rid)
        self._critical_cache = None

    def add_dependency(
        self, first: SwitchRequest, then: SwitchRequest, check_cycle: bool = True
    ) -> None:
        """Require ``first`` to finish before ``then`` starts.

        Args:
            check_cycle: reject the edge if ``first`` is reachable from
                ``then`` (one search of ``then``'s descendants).  When
                ``then`` is a sink, only ``first is then`` can close a
                cycle, and the check is O(1).  Bulk constructors that add
                edges in a known topological order (e.g. ACL index order)
                may disable the check and call :meth:`validate_acyclic`
                once.

        Raises:
            KeyError: either endpoint was never added to this DAG.
            ValueError: if the edge would create a cycle (the upper layer
                must break dependency loops before scheduling).
        """
        fid, tid = first.request_id, then.request_id
        if fid not in self._requests or tid not in self._requests:
            missing = fid if fid not in self._requests else tid
            raise KeyError(f"unknown request {missing}")
        if tid in self._succ[fid]:
            return  # idempotent: the constraint already holds
        if check_cycle:
            if self._succ[tid]:
                cycle = self._reaches(tid, fid)
            else:
                # A sink's only descendant is itself: the one visit
                # _reaches would make.
                self.ops.cycle_visits += 1
                cycle = tid == fid
            if cycle:
                raise ValueError("dependency would create a cycle")
        self._succ[fid][tid] = None
        self._pred[tid][fid] = None
        self._edge_count += 1
        if fid not in self._done:
            self._pending[tid] += 1
            self._ready.discard(tid)
        self._critical_cache = None

    def _link_sink(self, parents: Iterable[SwitchRequest], rid: int) -> None:
        """Add ``parent -> rid`` for each parent of the fresh sink ``rid``.

        Leaves the edges, counters and errors (with the state up to the
        failing parent) that :meth:`add_dependency` per parent would, in
        one pass: a sink has no descendants, so only ``parent is rid``
        closes a cycle, and each new edge costs one ``cycle_visits``.
        """
        requests, succ, done = self._requests, self._succ, self._done
        preds = self._pred[rid]
        blocking = 0
        try:
            for parent in parents:
                pid = parent.request_id
                if pid in preds:
                    continue  # idempotent: the constraint already holds
                if pid not in requests:
                    raise KeyError(f"unknown request {pid}")
                if pid == rid:
                    self.ops.cycle_visits += 1
                    raise ValueError("dependency would create a cycle")
                succ[pid][rid] = None
                preds[pid] = None
                if pid not in done:
                    blocking += 1
        finally:
            if preds:
                self._edge_count += len(preds)
                self.ops.cycle_visits += len(preds)
                self._critical_cache = None
            if blocking:
                self._pending[rid] += blocking
                self._ready.discard(rid)

    def _reaches(self, source: int, target: int) -> bool:
        """True when ``target`` is ``source`` or one of its descendants."""
        seen, stack = {source}, [source]
        while stack:
            node = stack.pop()
            self.ops.cycle_visits += 1
            if node == target:
                return True
            fresh = [child for child in self._succ[node] if child not in seen]
            seen.update(fresh)
            stack.extend(fresh)
        return False

    def validate_acyclic(self) -> None:
        """Raise ValueError if the dependency graph contains a cycle."""
        self.topological_order()

    # -- scheduling queries --------------------------------------------------
    def __len__(self) -> int:
        return len(self._requests)

    @property
    def requests(self) -> List[SwitchRequest]:
        return list(self._requests.values())

    def pending(self) -> List[SwitchRequest]:
        return [r for rid, r in self._requests.items() if rid not in self._done]

    def is_done(self) -> bool:
        return len(self._done) == len(self._requests)

    @property
    def done_ids(self) -> frozenset:
        """Ids of the requests already marked done (read-only snapshot)."""
        return frozenset(self._done)

    def independent_requests(self) -> List[SwitchRequest]:
        """Pending requests whose dependencies have all completed.

        O(ready log ready): the ready set is maintained incrementally by
        :meth:`mark_done`; the sort restores insertion order.
        """
        ready = sorted(self._ready, key=self._seq.__getitem__)
        self.ops.ready_yields += len(ready)
        return [self._requests[rid] for rid in ready]

    def dependencies_of(self, request: SwitchRequest) -> List[SwitchRequest]:
        return [self._requests[p] for p in self._pred[request.request_id]]

    def successors_of(self, request: SwitchRequest) -> List[SwitchRequest]:
        """Requests that directly depend on ``request``."""
        return [self._requests[s] for s in self._succ[request.request_id]]

    def predecessor_ids(self, request_id: int) -> List[int]:
        """Ids of the requests ``request_id`` directly depends on."""
        return list(self._pred[request_id])

    def successor_ids(self, request_id: int) -> List[int]:
        """Ids of the requests that directly depend on ``request_id``."""
        return list(self._succ[request_id])

    def edge_ids(self) -> List[Tuple[int, int]]:
        """All dependency edges as ``(first_id, then_id)`` pairs."""
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def ready_after(self, done: Iterable[int]) -> List[SwitchRequest]:
        """Requests that would be ready if exactly ``done`` had completed.

        One O(V + E) pass over the DAG, independent of the live
        completion state; use :meth:`simulation` instead when exploring
        many hypothetical completion orders incrementally.
        """
        done_set = set(done)
        ready = []
        for rid, request in self._requests.items():
            if rid in done_set:
                continue
            if all(p in done_set for p in self._pred[rid]):
                ready.append(request)
        return ready

    def simulation(self, done: Iterable[int] = ()) -> "ReadySimulation":
        """An undoable what-if completion cursor over this DAG."""
        return ReadySimulation(self, done)

    def mark_done(self, request: SwitchRequest) -> None:
        rid = request.request_id
        if rid not in self._requests:
            raise KeyError(f"unknown request {rid}")
        if rid in self._done:
            return  # idempotent, and the counters must not double-decrement
        _complete(self, rid, self._done, self._pending, self._ready)

    def reset(self) -> None:
        """Forget completion state (to re-run the same DAG)."""
        self._done.clear()
        self._pending, self._ready = _ready_state(self, self._done)

    # -- structure metrics ----------------------------------------------------
    def _kahn_order(self) -> List[int]:
        """Kahn's algorithm by generations, each in release order (ties in
        insertion order).  Nodes on or behind a cycle are never
        released, so the order is short iff the graph is cyclic."""
        indegree = {rid: len(pred) for rid, pred in self._pred.items() if pred}
        generation = [rid for rid, pred in self._pred.items() if not pred]
        order: List[int] = []
        while generation:
            order.extend(generation)
            released = []
            for node in generation:
                for child in self._succ[node]:
                    indegree[child] -= 1
                    if not indegree[child]:
                        released.append(child)
            generation = released
        return order

    def is_acyclic(self) -> bool:
        """True when the dependency graph contains no cycle."""
        return len(self._kahn_order()) == len(self._requests)

    def find_cycle_ids(self) -> List[int]:
        """Ids of one dependency cycle, first-added member first ([] if none)."""
        released = set(self._kahn_order())
        stuck = [rid for rid in self._requests if rid not in released]
        if not stuck:
            return []
        # Every stuck node has a stuck predecessor: walk back until one
        # repeats, then reverse the loop into edge direction.
        node, walk = stuck[0], {}
        while node not in walk:
            walk[node] = len(walk)
            node = next(p for p in self._pred[node] if p not in released)
        cycle = list(walk)[walk[node]:][::-1]
        start = min(range(len(cycle)), key=lambda i: self._seq[cycle[i]])
        return cycle[start:] + cycle[:start]

    def topological_order(self) -> List[int]:
        """Request ids in one (deterministic) topological order.

        Raises:
            ValueError: the graph contains a cycle.
        """
        order = self._kahn_order()
        if len(order) != len(self._requests):
            raise ValueError("dependency graph contains a cycle")
        return order

    def critical_path_lengths(self) -> Dict[int, int]:
        """Longest path (in requests) from each node to any sink.

        Dionysus-style schedulers prioritise requests on long chains.
        The result is cached until the DAG structure changes; callers
        receive a private copy.
        """
        if self._critical_cache is None:
            lengths: Dict[int, int] = {}
            for node in reversed(self.topological_order()):
                lengths[node] = 1 + max((lengths[s] for s in self._succ[node]), default=0)
            self._critical_cache = lengths
        return dict(self._critical_cache)

    def depth(self) -> int:
        """Number of levels in the DAG (1 = fully independent)."""
        if not self._requests:
            return 0
        return max(self.critical_path_lengths().values())


def _ready_state(dag: RequestDag, done: Set[int]) -> Tuple[Dict[int, int], Set[int]]:
    """Pending-predecessor counters and ready set given ``done``; O(V + E)."""
    pending = {
        rid: sum(1 for p in preds if p not in done) for rid, preds in dag._pred.items()
    }
    dag.ops.edge_visits += dag._edge_count
    return pending, {rid for rid, n in pending.items() if n == 0 and rid not in done}


def _complete(
    dag: RequestDag, rid: int, done: Set[int], pending: Dict[int, int], ready: Set[int]
) -> None:
    """Mark ``rid`` done, releasing successors whose last dependency it was."""
    done.add(rid)
    ready.discard(rid)
    succs = dag._succ[rid]
    dag.ops.edge_visits += len(succs)
    for succ in succs:
        pending[succ] -= 1
        if pending[succ] == 0 and succ not in done:
            ready.add(succ)


class ReadySimulation:
    """Incremental what-if completion cursor over a :class:`RequestDag`.

    Lookahead schedulers (``PrefixTangoScheduler._plan``) explore a tree
    of hypothetical completion orders.  This cursor maintains the same
    pending-predecessor counters as the DAG itself, so completing a batch
    costs O(batch out-degree) and is undoable in the same time -- no
    frozenset unions, no O(V*E) rescans, and no mutation of the DAG.

    Usage::

        sim = dag.simulation()
        sim.complete([r.request_id for r in prefix])   # push a frame
        ...recurse on sim.ready()...
        sim.undo()                                     # pop the frame
        sim.commit([...])                              # permanent frame

    ``ready()`` reports requests in DAG insertion order, matching
    :meth:`RequestDag.independent_requests`.
    """

    def __init__(self, dag: RequestDag, done: Iterable[int] = ()) -> None:
        self._dag = dag
        self._done: Set[int] = set(done)
        self._pending, self._ready = _ready_state(dag, self._done)
        self._frames: List[List[int]] = []

    @property
    def dag(self) -> RequestDag:
        """The underlying DAG (read-only; the cursor never mutates it)."""
        return self._dag

    @property
    def completed_count(self) -> int:
        """How many requests are (hypothetically) complete in this cursor."""
        return len(self._done)

    def is_completed(self, request_id: int) -> bool:
        """True when ``request_id`` is complete in this cursor's state."""
        return request_id in self._done

    def pending_predecessors(self, request_id: int) -> int:
        """Count of the request's dependencies still pending in the cursor."""
        return self._pending[request_id]

    def ready_ids(self) -> List[int]:
        """Ready request ids, in DAG insertion order."""
        ready = sorted(self._ready, key=self._dag._seq.__getitem__)
        self._dag.ops.ready_yields += len(ready)
        return ready

    def ready(self) -> List[SwitchRequest]:
        """Ready requests, in DAG insertion order."""
        requests = self._dag._requests
        return [requests[rid] for rid in self.ready_ids()]

    def is_done(self) -> bool:
        return len(self._done) == len(self._dag._requests)

    def complete(self, request_ids: Iterable[int]) -> None:
        """Hypothetically complete ``request_ids``; undoable via :meth:`undo`.

        Validates the whole batch before touching any state, so a raise
        leaves the cursor exactly as it was (no partial frame that
        :meth:`undo` could not revert).

        Raises:
            ValueError: a request is already (hypothetically) complete,
                or appears twice in ``request_ids``.
        """
        frame = list(request_ids)
        seen: set = set()
        for rid in frame:
            if rid in self._done or rid in seen:
                raise ValueError(f"request {rid} already completed in simulation")
            seen.add(rid)
        for rid in frame:
            _complete(self._dag, rid, self._done, self._pending, self._ready)
        self._frames.append(frame)

    def undo(self) -> None:
        """Revert the most recent :meth:`complete` frame.

        Raises:
            IndexError: no frame to undo.
        """
        frame = self._frames.pop()
        pending = self._pending
        for rid in reversed(frame):
            succs = self._dag._succ[rid]
            self._dag.ops.edge_visits += len(succs)
            for succ in succs:
                pending[succ] += 1
                self._ready.discard(succ)
            self._done.discard(rid)
            if pending[rid] == 0:
                self._ready.add(rid)

    def commit(self, request_ids: Iterable[int]) -> None:
        """Complete ``request_ids`` permanently (no undo frame).

        Schedulers use this to keep a long-lived cursor in sync with the
        requests they actually issued, so per-round planning never pays
        an O(V + E) rebuild.
        """
        for rid in request_ids:
            if rid not in self._done:
                _complete(self._dag, rid, self._done, self._pending, self._ready)
