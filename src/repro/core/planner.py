"""Incremental tail-cost planner for the prefix lookahead scheduler.

:class:`TailCostPlanner` replaces the retired recursive planner's
depth-0 *greedy re-simulation* -- which walked the entire remaining DAG
once per scheduling round -- with state maintained incrementally over
the pending requests of a :class:`~repro.core.requests.ReadySimulation`
cursor:

* **Greedy levels.**  With whole-ready-batch (greedy) completion, the
  k-th greedy batch is exactly the set of pending requests at *level* k,
  where ``level(v) = 0`` if every dependency of ``v`` is complete and
  ``1 + max(level(p) for pending deps p)`` otherwise.  The planner keeps
  per-level per-switch duration sums, each level's makespan (the max
  over switches), and their total ``tail`` -- the greedy-to-completion
  estimate.  A depth-0 estimate is therefore O(1), and completing or
  undoing requests patches only the touched region instead of
  re-walking the DAG: each moved request pushes its out-edges, and
  each popped request scans its in-edges.
* **Drop-by-one releveling.**  Completing ready requests lowers a
  pending request's level by *at most one*: a longest pending chain
  into it holds at most one ready request (levels rise strictly along
  a chain), so the chain loses at most its head.  Levels only fall
  during the cascade, so a request that moved is at its fixpoint and
  is skipped if popped again; an unmoved one keeps its level iff some
  pending predecessor sits exactly one level below (its in-edge scan
  stops at the first such predecessor), and otherwise moves down one.
* **Tail-only leaves.**  A depth-1 node's prefix cuts end in depth-0
  leaves, whose only output is the tail.  A leaf runs the same
  per-request level moves as a real completion, but journals just
  loads, counts, makespans and the level map -- no members, orders,
  command or unlocking counts, fingerprint or undo frame -- and
  replays them straight back.  The node's cuts share their frontier
  removals: each leaf takes only its new requests off the frontier.
* **Level member sets.**  Each level also keeps its member set and its
  per-command counts, patched by the same per-request level moves as
  its loads.  The ready set is the frontier level's members and the
  pattern choice reads the frontier's command counts, so completing a
  whole frontier (every full-batch cut) pops one level and bumps a
  shift -- no per-request ready-set work.  Once a level is the
  frontier it also keeps its members' positions in the winning
  pattern's *static* total order (its ``order_key`` plus the request id
  tiebreak -- the key the :class:`_OrderingOracle` sorts by): sorted
  once, then patched by bisection, so a plan node reads its prefixes
  and candidate cuts off the front of that list instead of re-sorting
  a wide frontier.
* **Score-dominance pruning.**  Candidate cuts are explored in
  ascending order while per-switch prefix sums and their running max
  are extended incrementally; a cut whose prefix makespan already
  reaches the best complete cost cannot win under the planner's strict
  ``<`` improvement rule (durations are non-negative), so its subtree
  is skipped without changing any decision.
* **Frontier fingerprint + plan memo.**  A Zobrist-style XOR
  fingerprint over the completed set keys a bounded memo of
  ``(cost, cut)`` plans, so re-planning an unchanged frontier (e.g.
  after a round whose requests were all fault-deferred) is O(1).

Hypothetical completions never touch the cursor: a request is complete
for the planner when it has no level, and each frame saves the
fingerprint and completed count once.  The cursor is read at
construction and advanced only by :meth:`TailCostPlanner.commit`.

Decision equivalence: the planner reproduces the retired recursive
planner's ``(cost, cut)`` decisions bit-for-bit when per-request
duration estimates are non-negative binary fractions (e.g. multiples of
0.25, as all shipped workloads use), because every incremental sum is
then exact.  With arbitrary floats the prefix-cut costs are still exact
(they accumulate in the reference's own order); only full-batch level
sums could differ in the last ulp from a fresh summation, which can
flip a tie between near-equal plans.  The differential suite
(``tests/test_prefix_planner_differential.py``) pins the equivalence
against the retired planner, kept there as ``_ReferencePrefixPlanner``.

Float-order invariant: level loads and the tail change only through
per-request level moves (``_remove_from_level``/``_add_to_level``, in
batch order, then in relevel-stack order) and whole-level drops, each
applying ``tail - old + new`` (or ``tail - makespan``); undo restores
saved values rather than recomputing.  Leaves run the very same moves
in the same order, so a leaf's tail is bit-identical to a real
complete's.  The float results are thus a
fixed function of the completion history, so plans with non-dyadic
estimates are reproducible too (pinned by a golden test).

Determinism: no wall clock, no randomness -- the fingerprint mixer is a
fixed splitmix64 permutation of request ids, and every iteration runs
over lists/dicts in deterministic order (member sets are only sorted,
counted, or consumed whole).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.patterns import RewritePattern
from repro.core.requests import ReadySimulation, SwitchRequest

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """splitmix64 finalizer: a fixed, seedless 64-bit permutation."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


#: Bound on memoized plans; old entries are evicted FIFO.
_MEMO_LIMIT = 8192


#: A pattern's static order: request -> position, and position -> request.
_Order = Tuple[Dict[int, int], List[int]]


class _Level:
    """One greedy level: members, command counts, per-switch loads."""

    __slots__ = (
        "members",
        "ordered",
        "order",
        "commands",
        "loads",
        "counts",
        "makespan",
        "unlocking",
    )

    def __init__(self, n_commands: int = 0) -> None:
        self.members: Set[int] = set()
        # The members' positions in ``order`` (a pattern's static order),
        # sorted; built when the level is first ordered as the frontier
        # and kept in sync with ``members`` from then on.
        self.ordered: Optional[List[int]] = None
        self.order: Optional[_Order] = None
        self.commands = [0] * n_commands  # member count per command slot
        self.loads: Dict[str, float] = {}  # per-switch duration sums
        self.counts: Dict[str, int] = {}  # per-switch member counts
        self.makespan = 0.0  # max(loads), 0.0 when empty
        self.unlocking = 0  # members with successors


_NO_LEVEL = _Level()  # read-only stand-in for an absent level


class TailCostPlanner:
    """Incremental prefix-lookahead planner over a completion cursor.

    Hypothetical prefixes are completed and undone on the planner's own
    level state; issued batches are committed *through the planner*,
    which forwards them to the :class:`ReadySimulation`.

    Args:
        sim: the long-lived completion cursor (exclusively owned by this
            planner from here on).
        estimate: per-request duration estimate in ms (must be
            non-negative).
        patterns: rewrite patterns, in oracle order (ties break to the
            first, matching ``_OrderingOracle``).
        max_prefixes: candidate prefix cuts evaluated per tree node.
        oracle: optional ordering oracle whose metric counters attribute
            this planner's ordering work (duck-typed; only
            ``note_incremental_order`` is called).
    """

    def __init__(
        self,
        sim: ReadySimulation,
        estimate,
        patterns: Sequence[RewritePattern],
        max_prefixes: int = 4,
        oracle=None,
    ) -> None:
        if not patterns:
            raise ValueError("need at least one rewrite pattern")
        self._sim = sim
        self._dag = sim.dag
        self._patterns = list(patterns)
        self._max_prefixes = max_prefixes
        self._oracle = oracle

        # -- static per-request facts -------------------------------------
        self._est: Dict[int, float] = {}
        self._loc: Dict[int, str] = {}
        self._commands: List[object] = []  # distinct commands, by slot
        self._cmd: Dict[int, int] = {}  # request -> command slot
        self._pri: Dict[int, int] = {}
        self._succ: Dict[int, Tuple[int, ...]] = {}
        self._pred: Dict[int, Tuple[int, ...]] = {}
        self._has_succ: Dict[int, bool] = {}
        self._zobrist: Dict[int, int] = {}
        dag = self._dag
        for request in dag.requests:
            rid = request.request_id
            value = float(estimate(request))
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"duration estimate {value} for request {rid} is not a "
                    "finite non-negative number"
                )
            self._est[rid] = value
            self._loc[rid] = request.location
            if request.command not in self._commands:
                self._commands.append(request.command)
            self._cmd[rid] = self._commands.index(request.command)
            self._pri[rid] = request.priority
            succ = tuple(dag.successor_ids(rid))
            self._succ[rid] = succ
            # Reversed: the relevel scan stops at the first predecessor
            # just below a request, and later dependencies tend to be
            # the deeper ones.
            self._pred[rid] = tuple(reversed(dag.predecessor_ids(rid)))
            self._has_succ[rid] = bool(succ)
            self._zobrist[rid] = _mix64(rid)
        # One structural O(V + E) pass, charged like a ready rebuild.
        dag.ops.edge_visits += sum(len(s) for s in self._succ.values())

        # -- greedy levels and tail cost ----------------------------------
        # level[rid] for pending requests only (completed = no level);
        # per-level state in _levels; the total of level makespans (tail).
        # Levels are stored *raw*: true level = raw - self._shift.  When a
        # complete consumes the entire frontier, every remaining level
        # drops by exactly one (the longest pending chain to any node
        # loses exactly its head), so bumping the shift replaces an
        # O(remaining-DAG) releveling cascade -- which made chain-shaped
        # DAGs quadratic -- with popping one level.
        self._shift = 0
        self._level: Dict[int, int] = {}
        self._levels: Dict[int, _Level] = {}
        self._tail = 0.0
        seed_journal: List[tuple] = []
        for rid in dag.topological_order():
            if sim.is_completed(rid):
                continue
            level = 0
            for p in self._pred[rid]:
                dag.ops.edge_visits += 1
                p_level = self._level.get(p)
                if p_level is not None and p_level + 1 > level:
                    level = p_level + 1
            self._add_to_level(rid, level, seed_journal)
        del seed_journal  # construction is the base state; nothing to undo

        # -- pattern ordering ----------------------------------------------
        # Per-pattern static orders are built lazily; with the default
        # pattern set the winner never changes (ASCEND dominates for any
        # pure-ADD batch), so rebuilds are rare by construction.
        self._orders: Dict[int, _Order] = {}
        self._pattern: Optional[RewritePattern] = None
        self._order: Optional[_Order] = None
        self._ensure_order()
        self.order_rebuilds = 0  # the constructor's build is not a rebuild

        # -- fingerprint + plan memo --------------------------------------
        self._fingerprint = 0
        self._completed = sim.completed_count
        self._memo: Dict[Tuple[int, int, int], Tuple[float, Optional[int]]] = {}
        # One (fingerprint, completed, journal) per open complete().
        self._frames: List[Tuple[int, int, List[tuple]]] = []

        # -- stats ---------------------------------------------------------
        self.plan_calls = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.dominance_prunes = 0
        self.realized_levels = 0

    # -- public read API -------------------------------------------------
    @property
    def ready_count(self) -> int:
        return len(self._frontier().members)

    @property
    def fingerprint(self) -> int:
        """Zobrist XOR over completions applied since construction."""
        return self._fingerprint

    def current_pattern(self) -> RewritePattern:
        """The oracle's pattern choice for the current ready set."""
        counts = {
            command: count
            for command, count in zip(self._commands, self._frontier().commands)
            if count
        }
        return max(self._patterns, key=lambda p: p.score_counts(counts))

    def head_requests(self, k: int) -> List[SwitchRequest]:
        """The first ``k`` ready requests in the winning pattern's order."""
        requests = self._dag._requests
        return [requests[rid] for rid in self._head_ids(self._ensure_order(), k)]

    def stats(self) -> Dict[str, int]:
        """Planner work counters for bench trajectories."""
        return {
            "plan_calls": self.plan_calls,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "dominance_prunes": self.dominance_prunes,
            "order_rebuilds": self.order_rebuilds,
            "realized_levels": self.realized_levels,
        }

    # -- cursor movement -------------------------------------------------
    def complete(self, request_ids: Iterable[int]) -> None:
        """Hypothetically complete a batch of *ready* requests (undoable).

        Raises:
            ValueError: a request is not ready, already complete, or
                duplicated; the planner is left untouched.
        """
        rids = list(request_ids)
        self._check_ready(rids)
        self._push(rids)

    def undo(self) -> None:
        """Revert the most recent :meth:`complete` frame exactly."""
        self._pop()

    def commit(self, request_ids: Iterable[int]) -> None:
        """Permanently complete issued requests (no undo frame).

        Requests already complete in the cursor are skipped, mirroring
        :meth:`ReadySimulation.commit`; the rest are forwarded to it.
        """
        rids = [rid for rid in request_ids if not self._sim.is_completed(rid)]
        self._check_ready(rids)
        self._sim.commit(rids)
        self._apply_complete(rids, [])

    # -- planning --------------------------------------------------------
    def plan(self, depth: int) -> Tuple[float, Optional[int]]:
        """Best estimated remaining cost and the first-batch cut to take.

        Returns ``(0.0, None)`` on an empty frontier; otherwise the cut
        is in ``[1, ready_count]``.  Decision-identical to the retired
        recursive planner (see the module docstring for the float
        caveat); the planner's state is left exactly as found.
        """
        self.plan_calls += 1
        ready_count = len(self._frontier().members)
        if ready_count == 0:
            return 0.0, None
        if depth <= 0:
            # The greedy-to-completion estimate, maintained incrementally:
            # sum over levels of the level's per-switch-serial makespan.
            return self._tail, ready_count
        frontier = self._ensure_order()
        key = (self._fingerprint, self._completed, depth)
        memoized = self._memo.get(key)
        if memoized is not None:
            self.memo_hits += 1
            return memoized
        self.memo_misses += 1

        best_cost = float("inf")
        best_cut: Optional[int] = None
        cuts = self._candidate_cuts(frontier)
        if cuts:
            prefix_ids = self._head_ids(frontier, cuts[-1])
            per_switch: Dict[str, float] = {}
            run_max = 0.0
            consumed = 0
            # The leaves' frontier removals, shared from cut to cut.
            removals: List[tuple] = []
            removed = 0
            for cut in cuts:
                # Extend the per-switch prefix sums in the pattern's own
                # order -- the identical float-addition sequence the
                # reference's per-prefix rebuild performs.
                for rid in prefix_ids[consumed:cut]:
                    loc = self._loc[rid]
                    total = per_switch.get(loc, 0.0) + self._est[rid]
                    per_switch[loc] = total
                    if total > run_max:
                        run_max = total
                consumed = cut
                if run_max >= best_cost:
                    # Dominance: rest >= 0, so this cut cannot strictly
                    # beat the incumbent.  Skipping it is decision-free.
                    self.dominance_prunes += 1
                    continue
                if depth == 1:
                    rest = self._leaf_rest(prefix_ids[:cut], removed, removals)
                    removed = cut
                else:
                    self._push(prefix_ids[:cut])
                    rest, _ = self.plan(depth - 1)
                    self._pop()
                cost = run_max + rest
                if cost < best_cost:
                    best_cost = cost
                    best_cut = cut
            self._replay_inverse(removals, True)
        # The full-batch cut: its estimate is level 0's makespan, and the
        # remainder recurses over whole levels in closed form.
        full_est = frontier.makespan
        if full_est >= best_cost:
            self.dominance_prunes += 1
        else:
            rest = self._virtual_rest(depth - 1, 1, full_est)
            cost = full_est + rest
            if cost < best_cost:
                best_cost = cost
                best_cut = ready_count
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.pop(next(iter(self._memo)))
        self._memo[key] = (best_cost, best_cut)
        return best_cost, best_cut

    def _virtual_rest(self, depth: int, skip: int, consumed: float) -> float:
        """Remaining cost after hypothetically completing levels < skip.

        Full-batch cuts always complete an entire greedy level, so the
        recursion usually never needs to touch per-request state: a level
        with no unlocking members admits no prefix cuts, its batch cost
        is its stored makespan, and depth exhaustion leaves exactly
        ``tail - consumed``.  Only a level that *does* contain unlocking
        members (and remaining depth to explore them) falls back to
        really completing the skipped levels -- at most ``depth`` of
        them -- and planning from there.
        """
        level = self._levels.get(self._shift + skip, _NO_LEVEL)
        if not level.members:
            return 0.0
        if depth <= 0:
            return self._tail - consumed
        if level.unlocking == 0:
            return level.makespan + self._virtual_rest(
                depth - 1, skip + 1, consumed + level.makespan
            )
        for _ in range(skip):
            self._push(self._frontier().members)
            self.realized_levels += 1
        cost, _ = self.plan(depth)
        for _ in range(skip):
            self._pop()
        return cost

    # -- ordering --------------------------------------------------------
    def _frontier(self) -> _Level:
        return self._levels.get(self._shift, _NO_LEVEL)

    def _ensure_order(self) -> _Level:
        """The frontier, ordered by the current pattern's static order."""
        pattern = self.current_pattern()
        if pattern is not self._pattern:
            if self._pattern is not None:
                self.order_rebuilds += 1
            index = next(i for i, p in enumerate(self._patterns) if p is pattern)
            order = self._orders.get(index)
            if order is None:
                by_pos = sorted(
                    self._est,
                    key=lambda rid: pattern.order_key(
                        self._commands[self._cmd[rid]], self._pri[rid]
                    )
                    + (rid,),
                )
                order = ({rid: pos for pos, rid in enumerate(by_pos)}, by_pos)
                self._orders[index] = order
            self._order = order
            self._pattern = pattern
        frontier = self._frontier()
        if frontier.order is not self._order and frontier.members:
            pos = self._order[0]
            frontier.ordered = sorted(pos[rid] for rid in frontier.members)
            frontier.order = self._order
        return frontier

    def _head_ids(self, frontier: _Level, k: int) -> List[int]:
        """The first ``k`` ids of an ordered frontier."""
        if k > len(frontier.members):
            raise ValueError(f"cut {k} exceeds ready count {len(frontier.members)}")
        self._dag.ops.ready_yields += k
        if self._oracle is not None:
            self._oracle.note_incremental_order(k)
        if k == 0:
            return []
        by_pos = frontier.order[1]
        return [by_pos[pos] for pos in frontier.ordered[:k]]

    def _candidate_cuts(self, frontier: _Level) -> List[int]:
        """Prefix lengths ending at an unlocking request, ascending.

        Matches the retired planner: a request is *unlocking* when it has
        successors in the DAG (a static property), and the full-batch cut
        is excluded.  At most ``max_prefixes`` cuts are returned.
        """
        cuts: List[int] = []
        # Stopping at the last wanted unlocking member bounds the scan by
        # the prefix the plan node sums over anyway.
        wanted = min(self._max_prefixes, frontier.unlocking)
        if wanted <= 0:
            return cuts
        has_succ = self._has_succ
        by_pos = frontier.order[1]
        ordered = frontier.ordered
        for index in range(len(ordered) - 1):
            if has_succ[by_pos[ordered[index]]]:
                cuts.append(index + 1)
                if len(cuts) == wanted:
                    break
        return cuts

    # -- incremental state maintenance ------------------------------------
    def _check_ready(self, rids: Sequence[int]) -> None:
        frontier = self._shift
        for rid in rids:
            if self._level.get(rid) != frontier:
                raise ValueError(f"request {rid} is not ready in the planner")
        if len(set(rids)) != len(rids):
            raise ValueError("duplicate request ids in one completion")

    def _push(self, rids: Collection[int]) -> None:
        """Complete ready ``rids`` (unchecked) in a new undo frame."""
        journal: List[tuple] = []
        self._frames.append((self._fingerprint, self._completed, journal))
        self._apply_complete(rids, journal)

    def _pop(self) -> None:
        self._fingerprint, self._completed, journal = self._frames.pop()
        self._replay_inverse(journal)

    def _leaf_rest(
        self, prefix: Sequence[int], removed: int, removals: List[tuple]
    ) -> float:
        """``plan(0)`` once the partial frontier ``prefix`` completes.

        A depth-0 plan only reads the tail, so a leaf needs no undo
        frame: its level moves journal only loads, counts, makespans and
        the level map.  The frontier removals stay in effect for the
        node's next, longer cut -- ``prefix[:removed]`` is already off,
        journaled in ``removals``, which the caller replays once done --
        while the cascade is replayed straight back.  ``prefix`` leaves
        part of the frontier pending, so the frontier is never dropped
        and the plan is never empty.
        """
        self.plan_calls += 1
        self._leave_frontier(prefix[removed:], removals, True)
        journal: List[tuple] = []
        self._cascade(prefix, journal, True)
        rest = self._tail
        self._replay_inverse(journal, True)
        return rest

    def _apply_complete(self, rids: Collection[int], journal: List[tuple]) -> None:
        """Complete the ready ``rids``: fingerprint, levels and tail."""
        zobrist = self._zobrist
        fingerprint = self._fingerprint
        for rid in rids:
            fingerprint ^= zobrist[rid]
        self._fingerprint = fingerprint
        self._completed += len(rids)
        if rids and len(rids) == len(self._frontier().members):
            self._drop_frontier(journal)
        else:
            self._leave_frontier(rids, journal, False)
            self._cascade(rids, journal, False)

    def _leave_frontier(
        self, rids: Collection[int], journal: List[tuple], leaf: bool
    ) -> None:
        """Take the ready ``rids`` off the frontier level, in order."""
        frontier = self._shift
        for rid in rids:
            self._remove_from_level(rid, frontier, journal, leaf)

    def _cascade(self, rids: Collection[int], journal: List[tuple], leaf: bool) -> None:
        """Relevel the descendants of ``rids``, already off the frontier.

        A completed dependency can only lower its successors' levels, by
        at most one (see the module docstring), and each move propagates
        along out-edges.  A popped request keeps its level if a pending
        predecessor sits just below it; otherwise it moves down one
        level, once -- it is then at its fixpoint.  Every predecessor
        read counts as an edge visit.  ``leaf`` moves requests in the
        level map only, leaving members and orders alone.
        """
        succ = self._succ
        stack: List[int] = []
        for rid in rids:
            stack.extend(succ[rid])
        level = self._level
        pred = self._pred
        moved: Set[int] = set()
        visits = 0
        while stack:
            rid = stack.pop()
            if rid in moved:
                continue
            old = level.get(rid)
            if old is None:
                continue  # completed already
            below = old - 1
            for p in pred[rid]:
                visits += 1
                if level.get(p) == below:
                    break
            else:
                self._remove_from_level(rid, old, journal, leaf)
                self._add_to_level(rid, below, journal, leaf)
                moved.add(rid)
                stack.extend(succ[rid])
        self._dag.ops.edge_visits += visits

    def _drop_frontier(self, journal: List[tuple]) -> None:
        """Whole-frontier completion: pop level 0 and bump the shift.

        After completing *all* ready requests, every remaining pending
        request's level drops by exactly one (its longest pending
        dependency chain loses exactly its ready head), so the per-level
        state stays valid under ``shift + 1`` -- no releveling cascade.
        """
        frontier = self._shift
        dropped = self._levels.pop(frontier)
        level = self._level
        for rid in dropped.members:
            del level[rid]
        journal.append(("drop", frontier, dropped, self._tail))
        self._tail -= dropped.makespan
        self._shift = frontier + 1

    def _remove_from_level(
        self, rid: int, raw: int, journal: List[tuple], leaf: bool
    ) -> None:
        level = self._levels[raw]
        loc = self._loc[rid]
        loads = level.loads
        counts = level.counts
        old_sum = loads[loc]
        old_cnt = counts[loc]
        journal.append(
            ("remove", rid, raw, old_sum, old_cnt, level.makespan, self._tail)
        )
        if old_cnt == 1:
            # Deleting the emptied cell restores an exact zero, keeping
            # incremental sums bit-identical to fresh summation for
            # binary-fraction estimates.
            del loads[loc]
            del counts[loc]
        else:
            loads[loc] = old_sum - self._est[rid]
            counts[loc] = old_cnt - 1
        self._set_makespan(level, max(loads.values()) if loads else 0.0)
        if leaf:
            del self._level[rid]
        else:
            self._leave(level, rid)

    def _add_to_level(
        self, rid: int, raw: int, journal: List[tuple], leaf: bool = False
    ) -> None:
        level = self._levels.get(raw)
        if level is None:
            level = self._levels[raw] = _Level(len(self._commands))
        loc = self._loc[rid]
        loads = level.loads
        counts = level.counts
        old_sum = loads.get(loc)
        old_cnt = counts.get(loc)
        journal.append(("add", rid, raw, old_sum, old_cnt, level.makespan, self._tail))
        total = (old_sum if old_sum is not None else 0.0) + self._est[rid]
        loads[loc] = total
        counts[loc] = (old_cnt if old_cnt is not None else 0) + 1
        # A non-negative duration raises only this switch's load, so the
        # new maximum is the old one or this load.
        makespan = level.makespan
        self._set_makespan(level, total if total > makespan else makespan)
        if leaf:
            self._level[rid] = raw
        else:
            self._join(level, raw, rid)

    def _set_makespan(self, level: _Level, new: float) -> None:
        self._tail = self._tail - level.makespan + new
        level.makespan = new

    def _join(self, level: _Level, raw: int, rid: int) -> None:
        level.members.add(rid)
        level.commands[self._cmd[rid]] += 1
        level.unlocking += self._has_succ[rid]
        if level.ordered is not None:
            insort(level.ordered, level.order[0][rid])
        self._level[rid] = raw

    def _leave(self, level: _Level, rid: int) -> None:
        level.members.remove(rid)
        level.commands[self._cmd[rid]] -= 1
        level.unlocking -= self._has_succ[rid]
        ordered = level.ordered
        if ordered is not None:
            del ordered[bisect_left(ordered, level.order[0][rid])]
        del self._level[rid]

    def _replay_inverse(self, journal: List[tuple], leaf: bool = False) -> None:
        """Apply a frame's journal in reverse, restoring exact old values.

        A ``leaf`` journal restores level-map entries only, as the leaf
        moves wrote them (see :meth:`_leaf_rest`).
        """
        for entry in reversed(journal):
            if entry[0] == "drop":
                _, raw, dropped, self._tail = entry
                self._levels[raw] = dropped
                level = self._level
                for rid in dropped.members:
                    level[rid] = raw
                self._shift = raw
                continue
            kind, rid, raw, old_sum, old_cnt, makespan, self._tail = entry
            level = self._levels[raw]
            level.makespan = makespan
            loc = self._loc[rid]
            if old_sum is None:
                del level.loads[loc]
                del level.counts[loc]
            else:
                level.loads[loc] = old_sum
                level.counts[loc] = old_cnt
            if leaf:
                # A leaf adds a request only right after removing it, and
                # undoing that removal restores its level.
                if kind == "remove":
                    self._level[rid] = raw
            elif kind == "remove":
                self._join(level, raw, rid)
            else:  # "add"
                self._leave(level, rid)
