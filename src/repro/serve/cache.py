"""FDRC-style rule caching against a finite flow table.

:class:`RuleCacheManager` is the serving loop's policy brain.  It owns
no table state of its own — the switch's
:class:`~repro.tables.stack.RankedTableStack` is the single source of
truth — and makes three kinds of decisions:

* **Flow-driven admission** (FDRC): a flow earns a rule only after
  ``admission_threshold`` packet-ins inside ``admission_window_ms``;
  colder flows are *punted* to the controller instead of burning a
  table slot on a one-packet flow.
* **Policy-driven eviction**: when the table budget is exhausted, the
  victims are the entries ranked worst by the manager's
  :class:`~repro.tables.policies.CachePolicy` — by construction the
  *inferred* per-switch policy (Algorithm 2 output), so eviction keeps
  exactly the rules the switch's own cache hierarchy would keep in its
  fast layer.  When the inferred policy matches the switch's actual
  policy the stack's ranking is reused directly
  (:meth:`~repro.tables.stack.RankedTableStack.worst_entries`); an
  inferred policy that *differs* still works, at an O(n) scan per
  victim.
* **Wildcard aggregation**: when the table fills, compatible sibling
  ``/32`` rules (same priority, actions and EtherType, no other match
  field, addresses sharing a ``aggregate_prefix_len`` prefix) are
  replaced by one wildcard rule, trading match precision for ``k - 1``
  reclaimed slots — the paper's multi-level-cache observation that a
  shorter prefix can stand in for a hot cluster of exact rules.

All planning is expressed as :class:`PlannedOp` lists (DELETEs then
ADDs) that the serving loop turns into a request DAG for the existing
schedulers, so every eviction and aggregation pays modelled
control-plane cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.openflow.actions import Action, OutputAction
from repro.openflow.match import IpPrefix, Match
from repro.openflow.messages import FlowModCommand
from repro.tables.entry import FlowEntry
from repro.tables.policies import CachePolicy
from repro.tables.tcam import TcamGeometry


@dataclass
class CacheStats:
    """Deterministic counters for one serving run."""

    lookups: int = 0
    hits: int = 0
    wildcard_hits: int = 0
    misses: int = 0
    punts: int = 0
    coalesced: int = 0
    installs: int = 0
    evictions: int = 0
    expirations: int = 0
    aggregations: int = 0
    aggregated_rules: int = 0
    rejected: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "wildcard_hits": self.wildcard_hits,
            "misses": self.misses,
            "punts": self.punts,
            "coalesced": self.coalesced,
            "installs": self.installs,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "aggregations": self.aggregations,
            "aggregated_rules": self.aggregated_rules,
            "rejected": self.rejected,
            "hit_rate": round(self.hit_rate, 6),
        }


class PlannedOp(NamedTuple):
    """One flow-table operation the loop should schedule.

    ``reason`` labels why the op exists (``install`` / ``evict`` /
    ``aggregate`` / ``aggregate-member``) for callers and tests that
    inspect a plan; the serving loop does not read it.
    """

    command: FlowModCommand
    match: Match
    priority: int
    reason: str
    actions: Tuple[Action, ...] = (OutputAction(port=1),)


#: An aggregation group: (prefix base, priority, EtherType, actions).
_GroupKey = Tuple[int, int, Optional[int], Tuple[Action, ...]]
#: The match fields besides eth_type and ip_dst, all wildcarded.
_UNSET = (None,) * 6


def derive_capacity(tables, kind) -> Optional[int]:
    """Total same-kind rule capacity of a table stack, or None if unbounded."""
    total = 0
    for layer in tables.layers:
        if layer.capacity is not None:
            total += layer.capacity
        elif layer.geometry is not None:
            geometry: TcamGeometry = layer.geometry
            total += geometry.capacity_for(kind)
        else:
            return None
    return total


class RuleCacheManager:
    """Flow-driven rule caching over one switch's table stack.

    Args:
        switch: the simulated switch whose ``tables`` this manager governs.
        policy: victim-ranking policy; defaults to the switch's own table
            policy (pass the inferred Algorithm 2 policy in production —
            see :func:`repro.serve.loop.policy_from_model`).
        capacity: rule budget; defaults to the stack's bounded capacity
            for ``reference_match``'s kind (None = unbounded, no eviction).
        admission_threshold: packet-ins required before a rule is installed.
        admission_window_ms: window over which admission counts accumulate.
        aggregate_prefix_len: prefix length of wildcard aggregate rules.
        aggregate_min_rules: minimum compatible ``/32`` siblings before a
            group is aggregated.
        reference_match: a representative match used to derive TCAM
            capacity (defaults to a narrow L3 match).
    """

    def __init__(
        self,
        switch,
        policy: Optional[CachePolicy] = None,
        capacity: Optional[int] = None,
        admission_threshold: int = 1,
        admission_window_ms: float = 50.0,
        aggregate_prefix_len: int = 28,
        aggregate_min_rules: int = 4,
        reference_match: Optional[Match] = None,
    ) -> None:
        if admission_threshold < 1:
            raise ValueError("admission_threshold must be at least 1")
        if not 0 < aggregate_prefix_len < 32:
            raise ValueError("aggregate_prefix_len must be in (0, 32)")
        if aggregate_min_rules < 2:
            raise ValueError("aggregate_min_rules must be at least 2")
        self.switch = switch
        self.policy = policy if policy is not None else switch.tables.policy
        self._trust_stack_ranking = self.policy.terms == switch.tables.policy.terms
        if reference_match is None:
            reference_match = Match(eth_type=0x0800, ip_dst=IpPrefix(0, 32))
        if capacity is None:
            capacity = derive_capacity(switch.tables, reference_match.kind)
        self.capacity = capacity
        self.admission_threshold = admission_threshold
        self.admission_window_ms = admission_window_ms
        self.aggregate_prefix_len = aggregate_prefix_len
        self.aggregate_min_rules = aggregate_min_rules
        self.stats = CacheStats()
        #: flow key -> (packet-ins seen, last seen ms); pruned on maintenance.
        self._admission: Dict[Tuple[int, int], Tuple[int, float]] = {}
        #: (eth_type, prefix base) -> its aggregate wildcard, built once.
        self._wildcards: Dict[Tuple[Optional[int], int], Match] = {}

    # -- lookups -----------------------------------------------------------------
    def _aggregate_match(self, eth_type: Optional[int], base: int) -> Match:
        """The wildcard over prefix ``base`` (the address >> host bits)."""
        wild = self._wildcards.get((eth_type, base))
        if wild is None:
            shift = 32 - self.aggregate_prefix_len
            wild = self._wildcards[(eth_type, base)] = Match(
                eth_type=eth_type,
                ip_dst=IpPrefix(base << shift, self.aggregate_prefix_len),
            )
        return wild

    def wildcard_match(self, match: Match) -> Optional[Match]:
        """The aggregate-group wildcard that would cover ``match``."""
        ip_dst = match.ip_dst
        if ip_dst is None or ip_dst.length != 32:
            return None
        return self._aggregate_match(
            match.eth_type, ip_dst.value >> (32 - self.aggregate_prefix_len)
        )

    def lookup(self, match: Match, priority: int, now_ms: float) -> Optional[FlowEntry]:
        """Find the entry covering this flow; a hit refreshes its rank.

        Checks the exact rule first, then the flow's aggregate wildcard.
        Touching the entry updates use time and traffic count, which is
        what lets recency/traffic policies keep hot rules resident.
        """
        self.stats.lookups += 1
        entry = self.switch.tables.lookup_exact(match, priority)
        if entry is None:
            wild = self.wildcard_match(match)
            if wild is not None:
                entry = self.switch.tables.lookup_exact(wild, priority)
                if entry is not None:
                    self.stats.wildcard_hits += 1
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.switch.tables.touch(entry, now_ms)
        return entry

    def admit(self, flow_key: Tuple[int, int], now_ms: float) -> bool:
        """FDRC admission: install only flows that keep coming back."""
        if self.admission_threshold <= 1:
            return True
        count, last_ms = self._admission.get(flow_key, (0, now_ms))
        if now_ms - last_ms > self.admission_window_ms:
            count = 0
        count += 1
        self._admission[flow_key] = (count, now_ms)
        if count >= self.admission_threshold:
            del self._admission[flow_key]
            return True
        self.stats.punts += 1
        return False

    # -- planning ----------------------------------------------------------------
    def _victim(self, excluded: set) -> Optional[FlowEntry]:
        """The worst-ranked entry not already spoken for, if any."""
        if self._trust_stack_ranking:
            # The stack is already sorted by this policy: scan from the
            # worst end, skipping entries another planned op claimed.
            candidates = self.switch.tables.worst_entries(1 + len(excluded))
        else:
            candidates = sorted(
                self.switch.tables.entries,
                key=lambda e: (self.policy.score(e), e.entry_id),
            )
        for entry in candidates:
            if entry.entry_id not in excluded:
                return entry
        return None

    def _aggregation_groups(self, excluded: set) -> List[Tuple[_GroupKey, List[FlowEntry]]]:
        """Aggregatable groups, largest first (deterministic tie-break).

        Only rules matching nothing but an EtherType and a ``/32``
        destination fold: the wildcard keeps the EtherType and widens the
        destination, so it covers exactly the packets its members did
        plus the rest of the prefix.
        """
        groups: Dict[_GroupKey, List[FlowEntry]] = {}
        shift = 32 - self.aggregate_prefix_len
        for entry in self.switch.tables.entries:
            if entry.entry_id in excluded:
                continue
            match = entry.match
            ip_dst = match.ip_dst
            if ip_dst is None or ip_dst.length != 32:
                continue
            others = (
                match.eth_src, match.eth_dst, match.ip_src,
                match.ip_proto, match.tp_src, match.tp_dst,
            )
            if others != _UNSET:
                continue
            group = (ip_dst.value >> shift, entry.priority, match.eth_type, entry.actions)
            groups.setdefault(group, []).append(entry)
        eligible = [
            (key, members)
            for key, members in groups.items()
            if len(members) >= self.aggregate_min_rules
        ]
        eligible.sort(key=lambda item: (-len(item[1]), item[0][0], item[0][1]))
        return eligible

    def plan_aggregation(self, excluded: set) -> Optional[List[PlannedOp]]:
        """Fold the largest compatible ``/32`` group into one wildcard rule.

        Returns the op list (member DELETEs then the wildcard ADD), or
        None when no group is large enough.  ``excluded`` entry ids
        (already-planned victims) never join a group.
        """
        eligible = self._aggregation_groups(excluded)
        if not eligible:
            return None
        (group_base, priority, eth_type, actions), members = eligible[0]
        wild = self._aggregate_match(eth_type, group_base)
        ops = [
            PlannedOp(FlowModCommand.DELETE, member.match, member.priority, "aggregate-member")
            for member in sorted(members, key=lambda e: e.entry_id)
        ]
        ops.append(PlannedOp(FlowModCommand.ADD, wild, priority, "aggregate", actions))
        for member in members:
            excluded.add(member.entry_id)
        self.stats.aggregations += 1
        self.stats.aggregated_rules += len(members)
        return ops

    def plan_installs(self, items: Sequence) -> List[PlannedOp]:
        """Plan one batch of installs against the current table state.

        ``items`` are :class:`~repro.serve.stream.FlowArrival`-like
        objects (``match`` / ``priority`` / ``flow_key``).  The plan
        frees slots by aggregation first, then policy-ranked eviction,
        and never overcommits the budget: an item that cannot be given a
        slot is counted ``rejected`` and dropped.  Planning reads only
        table state; executing the ops stamps their times.
        """
        ops: List[PlannedOp] = []
        planned_keys = set()
        planned_wilds = set()
        claimed: set = set()  # entry ids consumed by planned deletes
        # Planning only reads the table and ``claimed`` only grows, so once
        # no group is left none appears later in this batch.
        may_aggregate = True
        tables = self.switch.tables
        free: Optional[int] = None
        if self.capacity is not None:
            free = self.capacity - len(tables)
        for item in items:
            key = item.match.key()
            if key in planned_keys or tables.lookup_exact(item.match, item.priority):
                self.stats.coalesced += 1
                continue
            wild = self.wildcard_match(item.match)
            if wild is not None and (
                wild.key() in planned_wilds
                or tables.lookup_exact(wild, item.priority) is not None
            ):
                self.stats.coalesced += 1
                continue
            if free is not None and free < 1 and may_aggregate:
                aggregation = self.plan_aggregation(claimed)
                if aggregation is None:
                    may_aggregate = False
                else:
                    ops.extend(aggregation)
                    planned_wilds.add(aggregation[-1].match.key())
                    free += len(aggregation) - 2  # k deletes, 1 add
            if free is not None and free < 1:
                victim = self._victim(claimed)
                if victim is None:
                    self.stats.rejected += 1
                    continue
                claimed.add(victim.entry_id)
                ops.append(
                    PlannedOp(FlowModCommand.DELETE, victim.match, victim.priority, "evict")
                )
                self.stats.evictions += 1
                free += 1
            ops.append(PlannedOp(FlowModCommand.ADD, item.match, item.priority, "install"))
            planned_keys.add(key)
            self.stats.installs += 1
            if free is not None:
                free -= 1
        return ops

    # -- maintenance --------------------------------------------------------------
    def expired_entries(
        self, now_ms: float, idle_timeout_ms: float
    ) -> List[FlowEntry]:
        """Entries idle longer than ``idle_timeout_ms``, oldest id first."""
        expired = []
        for entry in sorted(self.switch.tables.entries, key=lambda e: e.entry_id):
            last = (
                entry.last_used_at_ms
                if entry.last_used_at_ms >= 0.0
                else entry.inserted_at_ms
            )
            if now_ms - last > idle_timeout_ms:
                expired.append(entry)
        return expired

    def prune_admission(self, now_ms: float) -> int:
        """Drop stale admission counters; returns how many were dropped."""
        stale = [
            key
            for key, (_, last_ms) in self._admission.items()
            if now_ms - last_ms > self.admission_window_ms
        ]
        for key in stale:
            del self._admission[key]
        return len(stale)
