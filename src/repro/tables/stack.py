"""The multi-level flow-table stack.

Section 5.1 of the paper models a switch's flow tables as a multilevel
cache over the installed rule set: the cache policy induces a total order
over all rules, the top ``n_1`` live in the fastest layer (TCAM), the
next ``n_2`` in the next layer (kernel table), and so on.  A rule's layer
determines its forwarding latency tier, which is everything the Tango
probing patterns observe.

:class:`RankedTableStack` implements exactly this model.  Rules are kept
in a list sorted by their policy score; a rule's layer follows from its
rank and the layers' capacities.  Probing a rule updates its use time and
traffic count, which can move it in the ranking -- this is why the
paper's probe patterns are carefully constructed not to disturb relative
order.

Every flow_mod and probe packet of an inference run passes through the
stack, so each message does only the work its effect needs: an entry's
rank key is filed once and reused; under a policy that reads neither use
time nor traffic count (FIFO, LIFO, PRIORITY) a touch updates only the
entry, since no touch can move it; a layer lookup is answered from a
cache that any change to the ranking empties, and a one-layer stack
needs no lookup at all; a packet lookup builds no candidate list while
only /32 destination rules are resident; and the admission check's
capacity arithmetic is memoised per candidate kind until the set of
resident match kinds changes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.openflow.actions import Action
from repro.openflow.errors import TableFullError
from repro.openflow.match import Match, MatchKind, PacketFields
from repro.tables.entry import FlowEntry
from repro.tables.policies import CachePolicy
from repro.tables.tcam import TcamGeometry

#: The FlowEntry fields a touch changes.
_TOUCHED_FIELDS = frozenset({"last_used_at_ms", "traffic_count"})

#: Marks a capacity not yet memoised (None is a memoised answer).
_UNSET = object()


@dataclass(frozen=True)
class TableLayer:
    """One level of the table hierarchy.

    Args:
        name: e.g. ``"tcam"``, ``"kernel"``, ``"userspace"``.
        capacity: entry capacity; ``None`` means unbounded (software).
        geometry: optional TCAM geometry; when set, capacity is expressed
            in slot units and depends on each entry's match kind.
    """

    name: str
    capacity: Optional[int] = None
    geometry: Optional[TcamGeometry] = None

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        if self.capacity is not None and self.geometry is not None:
            raise ValueError("give either capacity or geometry, not both")


def _file(index: Dict, key: object, entry_id: int) -> None:
    """File ``entry_id`` under ``key``; a new key's list has one slot, not four."""
    bucket = index.get(key)
    if bucket is None:
        index[key] = [entry_id]
    else:
        bucket.append(entry_id)


class RankedTableStack:
    """Rules ranked by cache policy, spread across table layers.

    Args:
        layers: fastest-first table layers; at most the last may be
            unbounded.
        policy: the cache-retention policy (LEX ordering).
        hard_limit: safety cap on total rules even with unbounded layers.
    """

    def __init__(
        self,
        layers: List[TableLayer],
        policy: CachePolicy,
        hard_limit: int = 200_000,
    ) -> None:
        if not layers:
            raise ValueError("need at least one table layer")
        for layer in layers[:-1]:
            if layer.capacity is None and layer.geometry is None:
                raise ValueError("only the last layer may be unbounded")
        self.layers = list(layers)
        self.policy = policy
        self.hard_limit = hard_limit
        self._has_unbounded = any(
            layer.capacity is None and layer.geometry is None for layer in self.layers
        )
        self._one_layer = len(self.layers) == 1
        # Whether a touch can change an entry's rank key.
        self._touch_rescores = any(
            name in _TOUCHED_FIELDS for name, _ in policy._fields
        )
        # Total entry capacity per candidate kind, given the resident
        # kinds (emptied when they change); None when the kinds cost
        # differently in some TCAM layer (see _fits).
        self._capacity_memo: Dict[MatchKind, Optional[int]] = {}

        self._entries: Dict[int, FlowEntry] = {}
        self._by_key: Dict[Tuple, List[int]] = {}
        self._by_ip_dst: Dict[int, List[int]] = {}
        self._by_eth_dst: Dict[int, List[int]] = {}
        self._wildcards: List[int] = []
        # Policy scores sorted ascending; the best-ranked entry is last.
        # Each score ends in float(entry_id), so it is the rank key as is.
        self._ranked: List[Tuple[float, ...]] = []
        # entry_id -> the rank key filed in _ranked for that entry.
        self._keys: Dict[int, Tuple[float, ...]] = {}
        self._next_id = 0
        self._boundaries_dirty = True
        self._boundaries: List[int] = []
        # Counts of installed entries per match kind, and the kinds with a
        # non-zero count; when every resident kind costs the same in every
        # TCAM layer, layer boundaries follow from arithmetic instead of
        # an O(n) walk.
        self._kind_counts: Dict[MatchKind, int] = {}
        self._resident_kinds: FrozenSet[MatchKind] = frozenset()
        # entry_id -> layer, valid for the current ranking: every ranking
        # change (_ranked_insert, _ranked_remove, clear) empties it.
        self._layer_cache: Dict[int, int] = {}

    # -- basic accessors -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, match: Match) -> bool:
        return bool(self._by_key.get(match.key()))

    @property
    def entries(self) -> List[FlowEntry]:
        """All installed entries (unspecified order)."""
        return list(self._entries.values())

    def entries_by_rank(self) -> List[FlowEntry]:
        """Entries from best-ranked (fastest layer) to worst."""
        return [self._entries[int(key[-1])] for key in reversed(self._ranked)]

    def worst_entries(self, count: int = 1) -> List[FlowEntry]:
        """The ``count`` worst-ranked entries, worst first.

        These are the policy's eviction candidates: the entries the
        cache hierarchy relegates to its slowest layer (or would push
        out entirely).  O(count) — the ranking is already maintained.
        """
        return [self._entries[int(key[-1])] for key in self._ranked[:count]]

    def lookup_exact(self, match: Match, priority: Optional[int] = None) -> Optional[FlowEntry]:
        """Find an entry with exactly this match (and priority, if given)."""
        for entry_id in self._by_key.get(match.key(), ()):
            entry = self._entries[entry_id]
            if priority is None or entry.priority == priority:
                return entry
        return None

    # -- ranking internals -----------------------------------------------------
    def _filed_key(self, entry: FlowEntry) -> Tuple[float, ...]:
        key = self._keys.get(entry.entry_id)
        if key is None:
            raise AssertionError("entry missing from ranking")
        return key

    def _index_of(self, key: Tuple[float, ...]) -> int:
        index = bisect.bisect_left(self._ranked, key)
        if index >= len(self._ranked) or self._ranked[index] != key:
            raise AssertionError("ranked index out of sync")
        return index

    def _ranked_insert(self, entry: FlowEntry, key: Tuple[float, ...]) -> None:
        self._keys[entry.entry_id] = key
        bisect.insort(self._ranked, key)
        self._boundaries_dirty = True
        self._layer_cache.clear()

    def _ranked_remove(self, entry: FlowEntry) -> None:
        del self._ranked[self._index_of(self._filed_key(entry))]
        del self._keys[entry.entry_id]
        self._boundaries_dirty = True
        self._layer_cache.clear()

    def rank_of(self, entry: FlowEntry) -> int:
        """0-based rank from the best (fastest) position."""
        return len(self._ranked) - 1 - self._index_of(self._filed_key(entry))

    def _layer_cost(self, layer: TableLayer, entry: FlowEntry) -> float:
        if layer.geometry is not None:
            return layer.geometry.entry_cost(entry.match.kind)
        return 1.0

    def _uniform_cost(self, layer: TableLayer) -> Optional[float]:
        """The single per-entry cost in ``layer``, or None if mixed."""
        assert layer.geometry is not None
        costs = {
            layer.geometry.entry_cost(kind)
            for kind, count in self._kind_counts.items()
            if count > 0
        }
        if len(costs) > 1:
            return None
        return costs.pop() if costs else 1.0

    def _compute_boundaries(self) -> List[int]:
        """Rank boundaries: ranks [b[i-1], b[i]) belong to layer i."""
        if not self._boundaries_dirty:
            return self._boundaries
        boundaries: List[int] = []
        rank = 0
        total = len(self._ranked)
        ordered: Optional[List[FlowEntry]] = None
        for layer in self.layers:
            if layer.capacity is None and layer.geometry is None:
                rank = total
            elif layer.geometry is not None:
                cost = self._uniform_cost(layer)
                if cost is not None:
                    rank = min(total, rank + int(layer.geometry.slot_units // cost))
                else:
                    if ordered is None:
                        ordered = self.entries_by_rank()
                    budget = layer.geometry.slot_units
                    while rank < total:
                        entry_cost = self._layer_cost(layer, ordered[rank])
                        if entry_cost > budget:
                            break
                        budget -= entry_cost
                        rank += 1
            else:
                rank = min(total, rank + layer.capacity)
            boundaries.append(rank)
        self._boundaries = boundaries
        self._boundaries_dirty = False
        return boundaries

    def layer_of(self, entry: FlowEntry) -> int:
        """Index of the layer currently holding ``entry``."""
        if self._one_layer:
            # Admission keeps every resident entry inside the only layer.
            if entry.entry_id not in self._keys:
                raise AssertionError("entry missing from ranking")
            return 0
        layer = self._layer_cache.get(entry.entry_id)
        if layer is not None:
            return layer
        rank = self.rank_of(entry)
        for layer_index, boundary in enumerate(self._compute_boundaries()):
            if rank < boundary:
                self._layer_cache[entry.entry_id] = layer_index
                return layer_index
        raise AssertionError("entry beyond all layer boundaries")

    def layer_occupancy(self) -> List[int]:
        """Number of entries currently resident in each layer."""
        boundaries = self._compute_boundaries()
        counts = []
        previous = 0
        for boundary in boundaries:
            counts.append(boundary - previous)
            previous = boundary
        return counts

    def occupancy_snapshot(self) -> Dict[str, object]:
        """A JSON-ready per-layer occupancy view (pure read).

        Each layer reports its entry count and, when bounded, an
        occupancy ``ratio`` in [0, 1]: entries over capacity for plain
        layers, slots used over slot units for TCAM-geometry layers.
        Unbounded layers report ``ratio`` None.  This is the signal the
        telemetry collector samples for occupancy-headroom SLOs.
        """
        counts = self.layer_occupancy()
        boundaries = self._compute_boundaries()
        ordered: Optional[List[FlowEntry]] = None
        layers = []
        previous = 0
        for index, (layer, count) in enumerate(zip(self.layers, counts)):
            ratio: Optional[float] = None
            if layer.capacity is not None:
                ratio = count / layer.capacity if layer.capacity else 1.0
            elif layer.geometry is not None:
                if ordered is None:
                    ordered = self.entries_by_rank()
                used = sum(
                    self._layer_cost(layer, entry)
                    for entry in ordered[previous : boundaries[index]]
                )
                units = layer.geometry.slot_units
                ratio = used / units if units else 1.0
            layers.append({"name": layer.name, "entries": count, "ratio": ratio})
            previous = boundaries[index]
        return {"total": len(self._entries), "layers": layers}

    def _uniform_capacity(self, kinds: FrozenSet[MatchKind]) -> Optional[int]:
        """Total entries the bounded layers hold when every entry is one
        of ``kinds``; None if the kinds cost differently in some layer."""
        total_capacity = 0
        for layer in self.layers:
            if layer.geometry is None:
                total_capacity += layer.capacity or 0
                continue
            costs = {layer.geometry.entry_cost(kind) for kind in kinds}
            if len(costs) > 1:
                return None
            total_capacity += int(layer.geometry.slot_units // costs.pop())
        return total_capacity

    def _fits(self, candidate: FlowEntry, kind: MatchKind) -> bool:
        """Would the stack still hold every entry if ``candidate`` (of
        match kind ``kind``) joined?"""
        if len(self._entries) + 1 > self.hard_limit:
            return False
        if self._has_unbounded:
            return True
        # All layers bounded: check that total capacity absorbs the new
        # entry.  With a homogeneous entry mix (including the candidate)
        # the capacity is arithmetic; otherwise simulate the boundary walk.
        total_capacity = self._capacity_memo.get(kind, _UNSET)
        if total_capacity is _UNSET:
            total_capacity = self._capacity_memo[kind] = self._uniform_capacity(
                self._resident_kinds | {kind}
            )
        if total_capacity is not None:
            return len(self._entries) + 1 <= total_capacity

        ordered = self.entries_by_rank()
        candidate_key = self.policy.score(candidate)
        insert_at = len(self._ranked) - bisect.bisect_left(self._ranked, candidate_key)
        ordered.insert(insert_at, candidate)
        rank = 0
        for layer in self.layers:
            if layer.geometry is not None:
                budget = layer.geometry.slot_units
                while rank < len(ordered):
                    cost = self._layer_cost(layer, ordered[rank])
                    if cost > budget:
                        break
                    budget -= cost
                    rank += 1
            else:
                rank = min(len(ordered), rank + (layer.capacity or 0))
        return rank >= len(ordered)

    # -- mutations --------------------------------------------------------------
    def insert(
        self,
        match: Match,
        priority: int,
        actions: Tuple[Action, ...],
        now_ms: float,
    ) -> FlowEntry:
        """Install a new rule.

        Raises:
            TableFullError: if no layer can absorb the rule.
        """
        entry = FlowEntry(
            match=match,
            priority=priority,
            actions=actions,
            entry_id=self._next_id,
            inserted_at_ms=now_ms,
        )
        kind = match.kind
        if not self._fits(entry, kind):
            raise TableFullError(capacity=len(self._entries))
        self._next_id += 1
        self._entries[entry.entry_id] = entry
        _file(self._by_key, match.key(), entry.entry_id)
        index, address = self._address_index(match)
        if index is None:
            self._wildcards.append(entry.entry_id)
        else:
            _file(index, address, entry.entry_id)
        count = self._kind_counts.get(kind, 0)
        if not count:
            self._resident_kinds = self._resident_kinds | {kind}
            self._capacity_memo.clear()
        self._kind_counts[kind] = count + 1
        self._ranked_insert(entry, self.policy.score(entry))
        return entry

    def _address_index(
        self, match: Match
    ) -> Tuple[Optional[Dict[int, List[int]]], Optional[int]]:
        """The packet-lookup index and address that file ``match``;
        ``(None, None)`` for a rule filed with the wildcards."""
        if match.ip_dst is not None and match.ip_dst.length == 32:
            return self._by_ip_dst, match.ip_dst.value
        if match.eth_dst is not None:
            return self._by_eth_dst, match.eth_dst
        return None, None

    def remove(self, entry: FlowEntry) -> None:
        """Remove a specific installed entry."""
        if entry.entry_id not in self._entries:
            raise KeyError(f"entry {entry.entry_id} not installed")
        self._ranked_remove(entry)
        del self._entries[entry.entry_id]
        key_list = self._by_key[entry.match.key()]
        key_list.remove(entry.entry_id)
        if not key_list:
            del self._by_key[entry.match.key()]
        index, address = self._address_index(entry.match)
        if index is None:
            self._wildcards.remove(entry.entry_id)
        else:
            # An emptied bucket goes, so that an empty index reads as empty.
            bucket = index[address]
            bucket.remove(entry.entry_id)
            if not bucket:
                del index[address]
        kind = entry.match.kind
        self._kind_counts[kind] -= 1
        if not self._kind_counts[kind]:
            self._resident_kinds = self._resident_kinds - {kind}
            self._capacity_memo.clear()

    def touch(self, entry: FlowEntry, now_ms: float, packets: int = 1) -> None:
        """Update use time / traffic count, preserving ranking invariants.

        Keys end in the unique entry id, so an unchanged key means an
        unchanged position: the ranking and layer boundaries stay put.
        A policy that reads neither use time nor traffic count never
        changes a key on a touch, so it is not rescored.
        """
        if not self._touch_rescores:
            if entry.entry_id not in self._keys:
                raise AssertionError("entry missing from ranking")
            entry.touch(now_ms, packets=packets)
            return
        old_key = self._filed_key(entry)
        entry.touch(now_ms, packets=packets)
        key = self.policy.score(entry)
        if key != old_key:
            self._ranked_remove(entry)
            self._ranked_insert(entry, key)

    def update_priority(self, entry: FlowEntry, priority: int) -> None:
        """Change an entry's priority (flow MODIFY with a new priority)."""
        self._ranked_remove(entry)
        entry.priority = priority
        self._ranked_insert(entry, self.policy.score(entry))

    # -- packet lookup -------------------------------------------------------------
    def match_packet(self, packet: PacketFields) -> Optional[FlowEntry]:
        """Highest-priority entry matching the packet, or None."""
        candidate_ids = self._by_ip_dst.get(packet.ip_dst, ())
        if self._by_eth_dst or self._wildcards:
            candidate_ids = list(candidate_ids)
            candidate_ids.extend(self._by_eth_dst.get(packet.eth_dst, ()))
            candidate_ids.extend(self._wildcards)
        best: Optional[FlowEntry] = None
        for entry_id in candidate_ids:
            entry = self._entries[entry_id]
            if not entry.match.matches_packet(packet):
                continue
            if (
                best is None
                or entry.priority > best.priority
                or (entry.priority == best.priority and entry.entry_id > best.entry_id)
            ):
                best = entry
        return best

    def clear(self) -> None:
        self._entries.clear()
        self._by_key.clear()
        self._by_ip_dst.clear()
        self._by_eth_dst.clear()
        self._wildcards.clear()
        self._ranked.clear()
        self._keys.clear()
        self._kind_counts.clear()
        self._resident_kinds = frozenset()
        self._capacity_memo.clear()
        self._boundaries_dirty = True
        self._layer_cache.clear()
