"""Flow match conditions.

The paper's Table 1 distinguishes L2-only, L3-only, and combined L2+L3
matches because TCAM capacity depends on the match width (single- vs
double-wide mode).  A :class:`Match` carries optional L2 fields (MAC
addresses, EtherType) and L3 fields (IPv4 prefixes, protocol); its
:attr:`kind` classifies it into the width classes the TCAM model uses.

Matches also support overlap and subsumption tests, which the ClassBench
workload generator uses to build rule dependency DAGs.
:class:`OverlapIndex` and :func:`overlapping_pairs` find the overlapping
pairs of a rule list without comparing every pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple


class MatchKind(enum.Enum):
    """Width class of a match, as seen by the TCAM."""

    L2 = "l2"
    L3 = "l3"
    L2_L3 = "l2+l3"

    # Members are singletons, so identity is equality; the inherited
    # hash runs as Python code on every dict lookup keyed by a kind.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class IpPrefix:
    """An IPv4 prefix, value/length."""

    value: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length must be in [0, 32], got {self.length}")
        if not 0 <= self.value < 2**32:
            raise ValueError("prefix value out of IPv4 range")
        mask = self.mask
        if self.value & ~mask & 0xFFFFFFFF:
            raise ValueError("prefix has host bits set beyond its length")

    @property
    def mask(self) -> int:
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    def contains_address(self, address: int) -> bool:
        return (address & self.mask) == self.value

    def covers(self, other: "IpPrefix") -> bool:
        """True if every address in ``other`` is inside this prefix."""
        return self.length <= other.length and other.value & self.mask == self.value

    def overlaps(self, other: "IpPrefix") -> bool:
        """True if the two prefixes share at least one address."""
        return self.covers(other) or other.covers(self)

    def __str__(self) -> str:
        octets = [(self.value >> shift) & 0xFF for shift in (24, 16, 8, 0)]
        return f"{'.'.join(str(o) for o in octets)}/{self.length}"


def _field_overlaps(a, b) -> bool:
    """Exact-match fields overlap when either is a wildcard or both equal."""
    return a is None or b is None or a == b


def _field_covers(a, b) -> bool:
    """Field ``a`` covers ``b`` when ``a`` is a wildcard or both equal."""
    return a is None or a == b


@dataclass(frozen=True)
class Match:
    """An OpenFlow match over L2 and/or L3 header fields.

    ``None`` means wildcard.  At least one field must be set.
    """

    eth_src: Optional[int] = None
    eth_dst: Optional[int] = None
    eth_type: Optional[int] = None
    ip_src: Optional[IpPrefix] = None
    ip_dst: Optional[IpPrefix] = None
    ip_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None
    # Derived once in __post_init__; ClassVar so fields/eq/hash/repr ignore them.
    kind: ClassVar[MatchKind]
    _key: ClassVar[Tuple[Optional[int], ...]]

    def __post_init__(self) -> None:
        ip_src, ip_dst = self.ip_src, self.ip_dst
        key = (
            self.eth_src,
            self.eth_dst,
            self.eth_type,
            None if ip_src is None else ip_src.value,
            None if ip_src is None else ip_src.length,
            None if ip_dst is None else ip_dst.value,
            None if ip_dst is None else ip_dst.length,
            self.ip_proto,
            self.tp_src,
            self.tp_dst,
        )
        if all(value is None for value in key):
            raise ValueError("a Match must constrain at least one field")
        # L2 means MAC addresses.  ``eth_type`` is deliberately excluded:
        # every L3 rule carries an EtherType qualifier, yet the paper's
        # Table 1 counts such rules as single-wide L3 entries.
        has_l2 = self.eth_src is not None or self.eth_dst is not None
        if any(value is not None for value in key[3:]):  # IP and port fields
            kind = MatchKind.L2_L3 if has_l2 else MatchKind.L3
        else:
            kind = MatchKind.L2
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_key", key)

    # -- packet matching ----------------------------------------------------
    def matches_packet(self, packet: "PacketFields") -> bool:
        """True if ``packet`` satisfies every constrained field."""
        if self.eth_src is not None and packet.eth_src != self.eth_src:
            return False
        if self.eth_dst is not None and packet.eth_dst != self.eth_dst:
            return False
        if self.eth_type is not None and packet.eth_type != self.eth_type:
            return False
        if self.ip_src is not None and not self.ip_src.contains_address(packet.ip_src):
            return False
        if self.ip_dst is not None and not self.ip_dst.contains_address(packet.ip_dst):
            return False
        if self.ip_proto is not None and packet.ip_proto != self.ip_proto:
            return False
        if self.tp_src is not None and packet.tp_src != self.tp_src:
            return False
        if self.tp_dst is not None and packet.tp_dst != self.tp_dst:
            return False
        return True

    # -- relations between matches -------------------------------------------
    def overlaps(self, other: "Match") -> bool:
        """True if some packet could match both rules.

        Overlap between rules of different priority is what forces barrier
        priorities in the scheduler's dependency DAGs.
        """
        exact_pairs = (
            (self.eth_src, other.eth_src),
            (self.eth_dst, other.eth_dst),
            (self.eth_type, other.eth_type),
            (self.ip_proto, other.ip_proto),
            (self.tp_src, other.tp_src),
            (self.tp_dst, other.tp_dst),
        )
        if not all(_field_overlaps(a, b) for a, b in exact_pairs):
            return False
        for mine, theirs in ((self.ip_src, other.ip_src), (self.ip_dst, other.ip_dst)):
            if mine is not None and theirs is not None and not mine.overlaps(theirs):
                return False
        return True

    def covers(self, other: "Match") -> bool:
        """True if every packet matching ``other`` also matches this rule."""
        exact_pairs = (
            (self.eth_src, other.eth_src),
            (self.eth_dst, other.eth_dst),
            (self.eth_type, other.eth_type),
            (self.ip_proto, other.ip_proto),
            (self.tp_src, other.tp_src),
            (self.tp_dst, other.tp_dst),
        )
        if not all(_field_covers(a, b) for a, b in exact_pairs):
            return False
        for mine, theirs in ((self.ip_src, other.ip_src), (self.ip_dst, other.ip_dst)):
            if mine is None:
                continue
            if theirs is None or not mine.covers(theirs):
                return False
        return True

    def key(self) -> Tuple[Optional[int], ...]:
        """Exact-duplicate identity, equal iff the matches are: a flat tuple
        of ints and ``None`` (a prefix as value, length) that hashes in C."""
        return self._key


#: Exact-match fields :class:`OverlapIndex` may bucket on, in tie-break
#: order.
_BUCKET_FIELDS = ("eth_src", "eth_dst", "eth_type", "ip_proto", "tp_src", "tp_dst")


def _bucket_field(matches: Sequence[Match]) -> str:
    """The exact field with the most distinct non-wildcard values (the
    first such field on a tie)."""

    def distinct_values(name: str) -> int:
        values = dict.fromkeys(getattr(m, name) for m in matches)
        values.pop(None, None)
        return len(values)

    return max(_BUCKET_FIELDS, key=distinct_values)


class OverlapIndex:
    """Files rules of one list by an exact-match field, to list the filed
    rules that may overlap another rule of that list.

    The field is the one of ``eth_src``, ``eth_dst``, ``eth_type``,
    ``ip_proto``, ``tp_src``, ``tp_dst`` with the most distinct values in
    ``matches``.  Rules holding different values there cannot overlap, so
    a rule's candidates are the filed rules sharing its value or
    wildcarding the field; a rule wildcarding it has every filed rule as
    a candidate.  No candidate is tested here: callers apply
    :meth:`Match.overlaps` (or :meth:`Match.covers`, which implies it).
    """

    def __init__(self, matches: Sequence[Match]) -> None:
        self._matches = matches
        self._field = _bucket_field(matches)
        self._filed: List[int] = []
        self._buckets: Dict[object, List[int]] = {}
        self._wildcards: List[int] = []

    def add(self, index: int) -> None:
        """File ``matches[index]``; indices are filed in ascending order."""
        value = getattr(self._matches[index], self._field)
        self._filed.append(index)
        if value is None:
            self._wildcards.append(index)
        else:
            self._buckets.setdefault(value, []).append(index)

    def candidates(self, index: int) -> List[int]:
        """Filed indices, ascending, whose rules may overlap ``matches[index]``."""
        value = getattr(self._matches[index], self._field)
        if value is None:
            return list(self._filed)
        bucket = self._buckets.get(value, [])
        return sorted(bucket + self._wildcards) if self._wildcards else list(bucket)


def overlapping_pairs(matches: Sequence[Match]) -> List[Tuple[int, int]]:
    """Every ``(i, j)`` with ``i < j`` and ``matches[i].overlaps(matches[j])``,
    in lexicographic order.

    Each rule is tested only against its :class:`OverlapIndex` candidates
    among the earlier rules, so the pairs are exactly those of the
    all-pairs scan at a cost of one overlap test per candidate.
    """
    index = OverlapIndex(matches)
    pairs: List[Tuple[int, int]] = []
    for j, later in enumerate(matches):
        for i in index.candidates(j):
            if matches[i].overlaps(later):
                pairs.append((i, j))
        index.add(j)
    pairs.sort()
    return pairs


@dataclass(frozen=True)
class PacketFields:
    """Concrete header values of a data-plane packet."""

    eth_src: int = 0
    eth_dst: int = 0
    eth_type: int = 0x0800
    ip_src: int = 0
    ip_dst: int = 0
    ip_proto: int = 6
    tp_src: int = 0
    tp_dst: int = 0

    def exact_match(self) -> Match:
        """The exact-match rule for this packet (OVS kernel microflow)."""
        return Match(
            eth_src=self.eth_src,
            eth_dst=self.eth_dst,
            eth_type=self.eth_type,
            ip_src=IpPrefix(self.ip_src, 32),
            ip_dst=IpPrefix(self.ip_dst, 32),
            ip_proto=self.ip_proto,
            tp_src=self.tp_src,
            tp_dst=self.tp_dst,
        )
