"""The Tango score database.

Measurement results from applying Tango patterns are stored centrally so
that every component (inference engine, schedulers, applications) can
share them (Section 4).  Scores are keyed by (switch, metric, parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class ScoreKey:
    """Identifies one measurement series."""

    switch: str
    metric: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, switch: str, metric: str, **params: Any) -> "ScoreKey":
        return cls(switch=switch, metric=metric, params=tuple(sorted(params.items())))


@dataclass
class ScoreRecord:
    """One stored measurement (a scalar, curve, or structured result).

    ``source`` is run provenance: which engine (and, where relevant,
    which probing pattern) produced the value -- e.g.
    ``"probing:priority-asc"`` or ``"size_prober"``.  It is not part of
    the key, so records written before provenance existed keep their
    identity and readers that ignore it are unaffected.
    """

    key: ScoreKey
    value: Any
    recorded_at_ms: float = 0.0
    source: Optional[str] = None


class TangoScoreDatabase:
    """Central store of probing results (TangoDB's score half).

    Lookups by switch are served from a per-switch secondary index that
    is maintained on every :meth:`put`/:meth:`remove`, so
    :meth:`records_for_switch` and :meth:`metrics_for_switch` cost
    O(records for that switch) instead of a linear scan over the whole
    database -- the difference between per-switch and fleet-scale cost
    once thousands of switches share one TangoDB.  The index preserves
    the exact ordering of the historical linear scan: records come back
    in first-insertion order, and overwriting an existing key keeps its
    original position.
    """

    def __init__(self) -> None:
        self._records: Dict[ScoreKey, ScoreRecord] = {}
        # Secondary index: switch -> insertion-ordered set of its keys
        # (a dict-of-None, exploiting dict ordering; values are unused).
        self._by_switch: Dict[str, Dict[ScoreKey, None]] = {}

    def put(
        self,
        switch: str,
        metric: str,
        value: Any,
        recorded_at_ms: float = 0.0,
        source: Optional[str] = None,
        **params: Any,
    ) -> ScoreKey:
        key = ScoreKey.make(switch, metric, **params)
        if key not in self._records:
            self._by_switch.setdefault(switch, {})[key] = None
        self._records[key] = ScoreRecord(
            key=key, value=value, recorded_at_ms=recorded_at_ms, source=source
        )
        return key

    def remove(self, switch: str, metric: str, **params: Any) -> bool:
        """Delete one record (e.g. a stale cached model); True if it existed."""
        key = ScoreKey.make(switch, metric, **params)
        if self._records.pop(key, None) is None:
            return False
        bucket = self._by_switch.get(switch)
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self._by_switch[switch]
        return True

    def get(self, switch: str, metric: str, default: Any = None, **params: Any) -> Any:
        key = ScoreKey.make(switch, metric, **params)
        record = self._records.get(key)
        return record.value if record is not None else default

    def get_record(
        self, switch: str, metric: str, **params: Any
    ) -> Optional[ScoreRecord]:
        """The full stored record (value + timestamp + provenance)."""
        return self._records.get(ScoreKey.make(switch, metric, **params))

    def has(self, switch: str, metric: str, **params: Any) -> bool:
        return ScoreKey.make(switch, metric, **params) in self._records

    def records_for_switch(self, switch: str) -> List[ScoreRecord]:
        """All records for one switch, in first-insertion order."""
        bucket = self._by_switch.get(switch)
        if bucket is None:
            return []
        return [self._records[key] for key in bucket]

    def metrics_for_switch(self, switch: str) -> List[str]:
        """Sorted distinct metric names recorded for one switch."""
        bucket = self._by_switch.get(switch)
        if bucket is None:
            return []
        return sorted({key.metric for key in bucket})

    def records(self) -> List[ScoreRecord]:
        """Every stored record, in insertion order.

        The ground truth a linear scan would see -- the differential
        test for the per-switch secondary index compares
        :meth:`records_for_switch` against a filter over this list.
        In a fleet run, records of different switches interleave in the
        order the simulator breaks same-time ties, so a consumer that
        compares or persists records across runs should key them by
        switch (:meth:`records_for_switch`).
        """
        return list(self._records.values())

    def switches(self) -> List[str]:
        """Sorted names of every switch with at least one record."""
        return sorted(self._by_switch)

    def __len__(self) -> int:
        return len(self._records)
