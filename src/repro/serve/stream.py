"""Deterministic sustained flow-request workload for the serving loop.

:class:`FlowRequestStream` generates the request mix a long-running SDN
controller sees: thousands of tenants whose flows arrive as a Poisson
process in virtual time, with destination popularity following a Zipf
law (heavy hitters dominate, which is what makes rule caching pay) and
a configurable *churn* process that rotates each tenant's hot
destination set every ``churn_interval_ms`` so the cached working set
decays instead of converging.

Everything is a pure function of :class:`StreamConfig`: arrival times,
tenant choices, destinations, and churn rotations all come from labeled
child streams of one :class:`~repro.sim.rng.SeededRng`, so two streams
built from equal configs yield byte-identical arrival sequences — the
property the serve replay test and ``tango-serve --verify-determinism``
rely on.

The stream draws its random numbers in blocks of :data:`_BLOCK`
arrivals, and the blocks are bit-identical to drawing one scalar per
arrival.  The interarrival, tenant and destination child streams each
draw a single distribution (one exponential or one uniform double per
value), so numpy's array draw of n values consumes the generator exactly
as n scalar draws do and returns the same doubles.  Ranks come from
``searchsorted(side="left")``, which equals ``bisect_left``.  Arrival
times still accumulate one Python float add at a time, in arrival order.
Churn strides stay scalar ``randint`` draws on their own stream, taken
as each epoch is entered.  A block is a fixed size, so the stream stays
lazy: it holds one block plus one shared :class:`Match` per distinct
flow, however many arrivals it yields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, NamedTuple, Tuple

from repro.openflow.match import IpPrefix, Match
from repro.sim.rng import SeededRng
from repro.workloads.traffic import ZipfSampler

#: Bits reserved for the per-tenant destination index inside an IPv4
#: destination address: address = (tenant << 12) | destination.
TENANT_SHIFT = 12

#: Arrivals drawn per block of the interarrival, tenant and destination
#: streams.
_BLOCK = 4096


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the synthetic serving workload.

    Args:
        arrivals: total flow requests to generate.
        tenants: number of tenants; each owns a private destination block.
        destinations_per_tenant: addresses per tenant block (≤ 4096).
        rate_per_ms: mean flow-arrival rate (Poisson, virtual time).
        zipf_skew: destination popularity skew within a tenant (0 = uniform).
        tenant_skew: tenant-mix skew (0 = uniform tenant load).
        priority_levels: flows get priority ``1 + tenant % priority_levels``.
        churn_interval_ms: rotate each tenant's hot destination set this
            often; ``0`` disables churn (a fixed working set).
        seed: root seed for every stream.
    """

    arrivals: int
    tenants: int = 32
    destinations_per_tenant: int = 256
    rate_per_ms: float = 2.0
    zipf_skew: float = 1.1
    tenant_skew: float = 0.6
    priority_levels: int = 4
    churn_interval_ms: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrivals < 0:
            raise ValueError("arrivals must be non-negative")
        if self.tenants < 1:
            raise ValueError("need at least one tenant")
        if not 1 <= self.destinations_per_tenant <= (1 << TENANT_SHIFT):
            raise ValueError(
                f"destinations_per_tenant must be in [1, {1 << TENANT_SHIFT}]"
            )
        if self.rate_per_ms <= 0:
            raise ValueError("rate_per_ms must be positive")
        if self.priority_levels < 1:
            raise ValueError("priority_levels must be at least 1")
        if self.churn_interval_ms < 0:
            raise ValueError("churn_interval_ms must be non-negative")


class FlowArrival(NamedTuple):
    """One flow request: a packet-in the controller must cover with a rule.

    ``match`` is a pure function of ``(tenant, destination)``
    (:func:`flow_match`), so comparing it adds nothing to equality.
    """

    index: int
    t_ms: float
    tenant: int
    destination: int
    priority: int
    match: Match

    @property
    def flow_key(self) -> Tuple[int, int]:
        return (self.tenant, self.destination)


def flow_address(tenant: int, destination: int) -> int:
    """The IPv4 address encoding a (tenant, destination) pair."""
    return ((tenant << TENANT_SHIFT) | destination) & 0xFFFFFFFF


def flow_match(tenant: int, destination: int) -> Match:
    """The exact-match (/32) rule match covering one flow."""
    return Match(
        eth_type=0x0800, ip_dst=IpPrefix(flow_address(tenant, destination), 32)
    )


class FlowRequestStream:
    """Iterable over the configured arrival sequence.

    Iterating yields :class:`FlowArrival` objects in non-decreasing
    ``t_ms`` order.  Each ``__iter__`` call restarts the stream from the
    seed, so one stream object can drive a run and its replay.
    """

    def __init__(self, config: StreamConfig) -> None:
        self.config = config

    def __iter__(self) -> Iterator[FlowArrival]:
        config = self.config
        root = SeededRng(config.seed)
        gaps = root.child("serve:interarrival").generator
        tenant_sampler = ZipfSampler(
            config.tenants, config.tenant_skew, root.child("serve:tenant")
        )
        dest_sampler = ZipfSampler(
            config.destinations_per_tenant,
            config.zipf_skew,
            root.child("serve:dest"),
        )
        churn_rng = root.child("serve:churn")
        scale = 1.0 / config.rate_per_ms
        destinations = config.destinations_per_tenant
        churn_interval_ms = config.churn_interval_ms
        priority_levels = config.priority_levels
        # One frozen Match per flow, shared by all of its arrivals.
        matches: Dict[Tuple[int, int], Match] = {}
        # Per-epoch rotation of the rank -> destination mapping.  The
        # stride is drawn once when the epoch is first entered; arrival
        # times are monotone, so the draw order is deterministic.
        epoch = 0
        stride = 0
        t_ms = 0.0
        for start in range(0, config.arrivals, _BLOCK):
            size = min(_BLOCK, config.arrivals - start)
            block = zip(
                range(start, start + size),
                gaps.exponential(scale, size).tolist(),
                tenant_sampler.draw(size),
                dest_sampler.draw(size),
            )
            for index, gap, tenant, rank in block:
                t_ms += gap
                if churn_interval_ms > 0:
                    current_epoch = int(t_ms // churn_interval_ms)
                    while epoch < current_epoch:
                        epoch += 1
                        if destinations > 1:
                            stride = (
                                stride + churn_rng.randint(1, destinations - 1)
                            ) % destinations
                destination = (rank + stride) % destinations
                flow = (tenant, destination)
                match = matches.get(flow)
                if match is None:
                    match = matches[flow] = flow_match(tenant, destination)
                yield FlowArrival(
                    index, t_ms, tenant, destination, 1 + tenant % priority_levels, match
                )
