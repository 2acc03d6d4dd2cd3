"""Traffic-matrix and Zipf-popularity helpers for network-wide scenarios."""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.sim.rng import SeededRng


def zipf_weights(count: int, skew: float) -> List[float]:
    """Unnormalised Zipf popularity weights ``1 / rank^skew`` for ranks 1..count.

    ``skew=0`` degenerates to a uniform mix; larger values concentrate
    probability mass on the first few ranks (the heavy-hitter shape of
    real flow-destination popularity that FDRC-style rule caching
    exploits).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    return [1.0 / float(rank) ** skew for rank in range(1, count + 1)]


class ZipfSampler:
    """Deterministic rank sampler over a Zipf popularity distribution.

    Draws come from the supplied :class:`~repro.sim.rng.SeededRng`
    stream via inverse-CDF lookup on the precomputed cumulative weights,
    so a sampler is a pure function of ``(count, skew, rng stream)`` —
    same seed, same rank sequence, byte-for-byte.
    """

    def __init__(self, count: int, skew: float, rng: SeededRng) -> None:
        weights = zipf_weights(count, skew)
        self._cumulative = np.array(list(itertools.accumulate(weights)))
        self._total = float(self._cumulative[-1])
        self._gen = rng.generator

    def draw(self, size: int) -> List[int]:
        """The next ``size`` 0-based ranks (0 is the most popular).

        Each rank is one uniform double from the rng's stream, located
        with ``searchsorted(side="left")`` (``bisect_left``), so drawing
        k ranks and then m equals drawing k + m at once, provided nothing
        else draws from that stream in between.
        """
        u = self._gen.uniform(0.0, self._total, size)
        ranks = np.searchsorted(self._cumulative, u, side="left")
        return np.minimum(ranks, len(self._cumulative) - 1).tolist()


def uniform_traffic_matrix(
    nodes: Sequence[str],
    total_demand: float,
    rng: SeededRng,
    sparsity: float = 0.5,
) -> Dict[Tuple[str, str], float]:
    """A random traffic matrix over node pairs.

    Args:
        nodes: node names.
        total_demand: demand summed over all selected pairs.
        rng: randomness source.
        sparsity: fraction of ordered pairs that carry traffic.
    """
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    count = max(1, int(len(pairs) * sparsity))
    selected = rng.sample(pairs, count)
    weights = [rng.uniform(0.5, 1.5) for _ in selected]
    scale = total_demand / sum(weights)
    return {pair: weight * scale for pair, weight in zip(selected, weights)}
