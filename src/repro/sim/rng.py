"""Seeded random-number utilities.

Every stochastic component in the reproduction draws from a
:class:`SeededRng` so that experiments are reproducible run-to-run.  Seeds
for sub-components are derived deterministically from a root seed plus a
string label, so adding a new consumer does not perturb existing streams.

Gaussian draws come in blocks.  numpy's ``normal(loc, scale)`` is
``loc + scale * standard_normal()``, and a ``standard_normal(k)`` block
consumes the bit generator exactly as ``k`` scalar draws do, so
:meth:`SeededRng.normal` serves each draw from a block and returns the
same value the scalar call would.  Any other draw first re-syncs the
generator to where the scalar draws would have left it: it restores the
state saved before the block and redraws only the consumed count.
"""

from __future__ import annotations

import hashlib
from math import copysign

import numpy as np

#: First block size of a stream's Gaussian draws; each fully consumed
#: block doubles the next one, up to ``_BLOCK_MAX`` (4 KB of float64).
_BLOCK_MIN = 16
_BLOCK_MAX = 512


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a stable 63-bit child seed from ``root_seed`` and ``label``."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class SeededRng:
    """Thin wrapper around :class:`numpy.random.Generator` with derivation.

    Every draw equals the same call on a raw
    ``np.random.default_rng(seed)``, draw for draw, whatever the mix.

    Args:
        seed: root seed for this stream.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)
        # The current block of standard normals, the index of the next
        # unserved one, the bit-generator state before the block was
        # drawn, and the next block's size (1 once the generator is
        # handed out: its holder may draw at any time).
        self._normals = ()
        self._next = 0
        self._block_state = None
        self._block_size = _BLOCK_MIN

    def child(self, label: str) -> "SeededRng":
        """Return an independent stream derived from this one by ``label``."""
        return SeededRng(derive_seed(self.seed, label))

    def sync(self) -> None:
        """Leave the generator where scalar normal draws would have left it,
        and free the current block.  The stream continues unchanged."""
        if self._next < len(self._normals):
            self._gen.bit_generator.state = self._block_state
            if self._next:
                self._gen.standard_normal(self._next)
            self._block_size = _BLOCK_MIN if self._block_size > 1 else 1
        self._normals = ()
        self._next = 0
        self._block_state = None

    def __getstate__(self) -> dict:
        self.sync()
        return self.__dict__.copy()

    # -- forwarding helpers -------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        if self._normals:
            self.sync()
        return float(self._gen.uniform(low, high))

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """``mean + std * z`` for the stream's next standard normal ``z``."""
        if not std > 0 and std == std and copysign(1.0, std) < 0:
            raise ValueError("scale < 0")  # numpy's check: sign bit set, not NaN
        index = self._next
        if index == len(self._normals):
            if self._normals and 1 < self._block_size < _BLOCK_MAX:
                self._block_size *= 2
            self._block_state = self._gen.bit_generator.state
            self._normals = memoryview(self._gen.standard_normal(self._block_size))
            index = 0
        self._next = index + 1
        return mean + std * self._normals[index]

    def exponential(self, scale: float = 1.0) -> float:
        if self._normals:
            self.sync()
        return float(self._gen.exponential(scale))

    def randint(self, low: int, high: int) -> int:
        """Random integer in ``[low, high)``."""
        if self._normals:
            self.sync()
        return int(self._gen.integers(low, high))

    def choice(self, seq):
        """Pick one element of a non-empty sequence."""
        if len(seq) == 0:
            raise ValueError("cannot choose from an empty sequence")
        if self._normals:
            self.sync()
        return seq[int(self._gen.integers(0, len(seq)))]

    def shuffle(self, seq: list) -> None:
        """Shuffle ``seq`` in place."""
        if self._normals:
            self.sync()
        self._gen.shuffle(seq)

    def sample(self, seq, k: int) -> list:
        """Sample ``k`` distinct elements from ``seq``."""
        if k > len(seq):
            raise ValueError(f"cannot sample {k} from {len(seq)} elements")
        if self._normals:
            self.sync()
        idx = self._gen.choice(len(seq), size=k, replace=False)
        return [seq[int(i)] for i in idx]

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator, for vectorised draws.

        Its holder may draw from it at any later time, so from here on
        this stream draws its normals one at a time (blocks of one).
        """
        self.sync()
        self._block_size = 1
        return self._gen
