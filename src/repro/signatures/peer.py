"""Peer-signature counter vector with dynamic counter width (Section IV-D.4).

A GroCoCa client aggregates the cache signatures of its TCG members into a
vector of σ counters of π_p bits.  π_p is *dynamic*: it starts at zero while
the TCG is empty, grows when a counter would overflow, and contracts when
every counter fits in one fewer bit.  Counters are updated by full signature
collections (SigRequest/SigReply) and by the insertion/eviction bit-position
lists piggybacked on broadcast requests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.signatures.bloom import BloomFilter, SignatureScheme

__all__ = ["PeerSignature"]


class PeerSignature:
    """Aggregated TCG cache signatures with adaptive counter width."""

    def __init__(self, scheme: SignatureScheme):
        self.scheme = scheme
        self.counters = np.zeros(scheme.size_bits, dtype=np.int64)
        self.counter_bits = 0  # π_p; zero while no signatures are merged
        self.expansions = 0
        self.contractions = 0
        # Cached max(counters), maintained incrementally by the update
        # paths so the per-broadcast piggyback deltas skip the full-vector
        # reduction; < 0 marks it stale (recompute on next _fit_width).
        self._peak = 0

    # -- width management -------------------------------------------------------

    def _fit_width(self) -> None:
        if self._peak < 0:
            self._peak = int(self.counters.max()) if self.counters.size else 0
        peak = self._peak
        needed = peak.bit_length() if peak > 0 else 0
        if needed > self.counter_bits:
            self.expansions += needed - self.counter_bits
            self.counter_bits = needed
        else:
            # Contract while all values fall below 2^(π_p − 1).
            while self.counter_bits > needed:
                self.contractions += 1
                self.counter_bits -= 1

    @property
    def memory_bits(self) -> int:
        """Storage footprint of the vector: σ · π_p."""
        return self.scheme.size_bits * self.counter_bits

    # -- updates ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything (member departure / reconnection resync)."""
        self.counters[:] = 0
        self.counter_bits = 0
        self._peak = 0

    def merge_signature(self, signature: BloomFilter) -> None:
        """Add one member's full cache signature."""
        if signature.scheme is not self.scheme:
            raise ValueError("signature from a different scheme")
        self.counters += signature.bits
        self._peak = -1  # whole-vector add: recompute lazily
        self._fit_width()

    def apply_update(
        self, insertions: Sequence[int], evictions: Sequence[int]
    ) -> None:
        """Apply a piggybacked insertion/eviction bit-position delta."""
        counters = self.counters
        peak = self._peak
        for position in insertions:
            value = counters[position] + 1
            counters[position] = value
            if peak >= 0 and value > peak:
                peak = int(value)
        for position in evictions:
            value = counters[position]
            if value > 0:
                counters[position] = value - 1
                if value == peak:
                    # The decremented counter may have been the only one
                    # at the peak; a full recompute settles it.
                    peak = -1
        self._peak = peak
        self._fit_width()

    # -- queries ---------------------------------------------------------------------

    def matches_positions(self, positions: Iterable[int]) -> bool:
        """AND-filter: every given bit position is non-zero."""
        counters = self.counters
        for position in positions:
            if counters[position] <= 0:
                return False
        return True

    def covers(self, signature: BloomFilter) -> bool:
        """Search-signature test: peers likely cache all of ``signature``."""
        return bool(np.all(self.counters[signature.bits] > 0))

    def bloom(self) -> BloomFilter:
        """Collapse the counters to a plain signature."""
        result = BloomFilter(self.scheme)
        result.bits = self.counters > 0
        return result
