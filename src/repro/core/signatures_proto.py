"""Client-side cache signature state machine (Section IV-D.3..5).

Each GroCoCa client keeps

* a counting Bloom filter over its *own* cache (proactive signature
  regeneration, π_c-bit counters),
* a :class:`~repro.signatures.peer.PeerSignature` counter vector
  aggregating its TCG members' signatures (dynamic π_p),
* its view of the TCG membership, the ``OutstandSigList`` of members that
  have not yet turned in a signature, and the piggyback delta since the
  last broadcast request.

The piggybacked *signature update information* is the insertion/eviction
lists of Section IV-D.4: bit positions whose value flipped since the last
broadcast; a position flipping twice annihilates (we realise this by
diffing the current signature against the last broadcast one).

Network I/O stays in the client; this class only decides *what* must be
sent, which keeps the protocol unit-testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.signatures.bloom import BloomFilter, SignatureScheme
from repro.signatures.counting import CountingBloomFilter
from repro.signatures.peer import PeerSignature
from repro.signatures.vlfl import (
    find_optimal_r,
    should_compress,
    vlfl_decode,
    vlfl_encode,
)

__all__ = ["MembershipActions", "SignatureAgent"]


@dataclass
class MembershipActions:
    """What the client must do after a TCG membership change."""

    request_from: Set[int] = field(default_factory=set)  # unicast SigRequest
    recollect: bool = False  # reset vector + broadcast SigRequest to members


class SignatureAgent:
    """All GroCoCa signature state of one client."""

    def __init__(
        self,
        scheme: SignatureScheme,
        counter_bits: int,
        compression_enabled: bool = True,
        recollect_batch: int = 1,
    ):
        if recollect_batch < 1:
            raise ValueError("recollect_batch must be >= 1")
        self.scheme = scheme
        self.own = CountingBloomFilter(scheme, counter_bits)
        self.peer = PeerSignature(scheme)
        self.members: Set[int] = set()
        self.outstanding: Set[int] = set()  # OutstandSigList
        self.compression_enabled = compression_enabled
        self.recollect_batch = int(recollect_batch)
        self._departures = 0
        self._last_broadcast = np.zeros(scheme.size_bits, dtype=bool)
        # Algorithm 4's run cap per cache fill ε, None for "send raw": a
        # pure function of ε, σ and k, so worked out once per ε.
        self._run_caps: Dict[int, Optional[int]] = {}
        self.signatures_sent_compressed = 0
        self.signatures_sent_raw = 0
        self.signature_bytes_sent = 0

    # -- own cache signature ----------------------------------------------------

    def record_insert(self, item: int) -> None:
        self.own.add(item)

    def record_evict(self, item: int, cache_items: Iterable[int]) -> None:
        if not self.own.remove(item):
            self.own.rebuild(cache_items)

    def take_update(self) -> Tuple[List[int], List[int]]:
        """(insertions, evictions) bit positions since the last broadcast.

        Marks the current signature as broadcast.  Positions that flipped
        back annihilate automatically because we diff against the snapshot.
        """
        current = self.own.signature().bits
        flipped = np.flatnonzero(current != self._last_broadcast)
        inserted = current[flipped]
        self._last_broadcast = current
        return flipped[inserted].tolist(), flipped[~inserted].tolist()

    def has_update(self) -> bool:
        return bool(np.any(self.own.signature().bits != self._last_broadcast))

    # -- serving signature requests ------------------------------------------------

    def full_signature_payload(self, cached_items: int) -> Tuple[np.ndarray, int, bool]:
        """(bits, wire size in bytes, compressed?) for a SigReply.

        The compression decision is the local rule of Section IV-D.2 based
        on the cache size ε, σ and k; the payload really is VLFL-encoded
        and decoded end-to-end so the size is genuine.
        """
        signature = self.own.signature()
        raw_bytes = signature.size_bytes
        run_cap = self._run_cap(cached_items) if self.compression_enabled else None
        if run_cap is not None:
            compressed = vlfl_encode(signature.bits, run_cap)
            if compressed.size_bytes < raw_bytes:
                self.signatures_sent_compressed += 1
                self.signature_bytes_sent += compressed.size_bytes
                return vlfl_decode(compressed), compressed.size_bytes, True
        self.signatures_sent_raw += 1
        self.signature_bytes_sent += raw_bytes
        return signature.bits.copy(), raw_bytes, False

    def _run_cap(self, cached_items: int) -> Optional[int]:
        if cached_items not in self._run_caps:
            size_bits, k = self.scheme.size_bits, self.scheme.k
            self._run_caps[cached_items] = (
                find_optimal_r(cached_items, size_bits, k)
                if should_compress(cached_items, size_bits, k)
                else None
            )
        return self._run_caps[cached_items]

    # -- peer vector updates -----------------------------------------------------------

    def merge_member_signature(self, member: int, bits: np.ndarray) -> None:
        """Fold a received SigReply into the peer vector."""
        signature = BloomFilter(self.scheme)
        signature.bits = np.asarray(bits, dtype=bool)
        self.peer.merge_signature(signature)
        self.outstanding.discard(member)

    def apply_peer_update(
        self, insertions: Sequence[int], evictions: Sequence[int]
    ) -> None:
        self.peer.apply_update(insertions, evictions)

    # -- membership handling (Sections IV-D.4/5) -------------------------------------------

    def apply_membership_changes(
        self, added: Set[int], removed: Set[int]
    ) -> MembershipActions:
        """Update the TCG view; say what signature traffic must follow."""
        actions = MembershipActions()
        self.members |= added
        self.members -= removed
        self.outstanding -= removed
        if removed:
            self._departures += len(removed)
            if self._departures >= self.recollect_batch:
                self._departures = 0
                actions.recollect = True
        if actions.recollect:
            # Reset and recollect from every remaining member (broadcast
            # SigRequest with the membership list); newly added members are
            # covered by the same recollection.
            self.peer.reset()
            self.outstanding = set(self.members)
            actions.request_from = set()
        else:
            actions.request_from = set(added)
            self.outstanding |= added
        return actions

    def reconnect_sync(self, authoritative_members: Set[int]) -> MembershipActions:
        """Section IV-D.5: resync after the client itself reconnects."""
        self.members = set(authoritative_members)
        self._departures = 0
        self.peer.reset()
        self.outstanding = set(self.members)
        return MembershipActions(request_from=set(), recollect=bool(self.members))

    def notice_peer_alive(self, peer: int) -> bool:
        """A message from ``peer`` was heard.

        Returns True when the peer is on the OutstandSigList, i.e. a
        SigRequest should be sent to it now.
        """
        return peer in self.outstanding

    # -- filtering (Section IV-D.3) -----------------------------------------------------------

    def likely_cached_by_members(self, item: int) -> bool:
        """search-signature AND peer-signature test."""
        return self.peer.matches_positions(self.scheme.positions(item))
