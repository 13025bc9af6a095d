"""Bounded cache for PLIs of column combinations.

The holistic algorithms (DUCC's random walk, MUDS' sub-lattice walks and
shadowed-FD checks) revisit overlapping column combinations constantly; the
paper shares one PLI store across all tasks ("shared data structures").
This cache keys PLIs by column bitmask.  Single-column PLIs are pinned —
they are the generators of everything else — while composite PLIs are
evicted in least-recently-used order once ``capacity`` is exceeded.
"""

from __future__ import annotations

from collections import OrderedDict

from .. import checkpointing as _ckpt
from .. import trace as _trace
from ..faults import CACHE_PUT, FAULTS
from ..relation.columnset import size
from .pli import PLI

__all__ = ["CAPACITY", "PliCache", "estimated_pli_bytes"]

#: Composite PLIs every relation index keeps resident.
CAPACITY = 4096


def estimated_pli_bytes(pli: PLI) -> int:
    """Estimated encoded size of one cached PLI.

    Sized for the dictionary-encoded substrate: 8 B per clustered row id
    (the dense int64 the kernels materialize) plus per-cluster and
    per-entry overhead.  Deliberately storage-mode independent — the
    clustered rows of a composite PLI are the same whichever storage mode
    produced them, so the resident estimate is identical across modes.
    """
    return 64 + 8 * pli.n_clustered_rows + 16 * len(pli.clusters)


class PliCache:
    """LRU cache of ``mask -> PLI`` with pinned single-column entries.

    ``insertions`` counts entries actually stored (pinned or composite);
    ``evictions`` counts LRU removals.  ``composite_bytes`` is the
    estimated encoded size (:func:`estimated_pli_bytes`) of the resident
    composites.
    """

    def __init__(self, capacity: int = CAPACITY):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._pinned: dict[int, PLI] = {}
        self._entries: OrderedDict[int, PLI] = OrderedDict()
        #: Size estimate of each resident composite, memoized at insert
        #: time so accounting never re-walks a resident PLI's clusters.
        self._sizes: dict[int, int] = {}
        #: Estimated encoded bytes of the resident composite entries.
        self.composite_bytes = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._pinned) + len(self._entries)

    def __contains__(self, mask: int) -> bool:
        return mask in self._pinned or mask in self._entries

    def get(self, mask: int) -> PLI | None:
        """Return the cached PLI for ``mask`` or ``None`` (counts stats)."""
        tracer = _trace.ACTIVE
        pli = self._pinned.get(mask)
        if pli is not None:
            self.hits += 1
            if tracer is not None:
                tracer.count("pli.cache_hits")
            return pli
        pli = self._entries.get(mask)
        if pli is not None:
            self._entries.move_to_end(mask)
            self.hits += 1
            if tracer is not None:
                tracer.count("pli.cache_hits")
            return pli
        self.misses += 1
        if tracer is not None:
            tracer.count("pli.cache_misses")
        return None

    def peek(self, mask: int) -> PLI | None:
        """Like :meth:`get` but without touching LRU order or stats."""
        return self._pinned.get(mask) or self._entries.get(mask)

    def put(self, mask: int, pli: PLI) -> None:
        """Insert a PLI; single-column masks are pinned permanently."""
        if FAULTS.armed:
            FAULTS.trip(CACHE_PUT)
        if size(mask) <= 1:
            self._pinned[mask] = pli
            self.insertions += 1
            return
        if mask in self._entries:
            self.composite_bytes -= self._sizes[mask]
        else:
            self.insertions += 1
        self._entries[mask] = pli
        self._entries.move_to_end(mask)
        self._sizes[mask] = estimated_pli_bytes(pli)
        self.composite_bytes += self._sizes[mask]
        while len(self._entries) > self.capacity:
            evicted_mask, _ = self._entries.popitem(last=False)
            self.composite_bytes -= self._sizes.pop(evicted_mask)
            self.evictions += 1
            _trace.count("pli.cache_evictions")

    def clear_composites(self) -> None:
        """Drop every non-pinned entry (e.g. between profiling phases)."""
        self._entries.clear()
        self._sizes.clear()
        self.composite_bytes = 0

    # -- delta maintenance ---------------------------------------------------

    def composite_masks(self) -> tuple[int, ...]:
        """Masks of the resident composite entries (LRU order)."""
        return tuple(self._entries)

    def discard(self, mask: int) -> None:
        """Remove one entry if present (append invalidation; no stats)."""
        if mask in self._pinned:
            del self._pinned[mask]
            return
        if self._entries.pop(mask, None) is not None:
            self.composite_bytes -= self._sizes.pop(mask)

    def replace(self, mask: int, pli: PLI) -> None:
        """Swap an entry for its delta-merged successor, re-accounting bytes.

        Unlike :meth:`put` this neither counts an insertion, moves the
        entry in LRU order, nor trips the fault point — a delta merge is
        maintenance of a resident entry, not new traffic.  The byte
        estimate *is* updated to the post-merge size.  Replacing a mask
        that is no longer resident degrades to :meth:`put`.
        """
        if size(mask) <= 1:
            self._pinned[mask] = pli
            return
        if mask not in self._entries:
            self.put(mask, pli)
            return
        self.composite_bytes -= self._sizes[mask]
        self._entries[mask] = pli  # position in the order is preserved
        self._sizes[mask] = estimated_pli_bytes(pli)
        self.composite_bytes += self._sizes[mask]

    # -- checkpoint round-trip ---------------------------------------------

    def state(self) -> dict:
        """Composite entries (in LRU order) plus counters, JSON-ready.

        Pinned single-column PLIs are not serialized — the index rebuilds
        them identically at construction.  LRU order matters: a resumed
        run must evict the same victims the undisturbed run would have.
        """
        return {
            "composites": [
                [mask, _ckpt.pli_state(pli)]
                for mask, pli in self._entries.items()
            ],
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
        }

    def restore(self, state: dict) -> None:
        """Overwrite composite entries and counters with a snapshot."""
        self._entries.clear()
        self._sizes.clear()
        self.composite_bytes = 0
        for mask, pli in state["composites"]:
            restored = _ckpt.pli_from_state(pli)
            self._entries[mask] = restored
            self._sizes[mask] = estimated_pli_bytes(restored)
            self.composite_bytes += self._sizes[mask]
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.insertions = state["insertions"]
        self.evictions = state["evictions"]

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int | float]:
        """Counter snapshot for harness reporting."""
        return {
            "cache_entries": len(self),
            "cache_bytes": self.composite_bytes,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_insertions": self.insertions,
            "cache_evictions": self.evictions,
            "cache_hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"PliCache({len(self)} entries, capacity={self.capacity}, "
            f"hit_rate={self.hit_rate:.2f})"
        )
