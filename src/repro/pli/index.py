"""Shared per-relation index: column PLIs, value vectors, PLI-by-mask.

Building this index is the "one shared I/O + PLI construction" step of the
holistic algorithms (§3, §5): the input is read once, every column is
grouped by value (through its dictionary codes), and from that single
pass we obtain

* the stripped single-column PLIs (pinned in the cache),
* dense value vectors (the probe side of FD refinement checks),
* duplicate-free value lists for SPIDER (§3: "at construction time, PLIs
  map values to positions so that Spider can retrieve duplicate-free value
  lists").

All higher-level algorithms request composite PLIs through
:meth:`RelationIndex.pli`; requests are memoized in a :class:`PliCache` and
intersection/check counters are kept for the cost accounting that the
evaluation section reports.  Single-column requests go through the cache
too (they are always hits — the generators are pinned at construction), so
the cache hit-rate reflects the full lookup traffic of an algorithm run.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from ..guard import checkpoint
from ..relation.columnset import bit, iter_bits, lowest_bit
from ..relation.encoded import EncodedColumn
from ..relation.relation import Relation
from ..sampling import ValidationPlanner
from .cache import PliCache
from .delta import AppendDelta, ColumnDelta, merge_column, merge_composite
from .pli import PLI

__all__ = ["RelationIndex"]


class RelationIndex:
    """Profiling-oriented view of one relation.

    Parameters
    ----------
    relation:
        The (ideally duplicate-free, see §3) input relation.

    The check methods consult the index's
    :class:`~repro.sampling.ValidationPlanner` (its row sample) before
    paying for PLI intersections — refutation only, so results are exact.
    """

    def __init__(self, relation: Relation):
        self.relation = relation
        self.n_rows = relation.n_rows
        self.n_columns = relation.n_columns
        self.cache = PliCache()
        # Dense vectors as flat lists (memoryviews for mmap columns), so
        # refinement probes never pay a per-call conversion.
        self._vectors: list[Sequence[int]] = []
        self._distinct_values: list[list[Any]] = []
        # Counters used by the harness for shared-cost accounting.
        self.intersections = 0
        self.fd_checks = 0
        self.uniqueness_checks = 0
        #: Stage-1 refutation seam.
        self.planner = ValidationPlanner(self)
        #: Per-column occurrence state for delta-PLI maintenance; seeded
        #: lazily on the first append (one pass over the pre-append rows).
        self._deltas: list[ColumnDelta | None] | None = None
        #: Composites perturbed by the latest append, awaiting a lazy
        #: delta-merge on their next request: mask -> (pre-append PLI,
        #: jointly perturbed batch rows).  Entries lapse at the next
        #: append — their old clusters would be two batches stale.
        self._pending_merges: dict[int, tuple[PLI, tuple[int, ...]]] = {}
        self._pending_colliders: list[dict[int, tuple[int, ...]]] = []

        # Columns of in-memory relations (generators, tests) are encoded
        # on this first request; CSV-read columns are encoded already.
        # Codes are first-seen ordered, so the code array is the dense
        # value vector, the dictionary is the duplicate-free value list,
        # and code-grouped clusters are already canonical — one integer
        # pass per column, no per-value hashing.
        for column_index in range(self.n_columns):
            encoding = relation.encoding(column_index)
            self.cache.put(
                bit(column_index),
                PLI._from_canonical(_column_clusters(encoding), self.n_rows),
            )
            self._vectors.append(encoding.python_vector())
            self._distinct_values.append(list(encoding.dictionary))

    # -- single-column views -------------------------------------------------

    def vector(self, column_index: int) -> Sequence[int]:
        """Dense value vector of one column (for refinement probes): a
        list, or a memoryview over an mmap column's codes."""
        return self._vectors[column_index]

    def distinct_values(self, column_index: int) -> list[Any]:
        """Duplicate-free values of one column, in first-seen order.

        ``None`` (NULL) is included; SPIDER filters it out itself because
        NULLs never violate an inclusion dependency.  The list is a view of
        the pinned single-column PLI's grouping pass, so retrieving it is a
        counted access to the shared cache (§3: "PLIs map values to
        positions so that Spider can retrieve duplicate-free value lists").
        """
        self.cache.get(bit(column_index))
        return self._distinct_values[column_index]

    def column_pli(self, column_index: int) -> PLI:
        """Pinned single-column PLI (a counted cache access)."""
        pli = self.cache.get(bit(column_index))
        assert pli is not None  # pinned at construction
        return pli

    # -- composite PLIs --------------------------------------------------------

    def pli(self, mask: int) -> PLI:
        """PLI of an arbitrary non-empty column combination (memoized).

        Composite PLIs are derived by chained intersection, peeling the
        lowest column off the mask; every intermediate result lands in the
        cache, which suits the subset-descending access patterns of DUCC
        and MUDS.
        """
        if mask == 0:
            raise ValueError("the empty column combination has no PLI")
        # Cooperative guard point: every index-driven algorithm (DUCC, the
        # MUDS phases, ...) funnels through here, so deadlines fire
        # even in loops that never call checkpoint() themselves.
        checkpoint()
        cached = self.cache.get(mask)
        if cached is not None:
            return cached
        pending = self._pending_merges.pop(mask, None)
        if pending is not None:
            old_pli, joint_rows = pending
            merged = merge_composite(
                old_pli,
                list(iter_bits(mask)),
                self._vectors,
                joint_rows,
                self._pending_colliders,
                self.n_rows,
            )
            if merged is not None:
                self.cache.put(mask, merged)
                return merged
            # The old-singleton scan would have approached a full pass:
            # fall through to the chained-intersection rebuild.
        low = lowest_bit(mask)
        rest = mask & ~bit(low)
        pli = self.pli(rest).intersect(self.column_pli(low))
        self.intersections += 1
        self.cache.put(mask, pli)
        return pli

    # -- checks ---------------------------------------------------------------

    def distinct_count(self, mask: int) -> int:
        """Cardinality ``|X|_r`` of the projection on ``mask``."""
        if mask == 0:
            return min(self.n_rows, 1)
        return self.pli(mask).distinct_count

    def is_unique(self, mask: int) -> bool:
        """UCC check: does the projection on ``mask`` contain duplicates?"""
        self.uniqueness_checks += 1
        checkpoint()
        if mask == 0:
            return self.n_rows <= 1
        # Stage 1: a sampled duplicate refutes the UCC without touching
        # the PLI path.  Only consulted when the exact PLI is not already
        # memoized (a cached exact answer is cheaper than a sample scan).
        if self.cache.peek(mask) is None and self.planner.refutes_ucc(mask):
            return False
        return self.pli(mask).is_unique

    def check_fd(self, lhs_mask: int, rhs_index: int) -> bool:
        """Validity check for the FD ``lhs → rhs`` via Lemma 1.

        An empty left-hand side holds only for constant columns.
        """
        self.fd_checks += 1
        checkpoint()
        rhs_vector = self._vectors[rhs_index]
        if lhs_mask == 0:
            if self.planner.refutes_fd(0, rhs_index):
                return False
            return len(set(rhs_vector)) <= 1
        if lhs_mask >> rhs_index & 1:
            return True  # trivial FD
        # Stage 1: two sampled rows agreeing on lhs but not rhs refute the
        # FD before any intersection is paid for (see is_unique for the
        # cache gating rationale).
        if self.cache.peek(lhs_mask) is None and self.planner.refutes_fd(
            lhs_mask, rhs_index
        ):
            return False
        return self.pli(lhs_mask).refines(rhs_vector)

    def valid_rhs(self, lhs_mask: int, candidates_mask: int) -> int:
        """Return the sub-mask of ``candidates_mask`` determined by ``lhs``.

        Batch form of :meth:`check_fd`; a single PLI is reused across all
        candidate right-hand sides (this is what makes grouped checks in
        MUDS' minimization cheap).  The PLI is built lazily — when the
        sample refutes every candidate, no intersection happens at all.
        """
        valid = 0
        checkpoint()
        planner = self.planner
        if lhs_mask == 0:
            for rhs in iter_bits(candidates_mask):
                self.fd_checks += 1
                if planner.refutes_fd(0, rhs):
                    continue
                if len(set(self._vectors[rhs])) <= 1:
                    valid |= bit(rhs)
            return valid
        consult = self.cache.peek(lhs_mask) is None
        pli: PLI | None = None
        for rhs in iter_bits(candidates_mask):
            self.fd_checks += 1
            if lhs_mask >> rhs & 1:
                valid |= bit(rhs)
                continue
            if consult and planner.refutes_fd(lhs_mask, rhs):
                continue
            if pli is None:
                pli = self.pli(lhs_mask)
            if pli.refines(self._vectors[rhs]):
                valid |= bit(rhs)
        return valid

    # -- delta maintenance -----------------------------------------------------

    def apply_append(self, old_n_rows: int) -> AppendDelta:
        """Fold an already-appended row batch into the PLI substrate.

        The relation must have been grown first (``Relation.append_rows``);
        this maintains everything derived from it without rebuilding from
        row 0: single-column PLIs are delta-merged (work proportional to
        the batch), dense vectors are extended (or re-viewed over the
        grown code buffers), distinct-value lists grow by the batch's new
        values, and composite cache entries are kept — re-wrapped for the
        new row count — unless the batch can actually have created an
        agreeing pair on their column set, in which case they are
        deferred for a lazy delta-merge from their old clusters on the
        next request (falling back to exact recomputation only when the
        merge's old-singleton scan would approach a full pass).  The
        sampling planner's harvested evidence is dropped so later
        refutation samples see the appended rows.

        Returns the :class:`~repro.pli.delta.AppendDelta` describing the
        perturbation (collision partners, per-column perturbed rows, new
        values) that incremental re-validation consumes.
        """
        relation = self.relation
        new_n_rows = relation.n_rows
        batch_length = new_n_rows - old_n_rows
        delta = AppendDelta(old_n_rows, new_n_rows)
        if batch_length <= 0:
            return delta
        if self._deltas is None:
            self._deltas = [None] * self.n_columns
        # Pending merges from the previous batch lapse: their snapshots
        # no longer describe the pre-append state of this batch.
        self._pending_merges.clear()
        partners: set[int] = set()
        colliders: list[dict[int, tuple[int, ...]]] = []
        for column_index in range(self.n_columns):
            encoding = relation.encoding(column_index)
            state = self._deltas[column_index]
            known_distinct = len(self._distinct_values[column_index])
            if state is None:
                state = ColumnDelta.from_codes(
                    encoding.codes[:old_n_rows], len(encoding.dictionary)
                )
                self._deltas[column_index] = state
            batch_codes = list(encoding.codes[old_n_rows:])
            new_values = list(encoding.dictionary[known_distinct:])
            self._distinct_values[column_index].extend(new_values)
            delta.new_values.append(new_values)

            merged, perturbed, column_partners, column_colliders = (
                merge_column(
                    self.cache.peek(bit(column_index)),
                    state,
                    batch_codes,
                    old_n_rows,
                    new_n_rows,
                )
            )
            self.cache.replace(bit(column_index), merged)
            delta.perturbed.append(perturbed)
            partners.update(column_partners)
            colliders.append(column_colliders)

            vector = self._vectors[column_index]
            if isinstance(vector, list):
                vector.extend(batch_codes)
            else:
                # A view over an mmap column's codes: a fresh view over
                # the grown spill file replaces the stale one.
                self._vectors[column_index] = encoding.python_vector()

        # Composite entries: keep (re-wrapped for the new row count) every
        # mask the batch provably cannot have perturbed — a new agreeing
        # pair on the mask requires some batch row to be pairable on
        # *every* member column.  Perturbed masks leave the cache but are
        # deferred with their old clusters: the next request delta-merges
        # them instead of re-intersecting from row 0, and masks nobody
        # asks about again cost nothing at all.
        for mask in self.cache.composite_masks():
            joint: set[int] | None = None
            untouched = False
            for column_bit in iter_bits(mask):
                pairable = delta.perturbed[column_bit]
                if not pairable:
                    untouched = True
                    break
                joint = (
                    set(pairable) if joint is None else joint & pairable
                )
                if not joint:
                    untouched = True
                    break
            if untouched:
                kept = self.cache.peek(mask)
                self.cache.replace(
                    mask, PLI._from_canonical(kept.clusters, new_n_rows)
                )
                delta.kept_composites += 1
            else:
                snapshot = self.cache.peek(mask)
                self.cache.discard(mask)
                self._pending_merges[mask] = (
                    snapshot, tuple(sorted(joint))
                )
                delta.deferred_composites += 1
        self._pending_colliders = colliders

        self.n_rows = new_n_rows
        delta.partner_rows = tuple(sorted(partners))
        self.planner.reset_evidence()
        return delta

    # -- checkpoint round-trip -------------------------------------------------

    def state(self) -> dict[str, Any]:
        """Mutable substrate state for intra-execution checkpoints.

        Captures what a resumed run (in a fresh process, with a freshly
        rebuilt index) cannot rederive: the composite-PLI cache content
        (which PLIs are amortized decides how many intersections the
        remaining work pays), the cache/check counters, and the sampling
        planner's query counters.  Restoring it makes the resumed run's
        counter totals bit-identical to the undisturbed run's.
        """
        return {
            "intersections": self.intersections,
            "fd_checks": self.fd_checks,
            "uniqueness_checks": self.uniqueness_checks,
            "cache": self.cache.state(),
            "planner": self.planner.state(),
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Overwrite counters, cache, and planner from a snapshot."""
        self.intersections = state["intersections"]
        self.fd_checks = state["fd_checks"]
        self.uniqueness_checks = state["uniqueness_checks"]
        self.cache.restore(state["cache"])
        self.planner.restore(state["planner"])

    # -- accounting -----------------------------------------------------------

    def kernel_counters(self) -> dict[str, int | float]:
        """Substrate counters for harness reporting: check/intersection
        totals of this index plus its cache statistics."""
        counters: dict[str, int | float] = {
            "pli_intersections": self.intersections,
            "fd_checks": self.fd_checks,
            "uniqueness_checks": self.uniqueness_checks,
        }
        counters.update(self.cache.stats())
        counters.update(self.planner.stats())
        return counters

    def __repr__(self) -> str:
        return (
            f"RelationIndex({self.relation.name!r}, {self.n_columns} columns x "
            f"{self.n_rows} rows, {len(self.cache)} cached PLIs)"
        )


def _column_clusters(column: EncodedColumn) -> tuple[tuple[int, ...], ...]:
    """Single-column PLI clusters from an encoded column's code array.

    Grouping is a counting pass over dense ints — a list subscript
    per row instead of a per-value hash and equality.  Because codes
    are first-seen ordered, bucket order is first-occurrence order:
    clusters come out canonical (ascending min row, ascending rows
    within) with no sort.
    """
    buckets: list[list[int] | None] = [None] * column.n_codes
    for row, code in enumerate(column.codes):
        group = buckets[code]
        if group is None:
            buckets[code] = [row]
        else:
            group.append(row)
    return tuple(
        tuple(group)
        for group in buckets
        if group is not None and len(group) >= 2
    )
