"""The two-stage validation seam consulted by the PLI substrate.

A :class:`ValidationPlanner` sits next to the shared
:class:`~repro.pli.index.RelationIndex` (every index owns one) and
answers one question: *can this candidate be refuted without exact PLI
work?*  Stage 1 lazily
harvests the relation's violation sample on the first FD or UCC query
(SPIDER's value probes read value lists, not rows); stage 2 — the exact
path — is whatever the caller does when the answer is "no".

Cooperation with the execution guards: harvesting is skipped when the
active :class:`~repro.guard.Budget` has less deadline left than
:data:`~repro.sampling.harvester.MIN_HARVEST_SECONDS` (the engine then
refutes nothing, which is always safe), so sampling can never convert an
``ok`` run into a ``timeout``.  The decision is made once per planner — a
deadline-pressed run stays on the exact path throughout.

Trace surface (all behind the usual ``ACTIVE is None`` guard): a
``sampling.harvest`` span around stage 1, a ``sampling.bypass`` event
when the deadline guard fires, and ``sampling.fd_refuted`` /
``sampling.ucc_refuted`` / ``sampling.ind_refuted`` /
``sampling.exact_avoided`` counters per refutation.
"""

from __future__ import annotations

import random
import time
import weakref
from collections.abc import Sequence
from typing import TYPE_CHECKING

from .. import guard as _guard
from .. import trace as _trace
from .harvester import (
    IND_PROBE_VALUES,
    MAX_ROWS,
    MIN_HARVEST_SECONDS,
    SEED,
    focused_sample,
)
from .refutation import RefutationIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pli.index import RelationIndex

__all__ = ["ValidationPlanner", "probe_ind_refs"]


def probe_ind_refs(
    value_lists: Sequence[Sequence[str]],
    probe_values: int,
    seed: int,
) -> tuple[list[int], int, int]:
    """SPIDER's seeded value-probe IND prefilter, as a pure function.

    For each dependent attribute, up to ``probe_values`` seeded-sampled
    values are probed against the *full* value set of every other
    attribute; a missing value is an exact witness against the IND, so
    the returned per-attribute reference masks start the merge phase with
    those pairs already cleared.  The attributes may span several
    relations — the probe is pure set membership, so cross-table
    candidates prefilter exactly like same-table ones.

    Returns ``(refs, queries, refuted)``.  Emits the
    ``sampling.ind_prefilter`` span and the ``sampling.ind_refuted`` /
    ``sampling.exact_avoided`` counters; callers with their own
    bookkeeping (:class:`ValidationPlanner`) fold the totals in.
    """
    rng = random.Random(seed)
    n = len(value_lists)
    all_attrs = (1 << n) - 1
    value_sets = [set(values) for values in value_lists]
    refs: list[int] = []
    queries = 0
    refuted = 0
    with _trace.span("sampling.ind_prefilter", columns=n) as span:
        for dependent, values in enumerate(value_lists):
            mask = all_attrs & ~(1 << dependent)
            k = min(probe_values, len(values))
            probes = (
                rng.sample(values, k) if k < len(values) else list(values)
            )
            for referenced in range(n):
                if referenced == dependent:
                    continue
                queries += 1
                members = value_sets[referenced]
                for value in probes:
                    if value not in members:
                        mask &= ~(1 << referenced)
                        refuted += 1
                        break
            refs.append(mask)
        span.set(refuted=refuted)
    tracer = _trace.ACTIVE
    if tracer is not None and refuted:
        tracer.count("sampling.ind_refuted", refuted)
        tracer.count("sampling.exact_avoided", refuted)
    return refs, queries, refuted


class ValidationPlanner:
    """Per-index refutation front end with lazy, guarded harvesting."""

    __slots__ = (
        "_index",
        "bypassed",
        "harvest_rows",
        "harvest_seconds",
        "fd_queries",
        "fd_refuted",
        "ucc_queries",
        "ucc_refuted",
        "ind_queries",
        "ind_refuted",
        "_refutation",
        "_attempted",
    )

    def __init__(self, index: "RelationIndex"):
        # Weak back-reference: the index owns its planner, so a strong
        # reference here would turn every index/planner pair into cyclic
        # garbage that only a collector pass frees.  Encoded-storage runs
        # allocate so few Python objects that those passes are rare, and
        # each uncollected pair pins two single-column PLIs (plus their
        # kernel arrays) — per-pair profiling sweeps leak gigabytes.
        self._index = weakref.ref(index)
        #: True when the deadline guard skipped the harvest for this run.
        self.bypassed = False
        self.harvest_rows = 0
        self.harvest_seconds = 0.0
        self.fd_queries = 0
        self.fd_refuted = 0
        self.ucc_queries = 0
        self.ucc_refuted = 0
        self.ind_queries = 0
        self.ind_refuted = 0
        self._refutation: RefutationIndex | None = None
        self._attempted = False

    @property
    def index(self) -> "RelationIndex":
        """The owning index (weakly held; see ``__init__``)."""
        index = self._index()
        if index is None:
            raise ReferenceError(
                "the RelationIndex owning this ValidationPlanner has been "
                "garbage-collected; keep a reference to the index while "
                "querying its planner"
            )
        return index

    # -- stage 1: harvest --------------------------------------------------

    def refutation(self) -> RefutationIndex | None:
        """The harvested refutation index, built on first use.

        Returns ``None`` (and permanently passes every candidate through
        to the exact path) when the deadline guard fires or the relation
        is too small to sample.  Harvesting happens at most once per
        planner; a harvest aborted by an injected fault is not retried
        and leaves no partial evidence behind.
        """
        refutation = self._refutation
        if refutation is not None:
            return refutation
        if self._attempted:
            return None
        self._attempted = True
        if self._deadline_bypass():
            return None
        index = self.index
        started = time.perf_counter()
        with _trace.span(
            "sampling.harvest",
            relation=index.relation.name,
            rows=index.n_rows,
            max_rows=MAX_ROWS,
        ) as span:
            rows = focused_sample(index)
            refutation = RefutationIndex(
                rows, [index.vector(c) for c in range(index.n_columns)]
            )
            span.set(sample_rows=len(rows))
        self.harvest_seconds = time.perf_counter() - started
        self.harvest_rows = len(rows)
        tracer = _trace.ACTIVE
        if tracer is not None and rows:
            tracer.count("sampling.harvest_rows", len(rows))
        self._refutation = refutation
        return refutation

    def _deadline_bypass(self) -> bool:
        """The deadline rule: True when this planner is bypassed, deciding
        (and emitting the ``sampling.bypass`` event) the first time the
        active budget has less than :data:`MIN_HARVEST_SECONDS` left."""
        if self.bypassed:
            return True
        budget = _guard.ACTIVE
        if budget is None:
            return False
        remaining = budget.remaining_seconds
        if remaining is None or remaining >= MIN_HARVEST_SECONDS:
            return False
        self.bypassed = True
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.event(
                "sampling.bypass", reason="deadline", remaining_seconds=remaining
            )
        return True

    def reset_evidence(self) -> None:
        """Drop the harvested sample (the relation's rows changed).

        Called by the index after an append batch is folded in: the old
        sample's vectors describe the pre-append rows, so the next stage-1
        query re-harvests over the grown relation.  Query counters are
        kept — they account work actually done.  A deadline bypass is also
        cleared; the post-append run re-evaluates its own deadline.
        """
        self._refutation = None
        self._attempted = False
        self.bypassed = False

    # -- stage 1 queries ---------------------------------------------------

    def refutes_fd(self, lhs_mask: int, rhs_index: int) -> bool:
        """Sound sample refutation of ``lhs → rhs``; False means "go
        exact", never "valid"."""
        refutation = self.refutation()
        if refutation is None:
            return False
        self.fd_queries += 1
        if refutation.refutes_fd(lhs_mask, rhs_index):
            self.fd_refuted += 1
            tracer = _trace.ACTIVE
            if tracer is not None:
                tracer.count("sampling.fd_refuted")
                tracer.count("sampling.exact_avoided")
            return True
        return False

    def refuted_rhs(self, lhs_mask: int, rhs_mask: int) -> int:
        """Batched :meth:`refutes_fd` over every rhs bit in ``rhs_mask``
        (one sample scan per lattice node instead of one per rhs); the
        returned bitmask marks sample-refuted right-hand sides."""
        refutation = self.refutation()
        if refutation is None:
            return 0
        self.fd_queries += (rhs_mask & ~lhs_mask).bit_count()
        refuted = refutation.refuted_rhs(lhs_mask, rhs_mask)
        hits = refuted.bit_count()
        if hits:
            self.fd_refuted += hits
            tracer = _trace.ACTIVE
            if tracer is not None:
                tracer.count("sampling.fd_refuted", hits)
                tracer.count("sampling.exact_avoided", hits)
        return refuted

    def refutes_ucc(self, mask: int) -> bool:
        """Sound sample refutation of a UCC candidate; False means "go
        exact", never "unique"."""
        refutation = self.refutation()
        if refutation is None:
            return False
        self.ucc_queries += 1
        if refutation.refutes_ucc(mask):
            self.ucc_refuted += 1
            tracer = _trace.ACTIVE
            if tracer is not None:
                tracer.count("sampling.ucc_refuted")
                tracer.count("sampling.exact_avoided")
            return True
        return False

    def prefilter_ind_refs(
        self, value_lists: Sequence[Sequence[str]]
    ) -> list[int] | None:
        """SPIDER's sampled value-probe prefilter.

        For each dependent attribute, probes up to
        :data:`~repro.sampling.harvester.IND_PROBE_VALUES` seeded-sampled
        values against the *full* value set of every other attribute; a
        missing value is an exact witness against the IND, and the
        returned per-attribute reference masks start the merge phase with
        those pairs already cleared.  Returns ``None`` when the engine is
        bypassed.  The probes read value lists, never the row sample, so
        this does not harvest.
        """
        if self._deadline_bypass():
            return None
        refs, queries, refuted = probe_ind_refs(
            value_lists, IND_PROBE_VALUES, SEED
        )
        self.ind_queries += queries
        self.ind_refuted += refuted
        return refs

    # -- accounting --------------------------------------------------------

    def stats(self) -> dict[str, int | float]:
        """Engine counters for harness reporting (candidates refuted,
        harvest cost, exact checks avoided)."""
        return {
            "sampling_rows": self.harvest_rows,
            "sampling_harvest_seconds": self.harvest_seconds,
            "sampling_bypassed": int(self.bypassed),
            "sampling_fd_queries": self.fd_queries,
            "sampling_fd_refuted": self.fd_refuted,
            "sampling_ucc_queries": self.ucc_queries,
            "sampling_ucc_refuted": self.ucc_refuted,
            "sampling_ind_queries": self.ind_queries,
            "sampling_ind_refuted": self.ind_refuted,
            "sampling_exact_avoided": (
                self.fd_refuted + self.ucc_refuted + self.ind_refuted
            ),
        }

    # -- checkpoint round-trip ---------------------------------------------

    _COUNTER_SLOTS = (
        "bypassed",
        "harvest_rows",
        "fd_queries",
        "fd_refuted",
        "ucc_queries",
        "ucc_refuted",
        "ind_queries",
        "ind_refuted",
    )

    def state(self) -> dict[str, int]:
        """Query/refutation counters for intra-execution checkpoints.

        Only the counters travel: the refutation index itself is rebuilt
        deterministically (same relation, same sample) on first use after
        a resume, so restoring the counters makes a resumed run's totals
        equal pre-crash work plus replay — the undisturbed values.
        """
        return {name: getattr(self, name) for name in self._COUNTER_SLOTS}

    def restore(self, state: dict[str, int]) -> None:
        """Overwrite the query counters with a :meth:`state` snapshot."""
        for name in self._COUNTER_SLOTS:
            setattr(self, name, state[name])

    def __repr__(self) -> str:
        state = (
            "bypassed"
            if self.bypassed
            else f"{self.harvest_rows} sampled rows"
            if self._refutation is not None
            else "not harvested"
        )
        return (
            f"ValidationPlanner({state}, fd_refuted={self.fd_refuted}, "
            f"ucc_refuted={self.ucc_refuted}, ind_refuted={self.ind_refuted})"
        )
