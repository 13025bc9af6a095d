"""Cross-algorithm PLI store: one :class:`RelationIndex` per relation.

The paper's central systems claim (§5, "shared data structures") is that
holistic profiling wins by building the PLI substrate once and letting
every task — IND, UCC, and FD discovery alike — read from it.  The
:class:`PliStore` is that sharing point made explicit: profilers and the
standalone algorithm entry points obtain their :class:`RelationIndex`
through :meth:`PliStore.index_for`, so two algorithms profiling the same
relation hit the same pinned single-column PLIs, the same memoized
composite PLIs, and the same :class:`~repro.pli.cache.PliCache`
statistics.

Stores hold strong references to their relations, so they are meant to be
*scoped*: one per profiler run, per framework execution, or per
interactive session — not process-global.  :meth:`discard` and
:meth:`clear` release what a long-lived store no longer needs.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

from .. import trace as _trace
from ..faults import FAULTS, INCREMENTAL_APPEND
from ..relation.relation import Relation
from .delta import AppendDelta
from .index import RelationIndex

__all__ = ["PliStore"]


class PliStore:
    """Registry of shared :class:`RelationIndex` instances, keyed by
    relation content fingerprint."""

    def __init__(self):
        self._indexes: dict[str, tuple[Relation, RelationIndex]] = {}
        #: Index builds performed (one per distinct relation seen).
        self.builds = 0
        #: index_for calls answered with an existing index.
        self.reuses = 0

    def __len__(self) -> int:
        return len(self._indexes)

    def __contains__(self, relation: Relation) -> bool:
        return relation.fingerprint() in self._indexes

    def index_for(self, relation: Relation) -> RelationIndex:
        """The shared index of ``relation``, built on first request.

        Keyed by the relation's content fingerprint, which covers the
        column names and every cell value (but not the cosmetic
        ``Relation.name``).  Two content-identical relation *objects*
        therefore share one index — a schema sweep containing the same
        table twice builds its PLIs once — while two different tables
        that merely share column names can never alias each other's
        entries the way an equality- or name-based key would allow.
        """
        fingerprint = relation.fingerprint()
        entry = self._indexes.get(fingerprint)
        if entry is not None:
            self.reuses += 1
            _trace.count("pli.store_reuses")
            return entry[1]
        with _trace.span(
            "pli.build_index",
            relation=relation.name,
            columns=relation.n_columns,
            rows=relation.n_rows,
        ):
            index = RelationIndex(relation)
        self._indexes[fingerprint] = (relation, index)
        self.builds += 1
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.gauge("pli.store.relations", len(self._indexes))
        return index

    def append_rows(
        self, relation: Relation, rows: Iterable[Sequence[Any]]
    ) -> tuple[RelationIndex, AppendDelta | None]:
        """Append ``rows`` to ``relation`` and delta-maintain its index.

        The store is the right owner of this operation because it is the
        keyer: appending changes the relation's content fingerprint, so
        the index must be re-registered under the new key or every later
        :meth:`index_for` call would rebuild from scratch and the warm
        substrate would be orphaned under a stale key.

        Returns ``(index, delta)``; ``delta`` is ``None`` for an empty
        batch (nothing changed, fingerprint included).  The fault point
        :data:`~repro.faults.INCREMENTAL_APPEND` trips *before* any
        mutation, so an injected failure leaves the old state intact.
        """
        index = self.index_for(relation)
        old_fingerprint = relation.fingerprint()
        old_n = relation.n_rows
        with _trace.span(
            "incremental.append",
            relation=relation.name,
            rows_before=old_n,
        ) as span:
            if FAULTS.armed:
                FAULTS.trip(INCREMENTAL_APPEND)
            appended = relation.append_rows(rows)
            span.set(rows_appended=appended)
            if appended == 0:
                return index, None
            delta = index.apply_append(old_n)
        del self._indexes[old_fingerprint]
        self._indexes[relation.fingerprint()] = (relation, index)
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.count("incremental.appended_rows", appended)
        return index, delta

    def stats(self) -> dict[str, int]:
        """Substrate-sharing counters: indexed relations, builds, and
        reuse hits.

        Counter lifecycle: ``builds``/``reuses`` accumulate for the
        lifetime of the store, which is scoped to its owner — one
        :class:`~repro.harness.framework.Framework` keeps one store
        across all of its executions, and each parallel sweep worker
        builds a fresh framework (hence a fresh store) per point, so
        worker-reported stats are per-point by construction.  Callers
        that reuse one store across phases and want per-phase numbers
        must bracket with :meth:`reset_counters` explicitly; nothing
        resets these implicitly."""
        return {
            "relations": len(self),
            "builds": self.builds,
            "reuses": self.reuses,
        }

    def reset_counters(self) -> dict[str, int]:
        """Zero ``builds``/``reuses`` and return the pre-reset stats.

        Only the traffic counters reset — the warm indexes stay, which
        is the point: a caller measuring "how much did phase two reuse?"
        wants fresh counters over a warm store.  This is the explicit
        lifecycle boundary; see :meth:`stats`."""
        before = self.stats()
        self.builds = 0
        self.reuses = 0
        return before

    def __reduce__(self):
        """Refuse to cross process boundaries.

        A store's value is its *warm* indexes, which are meaningless to
        ship: pickling would haul every pinned PLI and memoized composite
        along.  The parallel execution layer instead rebuilds profilers —
        and therefore fresh, process-local stores — inside each worker
        (:class:`repro.harness.parallel.FrameworkSpec`)."""
        raise TypeError(
            "PliStore is process-local and cannot be pickled; workers must "
            "build their own (see repro.harness.parallel.FrameworkSpec)"
        )

    def discard(self, relation: Relation) -> None:
        """Drop the index of ``relation``'s content (no-op when absent)."""
        self._indexes.pop(relation.fingerprint(), None)

    def clear(self) -> None:
        """Drop every index (e.g. between benchmark sweeps)."""
        self._indexes.clear()

    def __repr__(self) -> str:
        return (
            f"PliStore({len(self)} relations, builds={self.builds}, "
            f"reuses={self.reuses})"
        )
