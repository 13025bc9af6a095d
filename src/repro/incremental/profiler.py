"""Refutation-driven re-validation of a prior profile after an append.

The repair argument, per metadata class:

**UCCs and FDs are refute-only.**  Appended rows add pairs, never remove
them, so a column set unique after the append was unique before, and an
FD valid after was valid before.  Consequently every *post*-append
minimal UCC/FD is a superset (on its column set / left-hand side) of some
*prior* minimal one: re-validation checks each prior result — sample
refutation over the appended rows plus their collision partners first,
then an exact check against the delta-maintained PLI substrate (the
sample is sound but not complete: a partner row witnesses the first prior
occurrence of a batch value, not necessarily the violating pair) — and
repairs each refuted node by breadth-first promotion through its direct
supersets, pruning supersets of anything already confirmed.  A final
minimization pass restores the antichain.

**INDs are bidirectional but value-monotone.**  Value sets only grow
under appends, so a prior-valid IND ``dep ⊆ ref`` can break only through
*new* dependent values (the old ones were already contained), and a
prior-invalid one can heal only when the referenced side gained values
(its old witness value is still in the dependent side).  Re-validation
therefore probes only the batch's new dependent values against the full
post-append referenced sets, and re-checks an invalid pair in full only
when its referenced column actually gained non-NULL values.

Checkpoint integration mirrors the profilers: the ``"incremental"`` stage
snapshots after each phase (append, UCCs, FDs, INDs), so a killed
maintenance run resumes with bit-identical results — the append itself is
recomputed (the substrate is in-memory), the finished re-validation
phases are not.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Iterable, Sequence
from contextlib import nullcontext
from typing import Any

from .. import checkpointing as _ckpt
from .. import trace as _trace
from ..algorithms.values import canonical_value
from ..core.profiler import ALGORITHMS, _dispatch
from ..metadata.results import ProfilingResult
from ..pli.store import PliStore
from ..relation.columnset import bit, full_mask, is_proper_subset, is_subset
from ..relation.relation import Relation
from ..sampling.refutation import RefutationIndex

__all__ = ["IncrementalProfiler"]


class IncrementalProfiler:
    """Maintain a profile across append batches instead of recomputing it.

    Parameters mirror :func:`repro.core.profiler.profile`; the profiler
    owns (or shares) a :class:`~repro.pli.store.PliStore` so the base
    profile's PLI substrate stays warm for the delta maintenance that
    :meth:`maintain` performs.
    """

    def __init__(
        self,
        algorithm: str = "auto",
        seed: int = 0,
        verify_completeness: bool = True,
        store: PliStore | None = None,
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}"
            )
        self.algorithm = algorithm
        self.seed = seed
        self.verify_completeness = verify_completeness
        self.store = store if store is not None else PliStore()

    # -- base profile --------------------------------------------------------

    def profile_base(self, relation: Relation) -> ProfilingResult:
        """Full from-scratch profile through the shared store.

        Same dispatch as :func:`repro.core.profiler.profile`, but the
        profilers are handed this instance's store so the single-column
        PLIs, memoized composites, and vectors built here are exactly
        what a later :meth:`maintain` delta-merges into.
        """
        return _dispatch(
            relation,
            self.algorithm,
            seed=self.seed,
            verify_completeness=self.verify_completeness,
            store=self.store,
        )

    # -- incremental maintenance ---------------------------------------------

    def maintain(
        self,
        relation: Relation,
        rows: Iterable[Sequence[Any]],
        prior: ProfilingResult,
    ) -> ProfilingResult:
        """Append ``rows`` to ``relation`` and repair ``prior`` exactly.

        ``prior`` must be the complete profile of ``relation`` *as it is
        now* (before this batch).  The returned result is bit-identical
        to profiling the grown relation from scratch.
        """
        names = relation.column_names
        if tuple(prior.column_names) != names:
            raise ValueError(
                f"prior profile describes columns {prior.column_names}, "
                f"relation has {names}"
            )
        started = time.perf_counter()
        counters: dict[str, int] = dict(prior.counters)

        ckpt = _ckpt.ACTIVE
        done = 0
        ucc_masks: list[int] = []
        fd_pairs: list[tuple[int, int]] = []
        ind_pairs: list[tuple[int, int]] = []

        def progress() -> dict:
            return {
                "done": done,
                "ucc_masks": list(ucc_masks),
                "fd_pairs": [list(pair) for pair in fd_pairs],
                "ind_pairs": [list(pair) for pair in ind_pairs],
                "counters": dict(counters),
            }

        saved = ckpt.resume("incremental") if ckpt is not None else None
        if saved is not None:
            done = saved["done"]
            ucc_masks = list(saved["ucc_masks"])
            fd_pairs = [tuple(pair) for pair in saved["fd_pairs"]]
            ind_pairs = [tuple(pair) for pair in saved["ind_pairs"]]
            counters = dict(saved["counters"])

        with _trace.span(
            "incremental.maintain",
            relation=relation.name,
            rows_before=relation.n_rows,
        ) as span:
            # The append always runs — the substrate is in-memory state a
            # resumed process must rebuild — but is deterministic, so the
            # restored phases still describe the same grown relation.
            index, delta = self.store.append_rows(relation, rows)
            if delta is None:
                # Empty batch: nothing changed, fingerprint included.
                return prior
            span.set(rows_appended=delta.new_n_rows - delta.old_n_rows)
            tracer = _trace.ACTIVE
            if tracer is not None:
                tracer.count(
                    "incremental.partner_rows", len(delta.partner_rows)
                )
                tracer.count(
                    "incremental.composites_kept", delta.kept_composites
                )
                tracer.count(
                    "incremental.composites_deferred",
                    delta.deferred_composites,
                )
            counters["appended_rows"] = counters.get("appended_rows", 0) + (
                delta.new_n_rows - delta.old_n_rows
            )
            counters["composites_kept"] = (
                counters.get("composites_kept", 0) + delta.kept_composites
            )
            counters["composites_deferred"] = (
                counters.get("composites_deferred", 0)
                + delta.deferred_composites
            )

            with (
                ckpt.context("incremental", progress)
                if ckpt is not None
                else nullcontext()
            ):
                if done < 1:
                    done = 1
                    if ckpt is not None:
                        ckpt.boundary("incremental", progress())

                # Sample refutation over only the appended rows plus their
                # collision partners: sound (every focus row is a relation
                # row), and every *append-caused* violation involves at
                # least one batch row, so the focus set is where new
                # witnesses live.  Exactness still comes from the exact
                # re-checks below.
                focus = sorted(
                    set(delta.batch_rows).union(delta.partner_rows)
                )
                refutation = RefutationIndex(
                    focus,
                    [index.vector(c) for c in range(index.n_columns)],
                )

                if done < 2:
                    ucc_masks = self._revalidate_uccs(
                        index, refutation, prior, names, counters
                    )
                    done = 2
                    if ckpt is not None:
                        ckpt.boundary("incremental", progress())

                if done < 3:
                    fd_pairs = self._revalidate_fds(
                        index, refutation, prior, names, counters
                    )
                    done = 3
                    if ckpt is not None:
                        ckpt.boundary("incremental", progress())

                if done < 4:
                    ind_pairs = self._revalidate_inds(
                        index, delta, prior, names, counters
                    )
                    done = 4
                    if ckpt is not None:
                        ckpt.boundary("incremental", progress())

        phase_seconds = dict(prior.phase_seconds)
        phase_seconds["incremental"] = phase_seconds.get(
            "incremental", 0.0
        ) + (time.perf_counter() - started)
        return ProfilingResult.from_masks(
            relation_name=relation.name,
            column_names=names,
            ind_pairs=ind_pairs,
            ucc_masks=ucc_masks,
            fd_pairs=fd_pairs,
            phase_seconds=phase_seconds,
            counters=counters,
        )

    # -- per-class repair -----------------------------------------------------

    def _revalidate_uccs(
        self,
        index,
        refutation: RefutationIndex,
        prior: ProfilingResult,
        names: Sequence[str],
        counters: dict[str, int],
    ) -> list[int]:
        """Exact minimal UCCs of the grown relation from the prior ones.

        Appends only refute, so every post-append minimal UCC contains a
        prior minimal one; refuted minima are promoted breadth-first
        through their direct supersets.
        """
        n = index.n_columns
        universe = full_mask(n)
        with _trace.span(
            "incremental.revalidate_uccs", candidates=len(prior.uccs)
        ) as span:
            confirmed: list[int] = []
            refuted: list[int] = []
            for ucc in prior.uccs:
                mask = ucc.mask(names)
                if refutation.refutes_ucc(mask):
                    refuted.append(mask)
                elif index.is_unique(mask):
                    confirmed.append(mask)
                else:
                    refuted.append(mask)
            span.set(refuted=len(refuted))
            if refuted:
                _trace.count("incremental.refuted_uccs", len(refuted))
                counters["refuted_uccs"] = (
                    counters.get("refuted_uccs", 0) + len(refuted)
                )
                confirmed = self._promote_uccs(
                    index, confirmed, refuted, universe, n
                )
        minimal = [
            mask
            for mask in set(confirmed)
            if not any(
                is_proper_subset(other, mask) for other in set(confirmed)
            )
        ]
        return sorted(minimal)

    @staticmethod
    def _promote_uccs(
        index,
        confirmed: list[int],
        refuted: list[int],
        universe: int,
        n: int,
    ) -> list[int]:
        """BFS upward from the refuted minima to their minimal unique
        supersets; supersets of anything confirmed are pruned (along any
        chain through such a node the target would be non-minimal)."""
        minimal = list(confirmed)
        queue: deque[int] = deque()
        visited: set[int] = set()
        for mask in refuted:
            for column in range(n):
                if not mask >> column & 1:
                    superset = mask | bit(column)
                    if superset not in visited:
                        visited.add(superset)
                        queue.append(superset)
        while queue:
            mask = queue.popleft()
            if any(
                is_subset(known, mask) for known in minimal if known != mask
            ):
                continue
            if index.is_unique(mask):
                minimal.append(mask)
                continue
            if mask == universe:
                continue
            for column in range(n):
                if not mask >> column & 1:
                    superset = mask | bit(column)
                    if superset not in visited:
                        visited.add(superset)
                        queue.append(superset)
        return minimal

    def _revalidate_fds(
        self,
        index,
        refutation: RefutationIndex,
        prior: ProfilingResult,
        names: Sequence[str],
        counters: dict[str, int],
    ) -> list[tuple[int, int]]:
        """Exact minimal FDs of the grown relation from the prior ones.

        Same promotion shape as UCCs, per right-hand side: every
        post-append minimal left-hand side contains a prior minimal one
        for the same rhs.
        """
        position = {name: i for i, name in enumerate(names)}
        n = index.n_columns
        with _trace.span(
            "incremental.revalidate_fds", candidates=len(prior.fds)
        ) as span:
            confirmed: dict[int, list[int]] = {}
            refuted: dict[int, list[int]] = {}
            total_refuted = 0
            for fd in prior.fds:
                lhs = fd.lhs_mask(names)
                rhs = position[fd.rhs]
                if refutation.refutes_fd(lhs, rhs):
                    refuted.setdefault(rhs, []).append(lhs)
                    total_refuted += 1
                elif index.check_fd(lhs, rhs):
                    confirmed.setdefault(rhs, []).append(lhs)
                else:
                    refuted.setdefault(rhs, []).append(lhs)
                    total_refuted += 1
            span.set(refuted=total_refuted)
            if total_refuted:
                _trace.count("incremental.refuted_fds", total_refuted)
                counters["refuted_fds"] = (
                    counters.get("refuted_fds", 0) + total_refuted
                )
            for rhs, lhs_list in refuted.items():
                confirmed[rhs] = self._promote_fds(
                    index, confirmed.get(rhs, []), lhs_list, rhs, n
                )
        pairs: list[tuple[int, int]] = []
        for rhs, lhs_list in confirmed.items():
            unique_lhs = set(lhs_list)
            for lhs in unique_lhs:
                if not any(
                    is_proper_subset(other, lhs) for other in unique_lhs
                ):
                    pairs.append((lhs, rhs))
        return sorted(pairs)

    @staticmethod
    def _promote_fds(
        index,
        confirmed: list[int],
        refuted: list[int],
        rhs: int,
        n: int,
    ) -> list[int]:
        """BFS upward from refuted left-hand sides to the minimal valid
        ones for ``rhs`` (the rhs column itself is never added — that
        would only manufacture trivial FDs)."""
        minimal = list(confirmed)
        queue: deque[int] = deque()
        visited: set[int] = set()
        blocked = bit(rhs)
        for lhs in refuted:
            for column in range(n):
                if not (lhs | blocked) >> column & 1:
                    superset = lhs | bit(column)
                    if superset not in visited:
                        visited.add(superset)
                        queue.append(superset)
        while queue:
            lhs = queue.popleft()
            if any(
                is_subset(known, lhs) for known in minimal if known != lhs
            ):
                continue
            if index.check_fd(lhs, rhs):
                minimal.append(lhs)
                continue
            for column in range(n):
                if not (lhs | blocked) >> column & 1:
                    superset = lhs | bit(column)
                    if superset not in visited:
                        visited.add(superset)
                        queue.append(superset)
        return minimal

    def _revalidate_inds(
        self,
        index,
        delta,
        prior: ProfilingResult,
        names: Sequence[str],
        counters: dict[str, int],
    ) -> list[tuple[int, int]]:
        """Exact unary INDs of the grown relation, seeded by the batch.

        Prior-valid pairs are probed with only the dependent column's
        *new* values; prior-invalid pairs are re-merged in full only when
        the referenced column gained non-NULL values (otherwise their old
        witness still stands).
        """
        position = {name: i for i, name in enumerate(names)}
        n = index.n_columns
        prior_pairs = {
            (position[ind.dependent], position[ind.referenced])
            for ind in prior.inds
        }
        new_non_null = [
            [
                canonical_value(value)
                for value in delta.new_values[column]
                if value is not None
            ]
            for column in range(n)
        ]
        value_sets: dict[int, set[str]] = {}

        def values_of(column: int) -> set[str]:
            members = value_sets.get(column)
            if members is None:
                members = {
                    canonical_value(value)
                    for value in index.distinct_values(column)
                    if value is not None
                }
                value_sets[column] = members
            return members

        rechecks = 0
        with _trace.span(
            "incremental.revalidate_inds", candidates=len(prior_pairs)
        ) as span:
            pairs: list[tuple[int, int]] = []
            for dependent in range(n):
                for referenced in range(n):
                    if dependent == referenced:
                        continue
                    if (dependent, referenced) in prior_pairs:
                        members = values_of(referenced)
                        if all(
                            value in members
                            for value in new_non_null[dependent]
                        ):
                            pairs.append((dependent, referenced))
                    elif new_non_null[referenced]:
                        rechecks += 1
                        if values_of(dependent) <= values_of(referenced):
                            pairs.append((dependent, referenced))
            span.set(rechecks=rechecks)
        if rechecks:
            _trace.count("incremental.ind_rechecks", rechecks)
            counters["ind_rechecks"] = (
                counters.get("ind_rechecks", 0) + rechecks
            )
        return sorted(pairs)
