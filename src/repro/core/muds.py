"""MUDS: holistic discovery of unary INDs, minimal UCCs, and minimal FDs
(§5 of the paper).

Execution strategy (§5, Fig. 8 phases):

1. **spider** — while the input is read and the shared PLIs are built,
   SPIDER computes all unary INDs from the duplicate-free value lists that
   the PLI construction yields anyway (shared I/O).
2. **ducc** — the DUCC random walk finds all minimal UCCs on the shared
   PLIs.
3. **minimize_fds** — FDs among connected minimal UCCs, minimized
   top-down from the UCCs with connector lookups (§5.1, Algorithm 1).
4. **calculate_r_minus_z** — one DUCC-style sub-lattice walk per
   right-hand side outside every minimal UCC (§5.2).
5. **generate_shadowed_tasks** / **minimize_shadowed_tasks** — recover
   and minimize shadowed FDs (§5.3, Algorithms 2–4).

The published phases are implemented faithfully; because the paper gives
no completeness proof for shadowed recovery, :class:`Muds` additionally
offers ``verify_completeness=True``, which re-runs the (already heavily
seeded) sub-lattice walk for every rhs inside Z and certifies the FD set
exact.  See DESIGN.md ("Deviations") for the discussion; the extensive
cross-validation suite keeps both modes honest against TANE/FUN and brute
force.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from .. import checkpointing as _ckpt
from .. import trace as _trace
from ..algorithms.ducc import DuccResult, ducc
from ..algorithms.spider import spider
from ..guard import BudgetExceeded
from ..lattice.prefix_tree import PrefixTree
from ..lattice.search import LatticeSearch
from ..metadata.results import ProfilingResult
from ..pli.index import RelationIndex
from ..pli.store import PliStore
from ..relation.columnset import bit, full_mask, iter_bits
from ..relation.relation import Relation
from .check_cache import CheckCache
from .minimize import minimize_fds_from_uccs
from .shadowed import generate_shadowed_tasks, minimize_shadowed_tasks
from .sublattice import discover_r_minus_z

__all__ = ["Muds", "MudsReport"]


@dataclass(slots=True)
class MudsReport:
    """Low-level run report (masks + phase metrics), wrapped by
    :meth:`Muds.profile` into a :class:`ProfilingResult`."""

    inds: list[tuple[int, int]] = field(default_factory=list)
    minimal_uccs: list[int] = field(default_factory=list)
    fds: dict[int, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)


class Muds:
    """The holistic profiling algorithm.

    Parameters
    ----------
    seed:
        Seed for the random-walk decisions; runs are fully deterministic
        for a fixed seed.
    verify_completeness:
        Run the exactness-certifying completion walk for right-hand sides
        inside Z after the published phases (see module docstring).  On by
        default: cross-validation showed the published phases alone miss a
        small fraction of minimal FDs on adversarial inputs (~5 % of random
        tables); ``False`` reproduces the paper's configuration exactly.
    use_ucc_pruning:
        Inter-task pruning switch for the R∖Z walks (ablation hook).
    store:
        Shared PLI store the profiler obtains its relation index from; a
        private store is created when omitted.
    """

    def __init__(
        self,
        seed: int = 0,
        verify_completeness: bool = True,
        use_ucc_pruning: bool = True,
        store: PliStore | None = None,
    ):
        self.seed = seed
        self.verify_completeness = verify_completeness
        self.use_ucc_pruning = use_ucc_pruning
        self.store = store if store is not None else PliStore()

    # -- public API -----------------------------------------------------------

    def profile(self, relation: Relation) -> ProfilingResult:
        """Profile a relation end to end, including the shared input pass.

        When the execution budget runs out, the raised
        :class:`~repro.guard.BudgetExceeded` carries ``partial_result`` —
        the :class:`ProfilingResult` of everything discovered so far — for
        the harness to record as a graceful-degradation cell.
        """
        started = time.perf_counter()
        with _trace.span("muds.read_and_pli"):
            index = self.store.index_for(relation)
        read_seconds = time.perf_counter() - started
        try:
            report = self.run(index)
        except BudgetExceeded as error:
            if error.partial_result is None:
                report = (
                    error.partial
                    if isinstance(error.partial, MudsReport)
                    else MudsReport()
                )
                report.phase_seconds = {
                    "read_and_pli": read_seconds,
                    **report.phase_seconds,
                }
                error.partial_result = self._to_result(relation, report)
            raise
        report.phase_seconds = {"read_and_pli": read_seconds, **report.phase_seconds}
        return self._to_result(relation, report)

    @staticmethod
    def _to_result(relation: Relation, report: MudsReport) -> ProfilingResult:
        return ProfilingResult.from_masks(
            relation_name=relation.name,
            column_names=relation.column_names,
            ind_pairs=report.inds,
            ucc_masks=report.minimal_uccs,
            fd_pairs=sorted(
                (lhs, rhs)
                for lhs, mask in report.fds.items()
                for rhs in iter_bits(mask)
            ),
            phase_seconds=report.phase_seconds,
            counters=report.counters,
        )

    def run(self, index: RelationIndex) -> MudsReport:
        """Run all phases on a prebuilt shared index; returns mask-level
        output plus per-phase wall-clock times (Fig. 8).

        Under an exhausted execution budget the raised
        :class:`~repro.guard.BudgetExceeded` carries the partially filled
        :class:`MudsReport` as ``partial``: every phase that completed
        contributes its full output, the interrupted phase whatever it had
        verified (e.g. the UCCs a truncated DUCC walk confirmed).
        """
        rng = random.Random(self.seed)
        report = MudsReport()
        timer = _PhaseTimer(report.phase_seconds, span_prefix="muds")
        # Delta accounting: the index may be shared with earlier runs.
        fd_checks_before = index.fd_checks
        intersections_before = index.intersections
        fds: dict[int, int] = {}
        cache: CheckCache | None = None

        # Checkpoint composition: ``done`` counts completed phases; the
        # context provider snapshots the full inter-phase state (metadata
        # so far, rng, the check-cache memo, and the substrate-counter
        # *deltas* accumulated so far) alongside every inner boundary a
        # phase saves (spider merge steps, DUCC walks, R∖Z sub-lattices),
        # and MUDS saves its own boundary at each phase edge.  On resume
        # the counter bases are rebased so `_account`'s deltas equal
        # base-so-far + replayed work — identical to an undisturbed run.
        ckpt = _ckpt.ACTIVE
        done = 0

        def progress() -> dict:
            return {
                "done": done,
                "inds": [list(pair) for pair in report.inds],
                "uccs": list(report.minimal_uccs),
                "counters": dict(report.counters),
                "fds": _ckpt.mask_items(fds),
                "rng": _ckpt.rng_state_to_json(rng),
                "base": {
                    "fd_checks": index.fd_checks - fd_checks_before,
                    "intersections": index.intersections - intersections_before,
                },
                "cache": cache.state() if cache is not None else None,
                "index": index.state(),
            }

        saved = ckpt.resume("muds") if ckpt is not None else None
        if saved is not None:
            done = saved["done"]
            report.inds = [tuple(pair) for pair in saved["inds"]]
            report.minimal_uccs = list(saved["uccs"])
            report.counters = dict(saved["counters"])
            fds = _ckpt.mask_dict(saved["fds"])
            rng.setstate(_ckpt.rng_state_from_json(saved["rng"]))
            # Restoring the index (composite-PLI cache + counters) first,
            # then rebasing the deltas, makes `_account` report exactly the
            # undisturbed run's totals: pre-crash work + replay.
            index.restore(saved["index"])
            fd_checks_before = index.fd_checks - saved["base"]["fd_checks"]
            intersections_before = (
                index.intersections - saved["base"]["intersections"]
            )

        def phase_edge() -> None:
            if ckpt is not None:
                ckpt.boundary("muds", progress())

        try:
            with (
                ckpt.context("muds", progress)
                if ckpt is not None
                else nullcontext()
            ):
                # Phase 1: SPIDER on the shared duplicate-free value lists.
                if done < 1:
                    with timer("spider"):
                        report.inds = spider(index)
                    done = 1
                    phase_edge()

                # Phase 2: DUCC on the shared PLIs.
                if done < 2:
                    with timer("ducc"):
                        ducc_result = ducc(index, rng=rng)
                    report.minimal_uccs = ducc_result.minimal_uccs
                    report.counters["ucc_checks"] = ducc_result.checks
                    done = 2
                    phase_edge()

                z_mask = 0
                for ucc in report.minimal_uccs:
                    z_mask |= ucc
                ucc_tree = PrefixTree(report.minimal_uccs)
                cache = CheckCache(index)
                if saved is not None and saved["cache"] is not None:
                    cache.restore(saved["cache"])

                # Phase 3a: FDs in connected minimal UCCs (Algorithm 1).
                if done < 3:
                    with timer("minimize_fds"):
                        fds = minimize_fds_from_uccs(
                            cache, ucc_tree, report.minimal_uccs, z_mask
                        )
                    done = 3
                    phase_edge()

                # Phase 3b: sub-lattice walks for rhs ∈ R∖Z.
                if done < 4:
                    with timer("calculate_r_minus_z"):
                        rz_fds, rz_stats = discover_r_minus_z(
                            index,
                            report.minimal_uccs,
                            z_mask,
                            rng,
                            use_ucc_pruning=self.use_ucc_pruning,
                            checkpoint_stage="muds.rz",
                        )
                    for lhs, rhs_mask in rz_fds.items():
                        fds[lhs] = fds.get(lhs, 0) | rhs_mask
                    report.counters["sublattices"] = rz_stats.sublattices
                    report.counters["sublattice_checks"] = rz_stats.fd_checks
                    done = 4
                    phase_edge()

                # Phase 3c: shadowed FDs (Algorithms 2–4).
                if done < 5:
                    with timer("generate_shadowed_tasks"):
                        tasks = generate_shadowed_tasks(cache, ucc_tree, fds)
                    with timer("minimize_shadowed_tasks"):
                        minimize_shadowed_tasks(cache, tasks, fds)
                    report.counters["shadowed_tasks"] = len(tasks)
                    done = 5
                    phase_edge()

                # Published phases can emit a valid-but-not-minimal FD when
                # the connector lookup never offered the smaller lhs for
                # checking; re-minimizing every discovered FD top-down (the
                # Algorithm 4 machinery over the shared check cache, so
                # already-performed checks are free) guarantees all output
                # FDs are minimal.
                if done < 6:
                    with timer("final_minimization"):
                        minimized: dict[int, int] = {}
                        minimize_shadowed_tasks(cache, list(fds.items()), minimized)
                        fds = minimized
                    done = 6
                    phase_edge()

                if self.verify_completeness and done < 7:
                    with timer("completion_walk"):
                        self._complete_z_rhs(
                            index, cache, ucc_tree, report, fds, z_mask, rng
                        )
                    done = 7
        except BudgetExceeded as error:
            if not report.minimal_uccs and isinstance(error.partial, DuccResult):
                # Budget ran out mid-DUCC: its confirmed positives are
                # genuine (if possibly non-minimal) UCCs — keep them.
                report.minimal_uccs = error.partial.minimal_uccs
                report.counters["ucc_checks"] = error.partial.checks
            report.fds = fds
            self._account(report, index, fd_checks_before, intersections_before, cache)
            error.partial = report
            raise

        report.fds = fds
        self._account(report, index, fd_checks_before, intersections_before, cache)
        return report

    @staticmethod
    def _account(
        report: MudsReport,
        index: RelationIndex,
        fd_checks_before: int,
        intersections_before: int,
        cache: CheckCache | None,
    ) -> None:
        """Fill the substrate counter deltas of one (possibly truncated) run."""
        report.counters["fd_checks"] = index.fd_checks - fd_checks_before
        report.counters["pli_intersections"] = (
            index.intersections - intersections_before
        )
        if cache is not None:
            report.counters["check_cache_hits"] = cache.memo_hits
        for key, value in index.planner.stats().items():
            if isinstance(value, int):
                report.counters[key] = value

    # -- internals ---------------------------------------------------------------

    def _complete_z_rhs(
        self,
        index: RelationIndex,
        cache: CheckCache,
        ucc_tree: PrefixTree,
        report: MudsReport,
        fds: dict[int, int],
        z_mask: int,
        rng: random.Random,
    ) -> None:
        """Exactness certification: per rhs ∈ Z, a sub-lattice walk seeded
        with everything already known (found FDs, UCCs, rule-1 negatives,
        and all cached check outcomes)."""
        universe = full_mask(index.n_columns)
        ckpt = _ckpt.ACTIVE
        done: list[int] = []
        state = ckpt.resume("muds.completion") if ckpt is not None else None
        if state is not None:
            done = list(state["done"])
            fds.clear()
            fds.update(_ckpt.mask_dict(state["fds"]))
            rng.setstate(_ckpt.rng_state_from_json(state["rng"]))
        for rhs in iter_bits(z_mask):
            if rhs in done:
                continue
            sub_universe = universe & ~bit(rhs)
            positives = [
                ucc for ucc in report.minimal_uccs if not ucc >> rhs & 1
            ] + cache.known_valid(rhs)
            negatives = [
                (ucc & ~bit(rhs))
                for ucc in report.minimal_uccs
                if ucc >> rhs & 1  # rule 1: nothing inside U∖{rhs} → rhs
            ] + cache.known_invalid(rhs)
            search = LatticeSearch(
                universe=sub_universe,
                predicate=lambda lhs, _rhs=rhs: cache.check(lhs, _rhs),
                rng=rng,
                known_positives=positives,
                known_negatives=negatives,
            )
            minimal_lhs, __ = search.run()
            rhs_bit = bit(rhs)
            for lhs in list(fds):
                remaining = fds[lhs] & ~rhs_bit
                if remaining:
                    fds[lhs] = remaining
                else:
                    del fds[lhs]
            for lhs in minimal_lhs:
                fds[lhs] = fds.get(lhs, 0) | rhs_bit
            done.append(rhs)
            if ckpt is not None:
                ckpt.boundary(
                    "muds.completion",
                    {
                        "done": done,
                        "fds": _ckpt.mask_items(fds),
                        "rng": _ckpt.rng_state_to_json(rng),
                    },
                )


class _PhaseTimer:
    """Context-manager factory accumulating wall-clock per phase name.

    With a ``span_prefix`` every phase additionally opens a trace span
    ``<prefix>.<phase>`` (a no-op while tracing is disabled), so the
    structured trace and the report's ``phase_seconds`` stay aligned by
    construction."""

    def __init__(self, sink: dict[str, float], span_prefix: str | None = None):
        self._sink = sink
        self._span_prefix = span_prefix

    def __call__(self, phase: str) -> "_PhaseClock":
        span_name = (
            f"{self._span_prefix}.{phase}" if self._span_prefix else None
        )
        return _PhaseClock(self._sink, phase, span_name)


class _PhaseClock:
    def __init__(
        self, sink: dict[str, float], phase: str, span_name: str | None = None
    ):
        self._sink = sink
        self._phase = phase
        self._span_name = span_name
        self._span = None
        self._started = 0.0

    def __enter__(self) -> None:
        if self._span_name is not None:
            self._span = _trace.span(self._span_name)
            self._span.__enter__()
        self._started = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._started
        self._sink[self._phase] = self._sink.get(self._phase, 0.0) + elapsed
        if self._span is not None:
            self._span.__exit__(*exc_info)
            self._span = None
