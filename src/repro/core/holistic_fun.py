"""Holistic FUN (§3.2): FDs and UCCs simultaneously, plus shared-I/O SPIDER.

FUN must traverse every minimal UCC anyway — minimal UCCs are free sets
(Lemma 3) and unique free sets are exactly what its key pruning detects —
so with a small adaption the UCCs are stored and returned instead of being
discarded, at no extra checking cost.  Combined with running SPIDER on the
duplicate-free value lists that the shared PLI construction produces, this
yields all three metadata types from a single input pass: the paper's
first holistic baseline, consistently ~1/3 faster than sequential
execution on row-dominated datasets (Fig. 6).
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from .. import checkpointing as _ckpt
from .. import trace as _trace
from ..algorithms.fun import FunResult, fun
from ..algorithms.spider import spider
from ..guard import BudgetExceeded
from ..metadata.results import ProfilingResult
from ..pli.index import RelationIndex
from ..pli.store import PliStore
from ..relation.relation import Relation

__all__ = ["HolisticFun"]


class HolisticFun:
    """Holistic FUN profiler: one input pass, three result sets.

    ``store`` is the shared PLI substrate; a private store is created when
    omitted.
    """

    def __init__(self, store: PliStore | None = None):
        self.store = store if store is not None else PliStore()

    def profile(self, relation: Relation) -> ProfilingResult:
        """Profile a relation: shared read/PLI pass, SPIDER, then FUN with
        UCC collection.

        When the execution budget runs out, the raised
        :class:`~repro.guard.BudgetExceeded` carries ``partial_result``
        with the output of every completed phase plus whatever FUN had
        discovered mid-lattice.
        """
        started = time.perf_counter()
        with _trace.span("hfun.read_and_pli"):
            index = self.store.index_for(relation)
        read_seconds = time.perf_counter() - started
        phase_seconds = {"read_and_pli": read_seconds}
        inds: list[tuple[int, int]] = []

        # Checkpoint composition: SPIDER and FUN save their own in-phase
        # boundaries ("spider" merge strides, "fun" lattice levels); the
        # context provider rides along with each of those, recording which
        # phase completed plus the substrate state (planner counters) a
        # fresh process cannot rederive.
        ckpt = _ckpt.ACTIVE
        done = 0

        def progress() -> dict:
            return {
                "done": done,
                "inds": [list(pair) for pair in inds],
                "index": index.state(),
            }

        saved = ckpt.resume("hfun") if ckpt is not None else None
        if saved is not None:
            done = saved["done"]
            inds = [tuple(pair) for pair in saved["inds"]]
            index.restore(saved["index"])

        try:
            with (
                ckpt.context("hfun", progress)
                if ckpt is not None
                else nullcontext()
            ):
                if done < 1:
                    started = time.perf_counter()
                    with _trace.span("hfun.spider"):
                        inds = spider(index)
                    phase_seconds["spider"] = time.perf_counter() - started
                    done = 1
                    if ckpt is not None:
                        ckpt.boundary("hfun", progress())

                started = time.perf_counter()
                with _trace.span("hfun.fun"):
                    fun_result = fun(index)
                phase_seconds["fun"] = time.perf_counter() - started
        except BudgetExceeded as error:
            if error.partial_result is None:
                partial = (
                    error.partial
                    if isinstance(error.partial, FunResult)
                    else FunResult([], [], 0, 0, 0)
                )
                error.partial_result = self._to_result(
                    relation, inds, partial, phase_seconds, index
                )
            raise

        return self._to_result(relation, inds, fun_result, phase_seconds, index)

    @staticmethod
    def _to_result(
        relation: Relation,
        inds: list[tuple[int, int]],
        fun_result: FunResult,
        phase_seconds: dict[str, float],
        index: RelationIndex,
    ) -> ProfilingResult:
        counters = {
            "fd_checks": fun_result.fd_checks,
            "pli_intersections": fun_result.intersections,
            "free_sets": fun_result.free_sets,
        }
        for key, value in index.planner.stats().items():
            if isinstance(value, int):
                counters[key] = value
        return ProfilingResult.from_masks(
            relation_name=relation.name,
            column_names=relation.column_names,
            ind_pairs=inds,
            ucc_masks=fun_result.minimal_uccs,
            fd_pairs=fun_result.fds,
            phase_seconds=phase_seconds,
            counters=counters,
        )
