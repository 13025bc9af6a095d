"""Baseline profiler: SPIDER, DUCC, and FUN as independent tasks (§6).

This is the comparison point of the paper's evaluation: the three
state-of-the-art single-task algorithms executed standalone.  Since the
shared-store refactor all profilers — this baseline included — obtain
their PLI substrate from one :class:`~repro.pli.store.PliStore`, so the
sequential baseline no longer re-reads and re-indexes the input per task;
what keeps it a *baseline* is that it still runs three independent
single-task searches (SPIDER, DUCC, FUN) with none of the inter-task
pruning and result reuse the holistic algorithms add.  See DESIGN.md
("Deviations") for the discussion of this departure from the paper's
triple-input-pass setup.

The three tasks run back to back in this process, the paper's setup:
``result.phase_seconds`` holds the per-task runtimes, so
``result.total_seconds`` is the paper's sum-of-runtimes metric.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

from .. import checkpointing as _ckpt
from .. import trace as _trace
from ..algorithms.ducc import DuccResult, ducc
from ..algorithms.fun import FunResult, fun
from ..algorithms.spider import spider
from ..guard import BudgetExceeded
from ..metadata.results import ProfilingResult
from ..pli.store import PliStore
from ..relation.relation import Relation

__all__ = ["BaselineProfiler"]


class BaselineProfiler:
    """Run SPIDER + DUCC + FUN as independent tasks, without inter-task
    sharing of results or pruning state (see module docstring).

    Parameters
    ----------
    seed:
        Random-walk seed for DUCC (deterministic runs).
    store:
        Shared PLI substrate; a private store is created when omitted.
    """

    def __init__(self, seed: int = 0, store: PliStore | None = None):
        self.seed = seed
        self.store = store if store is not None else PliStore()

    def profile(self, relation: Relation) -> ProfilingResult:
        """Profile a relation with three independent algorithm executions.

        When the execution budget runs out, the raised
        :class:`~repro.guard.BudgetExceeded` carries ``partial_result``
        with the output of every task that finished (plus the interrupted
        task's own partial output) — the per-task equivalent of
        Metanome's graceful degradation.
        """
        timings: dict[str, float] = {}
        counters: dict[str, int] = {}

        with _trace.span("baseline.read_and_pli"):
            index = self.store.index_for(relation)
        fun_intersections_before = index.intersections

        inds: list[tuple[int, int]] = []
        ucc_masks: list[int] = []
        fd_pairs: list[tuple[int, int]] = []

        # Checkpoint composition: each task saves its own in-phase
        # boundaries ("spider" merge strides, "ducc.search" walks, "fun"
        # levels); the context provider records which tasks completed plus
        # the substrate state a fresh process cannot rederive, with the
        # intersections delta rebased so the resumed totals equal
        # pre-crash work + replay.
        ckpt = _ckpt.ACTIVE
        done = 0
        ducc_intersections = 0

        def progress() -> dict:
            return {
                "done": done,
                "inds": [list(pair) for pair in inds],
                "ucc_masks": list(ucc_masks),
                "counters": dict(counters),
                "ducc_intersections": ducc_intersections,
                "intersections_so_far": (
                    index.intersections - fun_intersections_before
                ),
                "index": index.state(),
            }

        saved = ckpt.resume("baseline") if ckpt is not None else None
        if saved is not None:
            done = saved["done"]
            inds = [tuple(pair) for pair in saved["inds"]]
            ucc_masks = list(saved["ucc_masks"])
            counters = dict(saved["counters"])
            ducc_intersections = saved["ducc_intersections"]
            index.restore(saved["index"])
            fun_intersections_before = (
                index.intersections - saved["intersections_so_far"]
            )

        try:
            with (
                ckpt.context("baseline", progress)
                if ckpt is not None
                else nullcontext()
            ):
                if done < 1:
                    started = time.perf_counter()
                    with _trace.span("baseline.spider"):
                        inds = spider(index)
                    timings["spider"] = time.perf_counter() - started
                    done = 1
                    if ckpt is not None:
                        ckpt.boundary("baseline", progress())

                if done < 2:
                    started = time.perf_counter()
                    with _trace.span("baseline.ducc"):
                        ducc_result = ducc(index, rng=random.Random(self.seed))
                    timings["ducc"] = time.perf_counter() - started
                    counters["ucc_checks"] = ducc_result.checks
                    ucc_masks = ducc_result.minimal_uccs
                    ducc_intersections = (
                        index.intersections - fun_intersections_before
                    )
                    done = 2
                    if ckpt is not None:
                        ckpt.boundary("baseline", progress())

                started = time.perf_counter()
                with _trace.span("baseline.fun"):
                    fun_result = fun(index)
                timings["fun"] = time.perf_counter() - started
                fd_pairs = fun_result.fds
                counters["fd_checks"] = fun_result.fd_checks
                counters["pli_intersections"] = (
                    ducc_intersections + fun_result.intersections
                )
        except BudgetExceeded as error:
            if error.partial_result is None:
                if isinstance(error.partial, DuccResult) and not ucc_masks:
                    ucc_masks = error.partial.minimal_uccs
                elif isinstance(error.partial, FunResult):
                    fd_pairs = error.partial.fds
                    if not ucc_masks:
                        ucc_masks = error.partial.minimal_uccs
                error.partial_result = ProfilingResult.from_masks(
                    relation_name=relation.name,
                    column_names=relation.column_names,
                    ind_pairs=inds,
                    ucc_masks=ucc_masks,
                    fd_pairs=fd_pairs,
                    phase_seconds=timings,
                    counters=counters,
                )
            raise

        return ProfilingResult.from_masks(
            relation_name=relation.name,
            column_names=relation.column_names,
            ind_pairs=inds,
            ucc_masks=ucc_masks,
            fd_pairs=fd_pairs,
            phase_seconds=timings,
            counters=counters,
        )
