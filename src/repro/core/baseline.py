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

:class:`BaselineProfiler` has two execution modes:

* **sequential** (``jobs=None``/``1``, the paper's setup): the three
  tasks run back to back in this process; wall-clock equals the sum of
  task runtimes — the number the paper compares MUDS against.
* **concurrent** (``jobs>=2``): the tasks are independent by definition,
  so they run in separate worker processes, each building its own
  :class:`~repro.pli.store.PliStore` over the pickled relation and
  arming its own :class:`~repro.guard.Budget` copy.

Both modes report both metrics: :attr:`BaselineProfiler.sum_of_task_seconds`
(sum of per-task runtimes, the paper's baseline cost) and
:attr:`BaselineProfiler.makespan_seconds` (wall clock of the whole
profile call — with parallelism, the slowest task).  The result's
``phase_seconds`` holds the per-task runtimes either way, so
``result.total_seconds`` remains the paper's sum-of-runtimes metric even
when the wall clock (the framework's ``Execution.seconds``) shows the
makespan.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import Any

from .. import checkpointing as _ckpt
from .. import trace as _trace
from ..algorithms.ducc import DuccResult, ducc
from ..algorithms.fun import FunResult, fun
from ..algorithms.spider import spider
from ..guard import Budget, BudgetExceeded, active_budget, guarded
from ..metadata.results import ProfilingResult
from ..pli import backend as _backend
from ..pli.store import PliStore
from ..relation.relation import Relation
from ..sampling import SamplingConfig

__all__ = ["BaselineProfiler", "SequentialBaseline", "BASELINE_TASKS"]

#: The three independent tasks, in the paper's execution order.
BASELINE_TASKS = ("spider", "ducc", "fun")


def _baseline_task(
    task: str,
    relation: Relation,
    seed: int,
    budget: Budget | None,
    sampling: SamplingConfig | bool | None = None,
    pli_backend: str | None = None,
) -> dict[str, Any]:
    """Run one baseline task standalone; the concurrent mode's worker.

    Executes in a worker process: builds its own :class:`PliStore` (and
    thus its own :class:`~repro.pli.index.RelationIndex`) over the pickled
    relation, arms the parent's kernel backend (backend selection is
    process-global, so a spawned worker does not inherit it), and arms its
    own copy of ``budget``.  Returns a plain dict — masks, counters,
    seconds, and TL/ML status — never live objects, so the process
    boundary carries exactly what the parent assembles into a
    :class:`ProfilingResult`.
    """
    if pli_backend is not None:
        _backend.set_backend(pli_backend)
    store = PliStore(sampling=sampling)
    index = store.index_for(relation)
    out: dict[str, Any] = {"task": task, "status": "ok", "error": None}
    started = time.perf_counter()
    try:
        with guarded(budget):
            if task == "spider":
                out["inds"] = spider(index)
            elif task == "ducc":
                result = ducc(index, rng=random.Random(seed))
                out["ucc_masks"] = result.minimal_uccs
                out["ucc_checks"] = result.checks
            elif task == "fun":
                result = fun(index)
                out["fd_pairs"] = result.fds
                out["fd_checks"] = result.fd_checks
            else:
                raise ValueError(f"unknown baseline task {task!r}")
    except BudgetExceeded as error:
        out["status"] = error.reason
        out["error"] = str(error)
        partial = error.partial
        if task == "ducc" and isinstance(partial, DuccResult):
            out["ucc_masks"] = partial.minimal_uccs
            out["ucc_checks"] = partial.checks
        elif task == "fun" and isinstance(partial, FunResult):
            out["fd_pairs"] = partial.fds
            out["fd_checks"] = partial.fd_checks
    out["seconds"] = time.perf_counter() - started
    out["intersections"] = index.intersections
    return out


class BaselineProfiler:
    """Run SPIDER + DUCC + FUN as independent tasks, without inter-task
    sharing of results or pruning state (see module docstring).

    Parameters
    ----------
    seed:
        Random-walk seed for DUCC (deterministic runs).
    store:
        Shared PLI substrate for the *sequential* mode (workers of the
        concurrent mode always build their own).
    jobs:
        ``None``/``1`` for the paper's sequential execution; ``>=2`` to
        run the three tasks in separate processes (capped at three — more
        workers than tasks buys nothing).
    sampling:
        Sampling-driven refutation configuration.  Applies to the private
        sequential store (an explicit ``store`` keeps its own setting) and
        is shipped to every concurrent worker's store.
    """

    def __init__(
        self,
        seed: int = 0,
        store: PliStore | None = None,
        jobs: int | None = None,
        sampling: SamplingConfig | bool | None = None,
    ):
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.seed = seed
        self.store = store if store is not None else PliStore(sampling=sampling)
        self.jobs = jobs
        self.sampling = sampling
        #: Sum of per-task runtimes of the last run (the paper's metric).
        self.sum_of_task_seconds: float | None = None
        #: Wall clock of the last run (== sum sequentially; the slowest
        #: task, plus pool overhead, concurrently).
        self.makespan_seconds: float | None = None

    def profile(self, relation: Relation) -> ProfilingResult:
        """Profile a relation with three independent algorithm executions.

        When the execution budget runs out, the raised
        :class:`~repro.guard.BudgetExceeded` carries ``partial_result``
        with the output of every task that finished (plus the interrupted
        task's own partial output) — the per-task equivalent of
        Metanome's graceful degradation.
        """
        if self.jobs is not None and self.jobs > 1:
            return self._profile_concurrent(relation)
        return self._profile_sequential(relation)

    # -- sequential mode (the paper's setup) -------------------------------

    def _profile_sequential(self, relation: Relation) -> ProfilingResult:
        timings: dict[str, float] = {}
        counters: dict[str, int] = {}
        wall_started = time.perf_counter()

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
            self._record_clocks(timings, wall_started)
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

        self._record_clocks(timings, wall_started)
        return ProfilingResult.from_masks(
            relation_name=relation.name,
            column_names=relation.column_names,
            ind_pairs=inds,
            ucc_masks=ucc_masks,
            fd_pairs=fd_pairs,
            phase_seconds=timings,
            counters=counters,
        )

    # -- concurrent mode ---------------------------------------------------

    def _profile_concurrent(self, relation: Relation) -> ProfilingResult:
        """Run the three tasks in separate processes and merge their output.

        Each worker stops on its *own* budget copy, so a TL/ML task never
        cancels its siblings: whatever the other tasks discovered still
        lands in ``partial_result``, matching the sequential semantics
        where finished tasks survive a later task's budget stop.  A dying
        worker raises a plain :class:`RuntimeError` (the framework
        contains it as an ERR cell) — :class:`BrokenProcessPool` never
        reaches callers.
        """
        budget = _active_budget_copy()
        wall_started = time.perf_counter()
        outputs: dict[str, dict[str, Any]] = {}
        workers = min(self.jobs or 1, len(BASELINE_TASKS))
        with _trace.span("baseline.concurrent", jobs=workers):
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        task: pool.submit(
                            _baseline_task,
                            task,
                            relation,
                            self.seed,
                            budget,
                            self.sampling,
                            _backend.ACTIVE.name,
                        )
                        for task in BASELINE_TASKS
                    }
                    for task, future in futures.items():
                        outputs[task] = future.result()
            except BrokenProcessPool as error:
                raise RuntimeError(
                    "concurrent baseline worker process died "
                    f"(tasks finished: {sorted(outputs)}): {error}"
                ) from None
            # Task spans live in the workers; record each task's outcome
            # here so the parent trace still shows what ran remotely.
            for task in BASELINE_TASKS:
                _trace.event(
                    "baseline.task", task=task, status=outputs[task]["status"]
                )
        makespan = time.perf_counter() - wall_started

        timings = {
            task: outputs[task]["seconds"]
            for task in BASELINE_TASKS
            if task in outputs
        }
        counters: dict[str, int] = {"baseline_jobs": self.jobs or 1}
        if "ucc_checks" in outputs.get("ducc", {}):
            counters["ucc_checks"] = outputs["ducc"]["ucc_checks"]
        if "fd_checks" in outputs.get("fun", {}):
            counters["fd_checks"] = outputs["fun"]["fd_checks"]
        counters["pli_intersections"] = sum(
            outputs[task].get("intersections", 0) for task in outputs
        )
        result = ProfilingResult.from_masks(
            relation_name=relation.name,
            column_names=relation.column_names,
            ind_pairs=outputs.get("spider", {}).get("inds", []),
            ucc_masks=outputs.get("ducc", {}).get("ucc_masks", []),
            fd_pairs=outputs.get("fun", {}).get("fd_pairs", []),
            phase_seconds=timings,
            counters=counters,
        )
        self.sum_of_task_seconds = sum(timings.values())
        self.makespan_seconds = makespan

        failed = [
            task for task in BASELINE_TASKS if outputs[task]["status"] != "ok"
        ]
        if failed:
            first = outputs[failed[0]]
            error = BudgetExceeded(
                first["status"],
                f"baseline task(s) {', '.join(failed)} exceeded their "
                f"budget: {first['error']}",
            )
            error.partial_result = result
            raise error
        return result

    def _record_clocks(
        self, timings: dict[str, float], wall_started: float
    ) -> None:
        self.sum_of_task_seconds = sum(timings.values())
        self.makespan_seconds = time.perf_counter() - wall_started


class SequentialBaseline(BaselineProfiler):
    """The paper's sequential baseline (kept as the historical name)."""

    def __init__(
        self,
        seed: int = 0,
        store: PliStore | None = None,
        sampling: SamplingConfig | bool | None = None,
    ):
        super().__init__(seed=seed, store=store, jobs=None, sampling=sampling)


def _active_budget_copy() -> Budget | None:
    """A fresh copy of the currently guarded budget, for shipping to
    workers (each re-arms its own; consumed counters are not inherited)."""
    budget = active_budget()
    if budget is None:
        return None
    return Budget(
        deadline_seconds=budget.deadline_seconds,
        max_intersections=budget.max_intersections,
        max_cluster_bytes=budget.max_cluster_bytes,
        checkpoint_stride=budget.checkpoint_stride,
    )
