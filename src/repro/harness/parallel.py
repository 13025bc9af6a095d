"""Process-parallel sweep execution.

Every experiment in the evaluation (Fig. 6/7/8, Table 3) is a grid of
*independent* (workload × algorithm) cells, so the harness can fan sweep
points out to worker processes instead of running them on one core.  This
module is the dispatch layer under
:meth:`repro.harness.runner.ExperimentRunner.sweep(jobs=N) <repro.harness.runner.ExperimentRunner.sweep>`:

* A sweep point travels to the worker as a picklable :class:`PointTask` —
  a :class:`WorkloadSpec` (module-level builder + parameters, rebuilt in
  the worker, never a pickled relation), a :class:`FrameworkSpec`
  (factory + parameters, so profilers and their per-process
  :class:`~repro.pli.store.PliStore` instances are constructed inside the
  worker), the algorithm names, and an optional budget.  Budgets are
  re-armed per execution by :func:`repro.guard.guarded`, so each worker
  enforces its own copy.
* Results come back as the *serialized* record of a
  :class:`~repro.harness.runner.SweepPoint` (plain JSON-ready dicts of
  :class:`~repro.harness.framework.Execution` records), never as live
  objects, so the worker boundary has exactly the same fidelity as the
  sweep journal.
* The parent remains the single journal writer: workers never touch the
  JSONL file, completion order does not matter, and resume semantics are
  identical to a serial sweep.

Failure containment matches inline execution: algorithm-level failures
are already TL/ML/ERR cells (contained in the worker by
:meth:`Framework.run <repro.harness.framework.Framework.run>`), a crashing
workload builder becomes a point-level ``error`` (recorded in the worker),
and a *dying worker process* — the one failure mode a single process never
has — is retried once in a fresh pool and then recorded as a point-level
``error`` too.  No :class:`BrokenProcessPool` ever escapes to the caller,
and innocent points whose futures were collateral damage of another
point's crash are re-dispatched automatically.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Mapping

from .. import liveness as _liveness
from .. import trace as _trace
from ..guard import Budget
from ..pli import backend as _backend
from ..relation.relation import Relation
from .framework import Framework, default_framework
from .checkpoint import CheckpointStore
from .result_cache import ResultCache
from .runner import SweepPoint, run_point
from .watchdog import Watchdog

__all__ = [
    "WorkloadSpec",
    "FrameworkSpec",
    "PointTask",
    "run_sweep_points",
    "default_jobs",
    "ensure_picklable",
]

#: Attempts per point before a dying worker becomes a point-level error:
#: one in the shared pool, one isolated retry.  The isolated retry (a
#: fresh single-worker pool per suspect) separates "collateral damage of
#: another point's crash" from "this point reproducibly kills its worker"
#: — a broken pool fails *every* in-flight future, so the first round
#: cannot tell culprit from victim.
WORKER_ATTEMPTS = 2


def default_jobs() -> int:
    """Default worker count: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux fallback
        return os.cpu_count() or 1


def ensure_picklable(value: object, role: str) -> None:
    """Raise a helpful :class:`TypeError` when ``value`` cannot cross a
    process boundary (lambdas, closures, open handles...)."""
    try:
        pickle.dumps(value)
    except Exception as error:
        raise TypeError(
            f"{role} must be picklable to run in worker processes "
            f"(module-level functions, plain data): {type(error).__name__}: "
            f"{error}"
        ) from error


@dataclass(frozen=True)
class WorkloadSpec:
    """Picklable description of a workload builder.

    ``builder`` must be a module-level callable (pickled by reference);
    the relation it returns is built *inside* the worker, so sweeps never
    ship row data across the process boundary.  The point label is passed
    as the first positional argument; ``kwargs`` supplies the fixed
    parameters.

    A spec is itself callable with a label, so it can serve directly as
    the ``workload`` argument of a serial sweep — one object describes the
    workload in both execution modes.
    """

    builder: Callable[..., Relation]
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def build(self, label: object) -> Relation:
        """Construct the relation for one sweep point."""
        return self.builder(label, **dict(self.kwargs))

    __call__ = build


@dataclass(frozen=True)
class FrameworkSpec:
    """Picklable description of a framework factory.

    Workers rebuild the full :class:`~repro.harness.framework.Framework`
    from this spec, which is what gives every worker process its own
    profiler instances, its own :class:`~repro.pli.store.PliStore`
    substrate, and its own kernel counters — nothing warm is shared across
    the process boundary.
    """

    factory: Callable[..., Framework] = default_framework
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def build(self) -> Framework:
        """Construct a fresh framework in the calling process."""
        return self.factory(**dict(self.kwargs))


@dataclass(frozen=True)
class PointTask:
    """Everything a worker needs to execute one sweep point."""

    label: object
    workload: WorkloadSpec
    algorithms: tuple[str, ...]
    framework: FrameworkSpec
    budget: Budget | Mapping[str, Budget] | None = None
    check_agreement: bool = True
    #: Result-cache directory (opened per worker), or ``None`` to disable.
    cache_root: str | None = None
    cache_config: str | None = None
    #: Collect this point's structured trace in the worker and ship it
    #: back with the serialized record (set when the parent is tracing).
    trace: bool = False
    #: Kernel backend to arm in the worker before executing the point
    #: (``None`` keeps the worker's import-time default).  Backend
    #: selection is process-global, so the parent's choice must travel
    #: explicitly — a spawned worker does not inherit it.
    pli_backend: str | None = None
    #: Directory of per-pid liveness files for the parent's hung-worker
    #: watchdog (``None`` leaves the worker silent); filled in by
    #: :func:`run_sweep_points` when a watchdog grace is armed.
    heartbeat_dir: str | None = None
    #: Minimum spacing between heartbeat file touches, in seconds.
    heartbeat_interval: float = 1.0
    #: Checkpoint-store directory for intra-execution restart snapshots
    #: (opened per worker), or ``None`` to disable.
    checkpoint_root: str | None = None


def execute_point_record(task: PointTask) -> dict[str, Any]:
    """Worker entry point: run one sweep point, return its serialized
    :class:`~repro.harness.runner.SweepPoint` record.

    Arms what the parent armed (kernel backend, tracer, heartbeat),
    rebuilds the framework, result cache and checkpoint store from the
    task, and runs the point through
    :func:`~repro.harness.runner.run_point`, the loop a serial sweep
    runs.  Runs inside the worker process.
    """
    if task.heartbeat_dir is not None:
        # Arm this worker's liveness heartbeat: the guard checkpoint hook
        # inside every lattice loop refreshes the per-pid file, so the
        # parent's watchdog sees a fresh mtime while the point progresses.
        _liveness.arm(
            os.path.join(task.heartbeat_dir, f"{os.getpid()}.hb"),
            interval=task.heartbeat_interval,
            label=str(task.label),
        )
    try:
        if task.pli_backend is not None:
            # Re-arm the parent's kernel backend in this worker.  Safe
            # under fork *and* spawn: set_backend is idempotent, and an
            # unusable explicit choice should fail the point loudly rather
            # than let workers silently compute on a different kernel.
            _backend.set_backend(task.pli_backend)
        if task.trace and _trace.ACTIVE is None:
            # The parent was tracing when it built the task; bring this
            # worker's process-local tracer up so the point's events exist
            # to ship back.  (A forked worker may instead have inherited a
            # live tracer including the parent's old events — the rebased
            # capture in run_point slices past them either way.)
            _trace.enable()
        point = run_point(
            task.label,
            task.workload,
            task.framework.build(),
            task.algorithms,
            budget=task.budget,
            check_agreement=task.check_agreement,
            cache=ResultCache(task.cache_root) if task.cache_root else None,
            cache_config=task.cache_config,
            checkpoints=(
                CheckpointStore(task.checkpoint_root)
                if task.checkpoint_root
                else None
            ),
        )
        return point.to_record()
    finally:
        if task.heartbeat_dir is not None:
            _liveness.disarm()


def run_sweep_points(
    tasks: list[PointTask],
    jobs: int,
    watchdog_grace: float | None = None,
) -> Iterator[tuple[object, dict[str, Any]]]:
    """Execute sweep points on a process pool, yielding ``(label, record)``
    pairs in *completion* order (the caller re-orders and journals).

    Pool breakage is contained here: when a worker dies, every affected
    task is re-dispatched once in a fresh pool, and a task whose worker
    dies again is yielded as a point-level error record — the exact
    ``error`` semantics a crashing workload builder has inline.

    With ``watchdog_grace`` set, every worker arms a per-pid liveness
    heartbeat (:mod:`repro.liveness`) in a shared temporary directory and
    a parent-side :class:`~repro.harness.watchdog.Watchdog` thread kills
    any worker whose heartbeat stays silent that many seconds.  The kill
    surfaces as :class:`BrokenProcessPool`, so a *hang* degrades into the
    already-contained death path: innocent in-flight points complete in
    the isolation round, and a point that hangs its worker again is
    recorded as a point-level error.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    heartbeat_dir: str | None = None
    if watchdog_grace is not None:
        if watchdog_grace <= 0:
            raise ValueError(
                f"watchdog_grace must be positive, got {watchdog_grace}"
            )
        heartbeat_dir = tempfile.mkdtemp(prefix="repro-heartbeats-")
        # Several beats must fit into one grace period so scheduler
        # jitter never reads as a hang.
        interval = min(1.0, max(0.05, watchdog_grace / 4.0))
        tasks = [
            replace(task, heartbeat_dir=heartbeat_dir, heartbeat_interval=interval)
            for task in tasks
        ]
    for task in tasks:
        ensure_picklable(task, f"sweep point {task.label!r}")

    try:
        yield from _run_rounds(tasks, jobs, watchdog_grace, heartbeat_dir)
    finally:
        if heartbeat_dir is not None:
            shutil.rmtree(heartbeat_dir, ignore_errors=True)


def _pool_watchdog(
    heartbeat_dir: str | None,
    grace: float | None,
    executor: ProcessPoolExecutor,
):
    """A started watchdog bound to ``executor``'s live pids, or a no-op."""
    if heartbeat_dir is None or grace is None:
        return nullcontext()
    # _processes is the executor's {pid: Process} map; it may be None or
    # mid-mutation during teardown — Watchdog.scan tolerates a raising
    # pids_fn by skipping the scan.
    return Watchdog(
        heartbeat_dir, grace, pids_fn=lambda: list(executor._processes or ())
    )


def _run_rounds(
    tasks: list[PointTask],
    jobs: int,
    watchdog_grace: float | None,
    heartbeat_dir: str | None,
) -> Iterator[tuple[object, dict[str, Any]]]:
    # Round 1: everything on one shared pool.  A worker death breaks the
    # whole pool, failing every in-flight future, so pool-breakage
    # failures only mark their tasks as *suspects* for round 2.
    suspects: list[int] = []
    executor = ProcessPoolExecutor(max_workers=jobs)
    try:
        with _pool_watchdog(heartbeat_dir, watchdog_grace, executor):
            futures: dict[Any, int] = {}
            for index, task in enumerate(tasks):
                try:
                    futures[executor.submit(execute_point_record, task)] = index
                except BrokenProcessPool:
                    # Pool already broken before this task went out.
                    suspects.append(index)
            unfinished = set(futures)
            while unfinished:
                finished, unfinished = wait(
                    unfinished, return_when=FIRST_COMPLETED
                )
                for future in finished:
                    index = futures[future]
                    try:
                        yield tasks[index].label, future.result()
                    except BrokenProcessPool:
                        suspects.append(index)
                    except Exception as error:
                        # Worker-side infrastructure failure that is not a
                        # process death (e.g. an unpicklable return value):
                        # deterministic, no point retrying.
                        yield tasks[index].label, _error_record(
                            tasks[index], error, attempts=1
                        )
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    # Round 2: each suspect alone in a fresh single-worker pool.  An
    # innocent victim of someone else's crash completes here; a point
    # that kills its worker again is the reproducible culprit and is
    # recorded as a point-level error.  The watchdog stays armed so a
    # point that *hangs* its solo worker is killed (and recorded) too.
    for index in sorted(suspects):
        task = tasks[index]
        with ProcessPoolExecutor(max_workers=1) as solo:
            with _pool_watchdog(heartbeat_dir, watchdog_grace, solo):
                try:
                    yield task.label, solo.submit(
                        execute_point_record, task
                    ).result()
                except Exception as error:
                    yield task.label, _error_record(
                        task, error, attempts=WORKER_ATTEMPTS
                    )


def _error_record(
    task: PointTask, error: Exception, attempts: int
) -> dict[str, Any]:
    """Point-level error record for a task whose worker process died."""
    cause = str(error).strip() or "worker process died"
    noun = "attempt" if attempts == 1 else "attempts"
    point = SweepPoint(
        label=task.label,
        error=(
            f"worker failed after {attempts} {noun}: "
            f"{type(error).__name__}: {cause}"
        ),
    )
    return point.to_record()
