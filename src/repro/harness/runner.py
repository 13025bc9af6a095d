"""Experiment runner: parameter sweeps over datasets × algorithms.

The evaluation section's experiments are all of the same shape: build a
workload for each point of a parameter sweep (rows for Fig. 6, columns for
Fig. 7, one dataset per Table 3 row), run a set of algorithms on it, and
collect runtimes and result counts.  :class:`ExperimentRunner` factors that
loop out of the individual benchmarks.

Long sweeps must survive failure: each algorithm runs inside the
framework's crash containment (a blown budget or crash becomes a TL/ML/ERR
cell rather than aborting the sweep), a workload builder that itself dies
yields a point-level error entry, and with a :class:`SweepJournal` every
finished point is appended to a JSONL file as soon as it completes — a
killed sweep re-run with the same journal resumes, re-executing only the
points that have no record yet.

With ``jobs > 1`` the unfinished points are dispatched to worker
processes (:mod:`repro.harness.parallel`); the parent remains the single
journal writer, so the crash-safety and resume story is identical in
both modes, and a :class:`~repro.harness.result_cache.ResultCache`
short-circuits already-profiled cells in either mode.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from .. import trace as _trace
from ..durable import Journal
from ..guard import Budget
from ..relation.relation import Relation
from .framework import (
    Execution,
    Framework,
    MetadataDisagreement,
    resolve_budget,
    verify_agreement,
)
from .reporting import ascii_table

if TYPE_CHECKING:  # imported lazily at runtime (parallel imports runner)
    from .checkpoint import CheckpointStore
    from .parallel import FrameworkSpec
    from .result_cache import ResultCache

__all__ = [
    "SweepPoint",
    "SweepJournal",
    "ExperimentRunner",
    "run_point",
    "sweep_table",
]


@dataclass(slots=True)
class SweepPoint:
    """One sweep point: a label (x value) and its executions.

    ``error`` is set when the point itself failed outside any single
    algorithm execution — the workload builder crashed, or the completed
    executions disagreed on the metadata.
    """

    label: object
    executions: list[Execution] = field(default_factory=list)
    #: Point-level failure (workload crash / metadata disagreement), if any.
    error: str | None = None
    #: Structured trace events of this point's executions (rebased per
    #: point; empty when tracing was disabled while the point ran).
    #: Parallel sweeps ship each worker's buffer back through this field,
    #: so serial and pooled traces land in the same place.
    trace: list[dict[str, Any]] = field(default_factory=list)

    def seconds(self, algorithm: str) -> float:
        """Runtime of one algorithm at this point."""
        for execution in self.executions:
            if execution.algorithm == algorithm:
                return execution.seconds
        executed = [execution.algorithm for execution in self.executions]
        raise KeyError(
            f"no execution of {algorithm!r} at point {self.label!r}; "
            f"executed algorithms: {executed or 'none'}"
        )

    def counts(self) -> tuple[int, int, int]:
        """(#INDs, #UCCs, #FDs) from the first *completed* full profiler.

        Only full (non-``fd_only``) profilers report all three metadata
        types; an FD-only execution (TANE) must never supply the counts —
        it would mis-report ``(0, 0, #FDs)`` even when the dataset has
        INDs and UCCs.  Truncated executions (TL/ML/ERR) are skipped for
        the same reason: their partial results undercount.  Raises
        :class:`ValueError` when the point holds no completed
        full-profiler execution at all.
        """
        for execution in self.executions:
            if not execution.fd_only and execution.ok:
                return execution.counts
        executed = [execution.algorithm for execution in self.executions]
        raise ValueError(
            f"no completed full-profiler execution at point {self.label!r}; "
            f"executed algorithms: {executed or 'none'}"
        )

    def cell(self, algorithm: str) -> str:
        """Report cell for one algorithm: seconds, or the TL/ML/ERR marker
        of a non-completed execution (Metanome's result-table notation)."""
        for execution in self.executions:
            if execution.algorithm == algorithm:
                return f"{execution.seconds:.3f}" if execution.ok else execution.marker
        return "-"

    # -- journal (de)serialization ----------------------------------------

    def to_record(self) -> dict[str, Any]:
        """JSON-ready form for the sweep journal.

        The trace rides along only when non-empty, so untraced journals
        keep their pre-tracing wire format byte for byte."""
        record: dict[str, Any] = {
            "label": self.label,
            "error": self.error,
            "executions": [execution.to_record() for execution in self.executions],
        }
        if self.trace:
            record["trace"] = self.trace
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "SweepPoint":
        """Rebuild a sweep point from its journal record."""
        return cls(
            label=record["label"],
            executions=[
                Execution.from_record(entry) for entry in record["executions"]
            ],
            error=record.get("error"),
            trace=list(record.get("trace", [])),
        )


def _label_key(label: object) -> str:
    """Canonical journal key of a point label (stable across processes)."""
    return json.dumps(label, sort_keys=True, default=str)


class SweepJournal:
    """Crash-safe sweep record: one :class:`repro.durable.Journal` line per
    finished :class:`SweepPoint`, appended the moment it completes, so a
    killed sweep loses at most the point it was working on.  A torn line
    reads as absent; a label recorded twice resolves to its last record."""

    def __init__(self, path: str | os.PathLike[str]):
        self.path = Path(path)
        self._journal = Journal(self.path)

    def load(self) -> dict[str, SweepPoint]:
        """All finished points keyed by canonical label; ``{}`` if the
        journal does not exist yet."""
        points: dict[str, SweepPoint] = {}
        for record in self._journal.records():
            try:
                point = SweepPoint.from_record(record)
            except (ValueError, KeyError, TypeError):
                continue  # a line that parses but is no point record
            points[_label_key(point.label)] = point
        return points

    def append(self, point: SweepPoint) -> None:
        """Durably record one finished point."""
        self._journal.append(point.to_record())


def run_point(
    label: object,
    workload: Callable[[object], Relation],
    framework: Framework,
    algorithms: Iterable[str],
    budget: Budget | Mapping[str, Budget] | None = None,
    check_agreement: bool = True,
    cache: "ResultCache | None" = None,
    cache_config: Mapping[str, Any] | str | None = None,
    checkpoints: "CheckpointStore | None" = None,
) -> SweepPoint:
    """Execute one sweep point: build its relation, run every algorithm
    through :meth:`Framework.run`, and check the executions agree.

    The one point loop of both sweep modes: the serial sweep calls it in
    this process, each pool worker in its own
    (:func:`repro.harness.parallel.execute_point_record`).  A crashing
    workload builder or a metadata disagreement becomes the point's
    ``error``; algorithm failures are contained by the framework as
    TL/ML/ERR executions.
    """
    point = SweepPoint(label=label)
    # Per-point capture (drained so a long sweep does not hold every
    # point's events twice) with rebased span ids, so jobs=1 and jobs=N
    # traces are structurally identical.
    with _trace.capture(drain=True) as captured:
        with _trace.span("sweep.point", label=str(label)):
            try:
                relation = workload(label)
            except Exception as error:  # record, don't abort the sweep
                point.error = (
                    f"workload failed: {type(error).__name__}: {error}"
                )
            else:
                for name in algorithms:
                    point.executions.append(
                        framework.run(
                            name,
                            relation,
                            budget=resolve_budget(budget, name),
                            cache=cache,
                            cache_config=cache_config,
                            checkpoints=checkpoints,
                        )
                    )
                if check_agreement:
                    try:
                        verify_agreement(point.executions)
                    except MetadataDisagreement as error:
                        point.error = str(error)
    point.trace = captured.events
    return point


class ExperimentRunner:
    """Run algorithms over a workload sweep and collect the series."""

    def __init__(self, framework: Framework, algorithms: tuple[str, ...] | None = None):
        self.framework = framework
        self.algorithms = algorithms or framework.algorithms

    def sweep(
        self,
        points: list[object],
        workload: Callable[[object], Relation],
        check_agreement: bool = True,
        budget: Budget | Mapping[str, Budget] | None = None,
        journal: SweepJournal | None = None,
        resume: bool = True,
        jobs: int | None = None,
        framework_spec: "FrameworkSpec | None" = None,
        result_cache: "ResultCache | None" = None,
        cache_config: str | None = None,
        checkpoints: "CheckpointStore | None" = None,
        watchdog_grace: float | None = None,
    ) -> list[SweepPoint]:
        """Execute all algorithms at every sweep point, crash-safely.

        ``workload`` maps a point label (row count, column count, dataset
        name, ...) to the relation profiled at that point.

        Each algorithm runs in isolation: budget exhaustion and crashes
        are contained by :meth:`Framework.run` as TL/ML/ERR executions,
        and a metadata disagreement among the completed executions is
        recorded in ``point.error`` instead of aborting the sweep.  Only a
        crashing ``workload`` builder leaves a point without executions
        (also recorded, not raised).

        ``budget`` is one shared :class:`~repro.guard.Budget` or a
        per-algorithm mapping.  With a ``journal``, every finished point
        is checkpointed to JSONL immediately; when ``resume`` (default)
        and the journal already holds a point's record, the point is
        restored from disk instead of re-executed.

        ``jobs`` > 1 dispatches the unfinished points to a process pool
        (:mod:`repro.harness.parallel`): ``workload`` must then be a
        picklable :class:`~repro.harness.parallel.WorkloadSpec` and
        ``framework_spec`` describes how workers rebuild the framework
        (default: :func:`~repro.harness.framework.default_framework`).
        The parent stays the only journal writer — workers return
        serialized point records, which are journaled here the moment
        they complete, so resume semantics are unchanged; the returned
        list always follows the order of ``points`` regardless of
        completion order.  A dying worker is retried once and then
        recorded as that point's ``error`` (never raised).

        ``result_cache`` short-circuits already-profiled
        ``(fingerprint, algorithm, config)`` cells from disk in both
        modes (unbudgeted executions only; see :meth:`Framework.run`).

        ``checkpoints`` adds *intra-execution* durability on top of the
        journal's per-point durability: each execution snapshots its
        traversal state at level/phase boundaries
        (:class:`~repro.harness.checkpoint.CheckpointStore`), so a killed
        sweep loses at most the work since the last boundary of the
        execution it was in, not the whole point.

        ``watchdog_grace`` (parallel mode only; default
        ``$REPRO_WATCHDOG_GRACE``) arms a parent-side hung-worker
        watchdog: a pool worker whose heartbeat goes silent for that many
        seconds is killed and its point re-dispatched through the
        existing suspect-isolation retry; a point that hangs its worker
        again is recorded as a point-level error.

        Run inside :func:`~repro.harness.signals.graceful_shutdown` (as
        the CLI does), SIGTERM/SIGINT raises
        :class:`~repro.harness.signals.Interrupted` at a safe boundary —
        the journal keeps every finished point, the active execution's
        checkpoint survives, and the interrupted point is *not* journaled
        (it re-runs, resuming from its checkpoint).
        """
        if watchdog_grace is None:
            env_grace = os.environ.get("REPRO_WATCHDOG_GRACE")
            if env_grace:
                watchdog_grace = float(env_grace)
        finished = journal.load() if journal is not None and resume else {}
        restored: dict[str, SweepPoint] = {}
        pending: list[object] = []
        for label in points:
            point = finished.get(_label_key(label))
            if point is not None:
                restored[_label_key(label)] = point
            else:
                pending.append(label)

        if jobs is not None and jobs > 1 and pending:
            computed = self._sweep_parallel(
                pending,
                workload,
                check_agreement=check_agreement,
                budget=budget,
                journal=journal,
                jobs=jobs,
                framework_spec=framework_spec,
                result_cache=result_cache,
                cache_config=cache_config,
                checkpoints=checkpoints,
                watchdog_grace=watchdog_grace,
            )
        else:
            computed = {}
            for label in pending:
                point = run_point(
                    label,
                    workload,
                    self.framework,
                    self.algorithms,
                    budget=budget,
                    check_agreement=check_agreement,
                    cache=result_cache,
                    cache_config=cache_config,
                    checkpoints=checkpoints,
                )
                if journal is not None:
                    journal.append(point)
                computed[_label_key(label)] = point
        restored.update(computed)
        return [restored[_label_key(label)] for label in points]

    def _sweep_parallel(
        self,
        pending: list[object],
        workload: Callable[[object], Relation],
        check_agreement: bool,
        budget: Budget | Mapping[str, Budget] | None,
        journal: SweepJournal | None,
        jobs: int,
        framework_spec: "FrameworkSpec | None",
        result_cache: "ResultCache | None",
        cache_config: str | None,
        checkpoints: "CheckpointStore | None" = None,
        watchdog_grace: float | None = None,
    ) -> dict[str, SweepPoint]:
        """Dispatch unfinished points to worker processes; journal each
        serialized record as it completes (single writer, any order)."""
        from .parallel import (
            FrameworkSpec,
            PointTask,
            WorkloadSpec,
            run_sweep_points,
        )

        if not isinstance(workload, WorkloadSpec):
            raise TypeError(
                "a parallel sweep (jobs > 1) needs a picklable WorkloadSpec "
                "as its workload (module-level builder + parameters), got "
                f"{type(workload).__name__}; pass jobs=1 to keep an "
                "arbitrary callable"
            )
        tasks = [
            PointTask(
                label=label,
                workload=workload,
                algorithms=tuple(self.algorithms),
                framework=framework_spec or FrameworkSpec(),
                budget=budget,
                check_agreement=check_agreement,
                cache_root=str(result_cache.root) if result_cache else None,
                cache_config=cache_config,
                trace=_trace.ACTIVE is not None,
                checkpoint_root=str(checkpoints.root) if checkpoints else None,
            )
            for label in pending
        ]
        computed: dict[str, SweepPoint] = {}
        for label, record in run_sweep_points(
            tasks, jobs=jobs, watchdog_grace=watchdog_grace
        ):
            point = SweepPoint.from_record(record)
            if journal is not None:
                journal.append(point)
            # Workers executed in their own frameworks; mirror their
            # executions into the parent framework's log for reporting.
            self.framework.executions.extend(point.executions)
            computed[_label_key(label)] = point
        return computed

    @staticmethod
    def series(points: list[SweepPoint], algorithm: str) -> list[tuple[object, float]]:
        """Extract one algorithm's (x, seconds) series from a sweep."""
        return [(point.label, point.seconds(algorithm)) for point in points]


def sweep_table(
    points: Iterable[SweepPoint], algorithms: Iterable[str] | None = None
) -> str:
    """ASCII runtime table of a sweep, one row per point, one column per
    algorithm; non-completed executions render as their TL/ML/ERR marker
    and point-level failures as an ``error`` flag (Metanome-style cells)."""
    points = list(points)
    if algorithms is None:
        names: list[str] = []
        for point in points:
            for execution in point.executions:
                if execution.algorithm not in names:
                    names.append(execution.algorithm)
        algorithms = names
    algorithms = list(algorithms)
    rows = []
    for point in points:
        row = [str(point.label)]
        row += [point.cell(name) for name in algorithms]
        row.append("error" if point.error else "")
        rows.append(row)
    return ascii_table(["point", *algorithms, "status"], rows)
