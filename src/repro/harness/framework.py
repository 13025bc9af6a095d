"""Metanome-like execution framework (§6).

The paper runs every algorithm inside the Metanome data-profiling
framework, which standardizes input handling, execution, and result
collection so that algorithm comparisons are fair.  This module is the
equivalent substrate: profilers are registered under a name, executed
against relations through one code path with wall-clock measurement, and
their results and metrics are collected uniformly.

Each execution additionally snapshots the PLI kernel counters
(:data:`repro.pli.pli.KERNEL_STATS`) around the run, so reports can show
per-algorithm substrate activity — intersections performed, probe vectors
built vs. reused — next to the phase timings (Fig. 8-style breakdowns).

Failure is part of the contract (the reason the paper needs Metanome at
all): :meth:`Framework.run` accepts a :class:`~repro.guard.Budget` and
*contains* whatever goes wrong inside the profiler.  A budgeted run that
hits its wall-clock/work limit is recorded with ``status="timeout"``, a
memory-limited one with ``status="memory"`` — both keep the partial
results the algorithm attached while unwinding — and a crash is recorded
with ``status="error"``.  Reports render these as Metanome's TL/ML/ERR
cells (:attr:`Execution.marker`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Protocol

from .. import trace as _trace
from ..checkpointing import active_session
from ..core.baseline import BaselineProfiler
from ..core.holistic_fun import HolisticFun
from ..core.muds import Muds
from ..guard import Budget, BudgetExceeded, guarded
from .checkpoint import CheckpointStore
from .signals import Interrupted
from ..metadata.results import ProfilingResult, fd_signature, ucc_signature
from ..metadata.serialize import result_from_dict, result_to_dict
from ..pli import backend as _backend
from ..pli.pli import KERNEL_STATS
from ..relation.relation import Relation
from .result_cache import ResultCache

__all__ = [
    "Profiler",
    "Execution",
    "Framework",
    "MetadataDisagreement",
    "STATUS_MARKERS",
    "default_framework",
    "verify_agreement",
]

#: Report markers per execution status — Metanome's table-cell notation:
#: TL = time limit (deadline or work budget), ML = memory limit,
#: ERR = crash.  ``"ok"`` renders as no marker.
STATUS_MARKERS = {
    "ok": "",
    "timeout": "TL",
    "memory": "ML",
    "error": "ERR",
    "interrupted": "INT",
}


class Profiler(Protocol):
    """Anything that can profile a relation (MUDS, Holistic FUN, ...)."""

    def profile(self, relation: Relation) -> ProfilingResult: ...


@dataclass(slots=True)
class Execution:
    """One algorithm execution with its measurements.

    ``status`` is ``"ok"`` for a completed run, ``"timeout"``/``"memory"``
    for a budgeted run stopped by its :class:`~repro.guard.Budget` (the
    ``result`` then holds the partial metadata discovered before the stop)
    and ``"error"`` for a contained crash (empty ``result``); ``error``
    carries the human-readable cause for every non-ok status.
    """

    algorithm: str
    dataset: str
    n_columns: int
    n_rows: int
    seconds: float
    result: ProfilingResult
    #: True for single-task FD algorithms (TANE) that report no INDs/UCCs.
    fd_only: bool = False
    #: PLI kernel activity during this execution (counter deltas).
    kernel: dict[str, int] = field(default_factory=dict)
    #: Outcome: ``ok`` | ``timeout`` | ``memory`` | ``error``.
    status: str = "ok"
    #: Failure cause for non-ok statuses (``None`` when ok).
    error: str | None = None
    #: True when this execution was served from a :class:`ResultCache`
    #: instead of being computed; ``seconds`` then reports the *original*
    #: compute time, not the (near-zero) lookup time.
    cached: bool = False
    #: True when this execution continued from an intra-execution
    #: checkpoint instead of starting fresh (``seconds`` then covers only
    #: the resumed portion; the discovered metadata is bit-identical to an
    #: undisturbed run's).
    resumed: bool = False

    @property
    def counts(self) -> tuple[int, int, int]:
        """(#INDs, #UCCs, #FDs) of this execution."""
        return len(self.result.inds), len(self.result.uccs), len(self.result.fds)

    @property
    def ok(self) -> bool:
        """True iff the execution completed within its budget."""
        return self.status == "ok"

    @property
    def marker(self) -> str:
        """Report marker: ``""`` (ok), ``TL``, ``ML``, or ``ERR``."""
        return STATUS_MARKERS.get(self.status, "ERR")

    # -- journal (de)serialization ----------------------------------------

    def to_record(self) -> dict[str, Any]:
        """JSON-ready form for the sweep journal (lossless round-trip).

        ``resumed`` rides along only when set, so pre-checkpoint journals
        keep their wire format byte for byte."""
        record = {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "n_columns": self.n_columns,
            "n_rows": self.n_rows,
            "seconds": self.seconds,
            "fd_only": self.fd_only,
            "kernel": dict(self.kernel),
            "status": self.status,
            "error": self.error,
            "cached": self.cached,
            "result": result_to_dict(self.result),
        }
        if self.resumed:
            record["resumed"] = True
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "Execution":
        """Rebuild an execution from its journal record."""
        return cls(
            algorithm=record["algorithm"],
            dataset=record["dataset"],
            n_columns=record["n_columns"],
            n_rows=record["n_rows"],
            seconds=record["seconds"],
            result=result_from_dict(record["result"]),
            fd_only=record.get("fd_only", False),
            kernel=dict(record.get("kernel", {})),
            status=record.get("status", "ok"),
            error=record.get("error"),
            cached=record.get("cached", False),
            resumed=record.get("resumed", False),
        )


class MetadataDisagreement(AssertionError):
    """Two executions disagree on the discovered metadata.

    The message lists the symmetric difference of their FD/UCC/IND sets
    (capped per direction) so a failing cross-validation run shows *what*
    diverged, not just that something did.  Subclasses
    :class:`AssertionError` for compatibility with callers that treated
    the agreement check as an assertion.
    """

    #: Max entries listed per direction before eliding with "... and N more".
    MAX_LISTED = 12

    def __init__(self, reference: Execution, other: Execution, fds_only: bool):
        self.reference = reference
        self.other = other
        lines = [
            f"{reference.algorithm} and {other.algorithm} disagree "
            f"on {reference.dataset}:"
        ]
        lines += self._diff_lines(
            "FDs",
            {self._fd_str(s) for s in fd_signature(reference.result.fds)},
            {self._fd_str(s) for s in fd_signature(other.result.fds)},
            reference.algorithm,
            other.algorithm,
        )
        if not fds_only:
            lines += self._diff_lines(
                "UCCs",
                {"{" + ", ".join(sorted(s)) + "}"
                 for s in ucc_signature(reference.result.uccs)},
                {"{" + ", ".join(sorted(s)) + "}"
                 for s in ucc_signature(other.result.uccs)},
                reference.algorithm,
                other.algorithm,
            )
            lines += self._diff_lines(
                "INDs",
                {str(ind) for ind in reference.result.inds},
                {str(ind) for ind in other.result.inds},
                reference.algorithm,
                other.algorithm,
            )
        super().__init__("\n".join(lines))

    @staticmethod
    def _fd_str(signature: tuple[frozenset[str], str]) -> str:
        lhs, rhs = signature
        return "{" + ", ".join(sorted(lhs)) + "} -> " + rhs

    @classmethod
    def _diff_lines(
        cls,
        kind: str,
        reference: set[str],
        other: set[str],
        reference_name: str,
        other_name: str,
    ) -> list[str]:
        lines = []
        for label, extra in (
            (reference_name, sorted(reference - other)),
            (other_name, sorted(other - reference)),
        ):
            if not extra:
                continue
            shown = "; ".join(extra[: cls.MAX_LISTED])
            if len(extra) > cls.MAX_LISTED:
                shown += f"; ... and {len(extra) - cls.MAX_LISTED} more"
            lines.append(f"  {kind} only in {label} ({len(extra)}): {shown}")
        return lines


def verify_agreement(executions: Iterable[Execution]) -> None:
    """Check that all *completed* executions agree on the metadata.

    Non-ok executions (TL/ML/ERR cells) are skipped — a partial result
    legitimately differs.  FD-only executions are compared on FDs alone.
    Raises :class:`MetadataDisagreement` on the first mismatch.
    """
    completed = [e for e in executions if e.ok]
    full = [e for e in completed if not e.fd_only]
    reference = full[0] if full else (completed[0] if completed else None)
    if reference is None:
        return
    for execution in completed:
        if execution is reference:
            continue
        fds_only = execution.fd_only or not full
        if fds_only:
            agree = fd_signature(reference.result.fds) == fd_signature(
                execution.result.fds
            )
        else:
            agree = reference.result.same_metadata(execution.result)
        if not agree:
            raise MetadataDisagreement(reference, execution, fds_only)


class Framework:
    """Algorithm registry plus a uniform, timed, failure-containing
    execution path."""

    def __init__(self) -> None:
        self._profilers: dict[str, Callable[[], Profiler]] = {}
        self._fd_only: set[str] = set()
        self.executions: list[Execution] = []

    def register(
        self, name: str, factory: Callable[[], Profiler], fd_only: bool = False
    ) -> None:
        """Register a profiler factory (a fresh instance per execution, so
        runs never share warm state).  ``fd_only`` marks single-task FD
        algorithms (TANE) that cannot be compared on INDs/UCCs."""
        if name in self._profilers:
            raise ValueError(f"algorithm {name!r} already registered")
        self._profilers[name] = factory
        if fd_only:
            self._fd_only.add(name)

    @property
    def algorithms(self) -> tuple[str, ...]:
        """Registered algorithm names."""
        return tuple(self._profilers)

    def run(
        self,
        name: str,
        relation: Relation,
        budget: Budget | None = None,
        cache: "ResultCache | None" = None,
        cache_config: Mapping[str, Any] | str | None = None,
        checkpoints: CheckpointStore | None = None,
        resume: bool = True,
    ) -> Execution:
        """Execute one registered algorithm on one relation.

        With a ``budget``, the profiler runs under the cooperative guard
        (:func:`repro.guard.guarded`): blowing the deadline / work budget
        yields ``status="timeout"``, the memory estimate ``"memory"`` —
        both keep the partial results the algorithm attached on the way
        out.  Profiler crashes (any :class:`Exception`, including injected
        faults) are contained as ``status="error"`` with an empty result;
        a raw :class:`MemoryError` is classified as ``"memory"``.  The
        framework itself never raises for an algorithm failure — that is
        the point: one exploding contender must not take the comparison
        run down (Metanome's TL/ML/ERR cells).

        With a ``cache``, the relation's content fingerprint keys a lookup
        before anything runs: a hit returns the stored execution (marked
        :attr:`Execution.cached`, keeping the original compute ``seconds``)
        and a completed run is stored back.  Budgeted runs bypass the
        cache entirely — a TL/ML cell is a property of the budget, not of
        the input, and a caller imposing limits expects the work to be
        bounded, not skipped.  ``cache_config`` must carry whatever else
        (seed, variant flags) can change this algorithm's output.

        With ``checkpoints``, the execution runs under an intra-execution
        checkpoint session keyed by (relation fingerprint, algorithm,
        ``cache_config``): the profiler snapshots its traversal state at
        level/phase boundaries, and when ``resume`` (default) finds a
        snapshot from an earlier killed or budget-stopped run, the
        execution continues from the last completed boundary with
        bit-identical final results (:attr:`Execution.resumed` is set).
        A completed (``ok``) execution deletes its checkpoint; TL/ML/ERR
        and interrupted executions keep it for the next attempt.  A
        SIGTERM/SIGINT delivered under :func:`~repro.harness.signals.graceful_shutdown`
        is recorded as a ``status="interrupted"`` execution and re-raised
        so the caller can exit cleanly.
        """
        try:
            factory = self._profilers[name]
        except KeyError:
            raise KeyError(
                f"unknown algorithm {name!r}; registered: {self.algorithms}"
            ) from None
        if cache is not None and budget is None:
            fingerprint = relation.fingerprint()
            payload = cache.get(fingerprint, name, cache_config)
            if payload is not None:
                try:
                    execution = Execution.from_record(payload)
                except (KeyError, TypeError, ValueError):
                    execution = None  # stale/corrupt entry: recompute
                if execution is not None and execution.ok:
                    execution.cached = True
                    # A served run performs no algorithm work, so it must
                    # not fabricate algorithm spans — per-phase tables
                    # would show zero-cost runs.  A cache.hit event keeps
                    # the trace honest about what happened instead.
                    tracer = _trace.ACTIVE
                    if tracer is not None:
                        tracer.event(
                            "cache.hit",
                            algorithm=name,
                            dataset=relation.name,
                            fingerprint=fingerprint[:12],
                        )
                    self.executions.append(execution)
                    return execution
        profiler = factory()
        status, error_message = "ok", None
        session = None
        if checkpoints is not None:
            session = checkpoints.session(
                relation.fingerprint(), name, cache_config
            )
            if resume:
                session.load()
            else:
                session.discard()
        kernel_before = KERNEL_STATS.snapshot()
        tracer = _trace.ACTIVE
        run_span = (
            tracer.span(
                "run",
                algorithm=name,
                dataset=relation.name,
                columns=relation.n_columns,
                rows=relation.n_rows,
                pli_backend=_backend.ACTIVE.name,
            )
            if tracer is not None
            else _trace.NULL_SPAN
        )
        interrupt: Interrupted | None = None
        with run_span:
            started = time.perf_counter()
            try:
                with guarded(budget), active_session(session):
                    result = profiler.profile(relation)
            except BudgetExceeded as error:
                status = error.reason
                error_message = str(error)
                partial = error.partial_result
                result = (
                    partial
                    if isinstance(partial, ProfilingResult)
                    else _empty_result(relation)
                )
            except Interrupted as error:
                # Graceful shutdown: record the interruption (the active
                # checkpoint survives for the next attempt) and re-raise —
                # unlike a budget stop, the *caller* asked to wind down.
                status = "interrupted"
                error_message = str(error)
                result = _empty_result(relation)
                interrupt = error
            except MemoryError:
                status = "memory"
                error_message = "MemoryError"
                result = _empty_result(relation)
            except Exception as error:  # crash containment, by design
                status = "error"
                error_message = f"{type(error).__name__}: {error}"
                result = _empty_result(relation)
            seconds = time.perf_counter() - started
            run_span.set(status=status)
        execution = Execution(
            algorithm=name,
            dataset=relation.name,
            n_columns=relation.n_columns,
            n_rows=relation.n_rows,
            seconds=seconds,
            result=result,
            fd_only=name in self._fd_only,
            kernel=KERNEL_STATS.delta(kernel_before),
            status=status,
            error=error_message,
            resumed=session.restored if session is not None else False,
        )
        if session is not None and execution.ok:
            # Only a completed run retires its checkpoint; TL/ML/ERR and
            # interrupted runs keep the file so the next attempt resumes.
            session.complete()
        if cache is not None and budget is None and execution.ok:
            try:
                cache.put(
                    relation.fingerprint(),
                    name,
                    execution.to_record(),
                    cache_config,
                )
            except OSError as error:
                # A broken result cache must not fail a completed run.
                _trace.event(
                    "cache.put_failed",
                    algorithm=name,
                    dataset=relation.name,
                    error=f"{type(error).__name__}: {error}",
                )
        self.executions.append(execution)
        if interrupt is not None:
            raise interrupt
        return execution

    def run_all(
        self,
        relation: Relation,
        names: tuple[str, ...] | None = None,
        check_agreement: bool = True,
        budget: Budget | Mapping[str, Budget] | None = None,
    ) -> list[Execution]:
        """Execute several (default: all) registered algorithms on one
        relation; with ``check_agreement`` (default) verify the completed
        executions agree on the discovered metadata (FDs only for
        ``fd_only`` algorithms).  ``budget`` is one shared
        :class:`~repro.guard.Budget` or a per-algorithm mapping (missing
        names run unbudgeted)."""
        executions = [
            self.run(name, relation, budget=resolve_budget(budget, name))
            for name in (names or self.algorithms)
        ]
        if check_agreement:
            verify_agreement(executions)
        return executions


def resolve_budget(
    budget: Budget | Mapping[str, Budget] | None, algorithm: str
) -> Budget | None:
    """Resolve a shared-or-per-algorithm budget spec for one algorithm."""
    if budget is None or isinstance(budget, Budget):
        return budget
    return budget.get(algorithm)


def _empty_result(relation: Relation) -> ProfilingResult:
    """The empty result recorded for executions that produced nothing."""
    return ProfilingResult.from_masks(
        relation_name=relation.name, column_names=relation.column_names
    )


def default_framework(seed: int = 0, faithful_muds: bool = True) -> Framework:
    """Framework with the paper's four contenders registered.

    ``faithful_muds`` selects the as-published MUDS configuration
    (``verify_completeness=False``) used for benchmark comparisons; pass
    ``False`` to benchmark the exactness-certifying default instead.
    """
    from ..algorithms.tane import TaneResult, tane
    from ..pli.store import PliStore

    class _TaneProfiler:
        """TANE wrapped as a (FD-only) profiler for Table 3 comparisons."""

        def __init__(self) -> None:
            self.store = PliStore()

        def profile(self, relation: Relation) -> ProfilingResult:
            index = self.store.index_for(relation)
            try:
                result = tane(index)
            except BudgetExceeded as error:
                if error.partial_result is None and isinstance(
                    error.partial, TaneResult
                ):
                    error.partial_result = self._to_result(
                        relation, error.partial
                    )
                raise
            return self._to_result(relation, result)

        @staticmethod
        def _to_result(relation: Relation, result: "TaneResult") -> ProfilingResult:
            return ProfilingResult.from_masks(
                relation_name=relation.name,
                column_names=relation.column_names,
                ucc_masks=result.minimal_keys,
                fd_pairs=result.fds,
                counters={
                    "fd_checks": result.fd_checks,
                    "pli_intersections": result.intersections,
                },
            )

    framework = Framework()
    framework.register("baseline", lambda: BaselineProfiler(seed=seed))
    framework.register("hfun", HolisticFun)
    framework.register(
        "muds", lambda: Muds(seed=seed, verify_completeness=not faithful_muds)
    )
    framework.register("tane", lambda: _TaneProfiler(), fd_only=True)
    return framework
