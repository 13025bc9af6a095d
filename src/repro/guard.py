"""Cooperative execution guards: budgets, deadlines, checkpoints.

FD/UCC discovery has exponential worst cases that are inherent to the
problem, not implementation bugs (Bläsius et al., *The Complexity of
Dependency Detection and Discovery in Relational Databases*); the paper's
evaluation therefore runs every contender under Metanome's time and memory
limits and reports TL/ML cells when a run blows through them.  This module
is that guard layer: a :class:`Budget` bounds one execution by wall-clock
deadline, by PLI-intersection count (the dominant unit of work), and by
estimated cluster memory, and the algorithms *cooperate* by calling
:func:`checkpoint` from their lattice loops.

The enforcement points are the shared substrate hooks: every
:meth:`repro.pli.pli.PLI.intersect` charges the active budget with the
clustered rows it materialized, and :class:`repro.pli.index.RelationIndex`
checkpoints on each PLI/FD/uniqueness request, so even algorithm code that
never imports this module is still interruptible.  Exceeding a budget
raises :class:`BudgetExceeded`; algorithms catch it to attach whatever
they had already discovered (``partial`` / ``partial_result``) and
re-raise, which is how the harness records graceful-degradation cells
instead of losing the run.

Like :mod:`repro.faults` this module is import-order neutral (stdlib
only) so the lowest layers can use it; :mod:`repro.harness` re-exports
``Budget``, ``BudgetExceeded`` and ``guarded`` for harness users.  The
guard is process-global and single-threaded, matching the kernel's
:data:`~repro.pli.pli.KERNEL_STATS`.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Iterator

from . import liveness as _liveness
from .faults import FAULTS, PROFILER_STEP

__all__ = [
    "Budget",
    "BudgetExceeded",
    "ESTIMATED_BYTES_PER_CLUSTERED_ROW",
    "active_budget",
    "checkpoint",
    "guarded",
]

#: Estimated cost of one row id held in a PLI cluster: the dense width
#: (an int64 row id) the encoded substrate feeds the kernel.  The memory
#: budget is an *estimate* by design: it bounds the clustered rows
#: materialized by intersections, the only quantity that grows without
#: bound on adversarial inputs.
ESTIMATED_BYTES_PER_CLUSTERED_ROW = 8


class BudgetExceeded(RuntimeError):
    """An execution ran over its :class:`Budget`.

    ``reason`` is ``"timeout"`` (wall-clock deadline or intersection
    budget — both are work limits, Metanome's TL) or ``"memory"``
    (estimated cluster memory, Metanome's ML).  While the exception
    unwinds, algorithms may attach ``partial`` (their own result type with
    everything discovered so far) and profilers ``partial_result`` (a
    :class:`~repro.metadata.results.ProfilingResult`); the harness records
    those as the execution's graceful-degradation output.
    """

    def __init__(self, reason: str, message: str, budget: "Budget | None" = None):
        super().__init__(message)
        self.reason = reason
        self.budget = budget
        self.partial: object | None = None
        self.partial_result: object | None = None

    def __reduce__(self):
        # Default exception pickling replays __init__ with ``args`` alone,
        # which does not match this signature; rebuild explicitly so the
        # exception (with its attached partials) can cross the worker
        # process boundary of a parallel sweep.
        return (
            type(self),
            (self.reason, self.args[0] if self.args else "", self.budget),
            {"partial": self.partial, "partial_result": self.partial_result},
        )


class Budget:
    """Resource bounds for one profiling execution.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock limit, measured from :meth:`start`.
    max_intersections:
        Limit on PLI intersections performed (the unit of lattice work).
    max_cluster_bytes:
        Limit on estimated cluster memory materialized by intersections
        (cumulative clustered rows × :data:`ESTIMATED_BYTES_PER_CLUSTERED_ROW`
        — a proxy for the cache-resident partition footprint).
    checkpoint_stride:
        A cooperative :meth:`checkpoint` reads the clock only every
        ``stride``-th call, keeping the per-iteration cost of guarded
        loops to two integer operations.  Intersections always check.
    bytes_per_clustered_row:
        Estimated memory per clustered row id used by the cluster-memory
        accounting.  ``None`` (the default) means
        :data:`ESTIMATED_BYTES_PER_CLUSTERED_ROW`, the same 8 B under
        both storage modes.

    A budget is re-armed by :meth:`start` (which :func:`guarded` calls),
    so one instance can be reused across executions; ``intersections``,
    ``cluster_bytes``, and ``elapsed_seconds`` then describe the most
    recent run.
    """

    __slots__ = (
        "deadline_seconds",
        "max_intersections",
        "max_cluster_bytes",
        "checkpoint_stride",
        "intersections",
        "cluster_bytes",
        "bytes_per_clustered_row",
        "_configured_bytes_per_row",
        "_started_at",
        "_deadline_at",
        "_ticks",
    )

    def __init__(
        self,
        deadline_seconds: float | None = None,
        max_intersections: int | None = None,
        max_cluster_bytes: int | None = None,
        checkpoint_stride: int = 64,
        bytes_per_clustered_row: int | None = None,
    ):
        for name, value in (
            ("deadline_seconds", deadline_seconds),
            ("max_intersections", max_intersections),
            ("max_cluster_bytes", max_cluster_bytes),
        ):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if checkpoint_stride < 1:
            raise ValueError(f"checkpoint_stride must be >= 1, got {checkpoint_stride}")
        if bytes_per_clustered_row is not None and bytes_per_clustered_row < 1:
            raise ValueError(
                f"bytes_per_clustered_row must be positive, got "
                f"{bytes_per_clustered_row}"
            )
        self._configured_bytes_per_row = bytes_per_clustered_row
        self.deadline_seconds = deadline_seconds
        self.max_intersections = max_intersections
        self.max_cluster_bytes = max_cluster_bytes
        self.checkpoint_stride = checkpoint_stride
        self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """(Re-)arm the budget: zero the counters, anchor the deadline."""
        self.intersections = 0
        self.cluster_bytes = 0
        self.bytes_per_clustered_row = (
            self._configured_bytes_per_row or ESTIMATED_BYTES_PER_CLUSTERED_ROW
        )
        self._ticks = 0
        self._started_at = time.perf_counter()
        self._deadline_at = (
            self._started_at + self.deadline_seconds
            if self.deadline_seconds is not None
            else math.inf
        )

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since the last :meth:`start`."""
        return time.perf_counter() - self._started_at

    @property
    def remaining_seconds(self) -> float | None:
        """Seconds left before the deadline (``None`` without one).

        May be negative once the deadline has passed but no checkpoint
        has fired yet.  Optional work — e.g. the sampling engine's
        violation harvest — consults this to skip itself when the budget
        is nearly exhausted, so an optimization never converts an ``ok``
        run into a ``timeout``.
        """
        if self.deadline_seconds is None:
            return None
        return self._deadline_at - time.perf_counter()

    # -- enforcement -------------------------------------------------------

    def checkpoint(self) -> None:
        """Cooperative deadline check; cheap enough for inner loops."""
        self._ticks += 1
        if self._ticks >= self.checkpoint_stride:
            self._ticks = 0
            self._check_deadline()

    def charge_intersection(self, clustered_rows: int) -> None:
        """Account one PLI intersection that materialized
        ``clustered_rows`` cluster entries; called by the kernel."""
        self.intersections += 1
        if (
            self.max_intersections is not None
            and self.intersections > self.max_intersections
        ):
            raise BudgetExceeded(
                "timeout",
                f"PLI intersection budget of {self.max_intersections} "
                f"exhausted after {self.elapsed_seconds:.3f}s",
                self,
            )
        self.cluster_bytes += clustered_rows * self.bytes_per_clustered_row
        if (
            self.max_cluster_bytes is not None
            and self.cluster_bytes > self.max_cluster_bytes
        ):
            raise BudgetExceeded(
                "memory",
                f"estimated cluster memory {self.cluster_bytes} B exceeds "
                f"budget of {self.max_cluster_bytes} B",
                self,
            )
        self._check_deadline()

    def _check_deadline(self) -> None:
        if time.perf_counter() >= self._deadline_at:
            raise BudgetExceeded(
                "timeout",
                f"wall-clock deadline of {self.deadline_seconds}s exceeded "
                f"after {self.elapsed_seconds:.3f}s",
                self,
            )

    def __repr__(self) -> str:
        limits = []
        if self.deadline_seconds is not None:
            limits.append(f"deadline={self.deadline_seconds}s")
        if self.max_intersections is not None:
            limits.append(f"max_intersections={self.max_intersections}")
        if self.max_cluster_bytes is not None:
            limits.append(f"max_cluster_bytes={self.max_cluster_bytes}")
        return f"Budget({', '.join(limits) or 'unbounded'})"


#: The currently guarded execution's budget (``None`` outside
#: :func:`guarded`).  Read directly by the kernel hot path.
ACTIVE: Budget | None = None


def active_budget() -> Budget | None:
    """The budget guarding the current execution, if any."""
    return ACTIVE


def checkpoint() -> None:
    """Cooperative guard point for algorithm loops.

    No-op (three global reads) when no budget is active, no fault is
    armed, and no heartbeat is armed; otherwise enforces the active
    budget's deadline, trips the :data:`~repro.faults.PROFILER_STEP`
    fault point, and refreshes the worker liveness heartbeat.
    """
    budget = ACTIVE
    if budget is not None:
        budget.checkpoint()
    if FAULTS.armed:
        FAULTS.trip(PROFILER_STEP)
    heartbeat = _liveness.ACTIVE
    if heartbeat is not None:
        heartbeat.beat()


@contextmanager
def guarded(budget: Budget | None) -> Iterator[Budget | None]:
    """Install ``budget`` as the active guard for the enclosed execution.

    Re-arms the budget on entry and restores the previously active guard
    on exit (guards nest; the innermost wins, matching scoped
    :class:`~repro.pli.store.PliStore` usage).  ``None`` is a no-op so
    callers need not special-case unbudgeted runs.
    """
    global ACTIVE
    if budget is None:
        yield None
        return
    previous = ACTIVE
    budget.start()
    ACTIVE = budget
    try:
        yield budget
    finally:
        ACTIVE = previous
