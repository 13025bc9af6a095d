"""Deterministic fault-injection registry.

Real profiling runs fail: inputs truncate mid-read, caches hit memory
walls, algorithms crash on adversarial data.  The harness has to survive
all of that (Metanome records a failed cell and moves on), which means the
failure paths need tests — and failure paths are exactly the code that
never runs under healthy fixtures.  This module provides the injection
points: named *fault points* compiled into the substrate (CSV row reads,
PLI-cache insertions, profiler checkpoint steps) that are inert until a
test arms them.

Arming is deterministic: :meth:`FaultRegistry.arm` fires on the *N*-th hit
of a point (exactly once), :meth:`FaultRegistry.arm_seeded` draws per-hit
from a seeded :class:`random.Random` so probabilistic campaigns replay
bit-identically.  This module is import-order neutral (stdlib only) so
the lowest substrate layers can call :meth:`FaultRegistry.trip` without
creating an import cycle; :mod:`repro.harness` re-exports ``FAULTS`` and
``FaultInjected`` for harness users.

Two environment gates keep the dedicated suites out of the tier-1 run:
the fault-injection suite runs only when ``REPRO_FAULTS=1``
(:func:`fault_suite_enabled`) and the chaos campaign only when
``REPRO_CHAOS=1`` (:func:`chaos_suite_enabled`), each as its own CI step.

The fast path costs one attribute read: sites guard their trip call with
``if FAULTS.armed:`` and the registry keeps that flag in sync, so
production runs never pay for the machinery.
"""

from __future__ import annotations

import os
import random

__all__ = [
    "CSV_READ",
    "CACHE_PUT",
    "PROFILER_STEP",
    "SAMPLING_HARVEST",
    "CHECKPOINT_SAVE",
    "CHECKPOINT_LOAD",
    "RESULT_CACHE_GET",
    "RESULT_CACHE_PUT",
    "STORAGE_SPILL",
    "SCHEMA_LOAD",
    "INCREMENTAL_APPEND",
    "FAULT_POINTS",
    "FaultInjected",
    "FaultRegistry",
    "FAULTS",
    "chaos_suite_enabled",
    "fault_suite_enabled",
]

#: Fault point hit once per CSV data row decoded by ``read_csv``.
CSV_READ = "csv.read"
#: Fault point hit once per :meth:`repro.pli.cache.PliCache.put`.
CACHE_PUT = "cache.put"
#: Fault point hit at every cooperative :func:`repro.guard.checkpoint`
#: (the lattice loops of all profiling algorithms).
PROFILER_STEP = "profiler.step"
#: Fault point hit once per row selected by the sampling engine's
#: violation harvester (:func:`repro.sampling.harvester.focused_sample`).
SAMPLING_HARVEST = "sampling.harvest"
#: Fault point hit once per checkpoint-file write attempt
#: (:meth:`repro.harness.checkpoint.CheckpointSession.boundary`).
CHECKPOINT_SAVE = "checkpoint.save"
#: Fault point hit once per checkpoint-file read attempt
#: (:meth:`repro.harness.checkpoint.CheckpointSession.load`).
CHECKPOINT_LOAD = "checkpoint.load"
#: Fault point hit once per result-cache read attempt
#: (:meth:`repro.harness.result_cache.ResultCache.get`).
RESULT_CACHE_GET = "result_cache.get"
#: Fault point hit once per result-cache write attempt
#: (:meth:`repro.harness.result_cache.ResultCache.put`).
RESULT_CACHE_PUT = "result_cache.put"
#: Fault point hit once per spill-file chunk write in ``mmap`` storage
#: mode (:meth:`repro.relation.encoded.ColumnEncoder._flush`).
STORAGE_SPILL = "storage.spill"
#: Fault point hit once per table loaded by a schema sweep
#: (:meth:`repro.schema.job.SchemaJob.run`'s load phase).
SCHEMA_LOAD = "schema.load"
#: Fault point hit once per append batch folded into a shared index
#: (:meth:`repro.pli.store.PliStore.append_rows`), *before* any state is
#: mutated — a trip leaves the relation and its PLIs untouched.
INCREMENTAL_APPEND = "incremental.append"

#: Every fault point compiled into the substrate.
FAULT_POINTS = (
    CSV_READ,
    CACHE_PUT,
    PROFILER_STEP,
    SAMPLING_HARVEST,
    CHECKPOINT_SAVE,
    CHECKPOINT_LOAD,
    RESULT_CACHE_GET,
    RESULT_CACHE_PUT,
    STORAGE_SPILL,
    SCHEMA_LOAD,
    INCREMENTAL_APPEND,
)


class FaultInjected(RuntimeError):
    """Raised when an armed fault point fires."""

    def __init__(self, point: str, hit: int):
        super().__init__(f"injected fault at {point!r} (hit #{hit})")
        self.point = point
        self.hit = hit


class _ArmedFault:
    """One armed fault point: a hit counter plus a firing rule."""

    __slots__ = ("point", "at", "rng", "probability", "hits", "fired")

    def __init__(
        self,
        point: str,
        at: int | None,
        probability: float | None,
        seed: int,
    ):
        self.point = point
        self.at = at
        self.probability = probability
        self.rng = random.Random(seed)
        self.hits = 0
        self.fired = 0

    def hit(self) -> None:
        self.hits += 1
        if self.at is not None:
            if self.hits == self.at:
                self.fired += 1
                raise FaultInjected(self.point, self.hits)
            return
        assert self.probability is not None
        if self.rng.random() < self.probability:
            self.fired += 1
            raise FaultInjected(self.point, self.hits)


class FaultRegistry:
    """Registry of armed fault points.

    ``armed`` is a plain attribute (not a property) kept in sync by
    :meth:`arm`/:meth:`disarm` so instrumented hot paths can branch on it
    with a single attribute read.
    """

    def __init__(self) -> None:
        self._armed: dict[str, _ArmedFault] = {}
        self.armed = False

    # -- arming -----------------------------------------------------------

    def arm(self, point: str, at: int = 1) -> None:
        """Arm ``point`` to fire exactly once, on its ``at``-th hit."""
        self._validate(point)
        if at < 1:
            raise ValueError(f"at must be >= 1, got {at}")
        self._armed[point] = _ArmedFault(point, at=at, probability=None, seed=0)
        self.armed = True

    def arm_seeded(self, point: str, probability: float, seed: int = 0) -> None:
        """Arm ``point`` to fire on each hit with ``probability``, drawn
        from a :class:`random.Random` seeded with ``seed`` (replayable)."""
        self._validate(point)
        if not 0.0 < probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {probability}")
        self._armed[point] = _ArmedFault(
            point, at=None, probability=probability, seed=seed
        )
        self.armed = True

    def disarm(self, point: str | None = None) -> None:
        """Disarm one point (or, with ``None``, every point)."""
        if point is None:
            self._armed.clear()
        else:
            self._armed.pop(point, None)
        self.armed = bool(self._armed)

    # -- instrumentation side ---------------------------------------------

    def trip(self, point: str) -> None:
        """Hit ``point``: raises :class:`FaultInjected` when its armed rule
        fires, otherwise a counted no-op.  Unarmed points are free."""
        fault = self._armed.get(point)
        if fault is not None:
            fault.hit()

    # -- introspection -----------------------------------------------------

    def hits(self, point: str) -> int:
        """Hits recorded at ``point`` since it was armed (0 when unarmed)."""
        fault = self._armed.get(point)
        return fault.hits if fault is not None else 0

    def fired(self, point: str) -> int:
        """Times ``point`` actually raised since it was armed."""
        fault = self._armed.get(point)
        return fault.fired if fault is not None else 0

    @staticmethod
    def _validate(point: str) -> None:
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; registered: {FAULT_POINTS}"
            )

    def __repr__(self) -> str:
        return f"FaultRegistry(armed={sorted(self._armed)})"


#: The process-wide registry every instrumented site trips against.
FAULTS = FaultRegistry()


def fault_suite_enabled() -> bool:
    """True when the dedicated fault-injection suite should run
    (``REPRO_FAULTS=1`` in the environment)."""
    return os.environ.get("REPRO_FAULTS") == "1"


def chaos_suite_enabled() -> bool:
    """True when the chaos campaign should run (``REPRO_CHAOS=1``)."""
    return os.environ.get("REPRO_CHAOS") == "1"
