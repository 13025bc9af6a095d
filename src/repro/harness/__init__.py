"""Metanome-like execution framework, experiment runner, and reporting."""

# The guard, fault registry and tracer live in import-order-neutral
# leaf modules (``repro.guard``, ``repro.faults``, ``repro.trace``) so the
# substrate can use them without importing the harness; their harness
# names are re-exported here.  The guard's cooperative tick *function*
# ``checkpoint`` is deliberately not: ``repro.harness.checkpoint`` names
# the submodule (use ``repro.guard.checkpoint`` for the function).
from ..faults import (
    FAULTS,
    FaultInjected,
    chaos_suite_enabled,
    fault_suite_enabled,
)
from ..guard import Budget, BudgetExceeded, guarded
from ..trace import Tracer, trace_summary
from . import checkpoint  # noqa: F401  (binds the submodule name)
from .checkpoint import CheckpointSession, CheckpointStore, SimulatedCrash
from .framework import (
    STATUS_MARKERS,
    Execution,
    Framework,
    MetadataDisagreement,
    Profiler,
    default_framework,
    verify_agreement,
)
from .parallel import FrameworkSpec, WorkloadSpec, default_jobs
from .profile_report import render_profile_report, render_trace_table
from .reporting import ascii_table, markdown_table, series_block
from .result_cache import DEFAULT_CACHE_DIR, ResultCache
from .retry import RetryPolicy
from .runner import ExperimentRunner, SweepJournal, SweepPoint, sweep_table
from .signals import EXIT_INTERRUPTED, Interrupted, graceful_shutdown
from .watchdog import Watchdog

__all__ = [
    "Budget",
    "BudgetExceeded",
    "CheckpointSession",
    "CheckpointStore",
    "DEFAULT_CACHE_DIR",
    "EXIT_INTERRUPTED",
    "Execution",
    "ExperimentRunner",
    "FAULTS",
    "FaultInjected",
    "Framework",
    "FrameworkSpec",
    "Interrupted",
    "MetadataDisagreement",
    "Profiler",
    "ResultCache",
    "RetryPolicy",
    "STATUS_MARKERS",
    "SimulatedCrash",
    "SweepJournal",
    "SweepPoint",
    "Tracer",
    "Watchdog",
    "WorkloadSpec",
    "ascii_table",
    "chaos_suite_enabled",
    "default_framework",
    "default_jobs",
    "fault_suite_enabled",
    "graceful_shutdown",
    "guarded",
    "markdown_table",
    "render_profile_report",
    "render_trace_table",
    "series_block",
    "sweep_table",
    "trace_summary",
    "verify_agreement",
]
