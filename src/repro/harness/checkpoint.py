"""Intra-execution checkpoint/restart for the lattice traversals.

A shared holistic run is a single point of failure: the paper's win is
that TANE/FUN/DUCC/SPIDER/MUDS reuse one PLI substrate, but that also
means a crash, hang, or budget stop throws away the *whole* traversal,
and sweep-level resume (PR 2/3) can only re-run the point from scratch.
This module makes the executions themselves restartable: each algorithm
snapshots its traversal state at natural boundaries — TANE/FUN after each
lattice level, DUCC/MUDS after each seed walk and hole round, SPIDER
every ``merge_stride`` merge steps, the profilers at phase edges — into a
versioned, fsynced, atomically-replaced checkpoint file keyed by relation
fingerprint + algorithm + config key.  A killed or budget-stopped run
resumes from the last completed boundary with **bit-identical** final
results.

Why bit-identical is achievable: a boundary captures everything the
traversal's future depends on — the frontier / pending seed queues, the
discovered metadata so far, the RNG state (:mod:`random` state round-trips
through JSON exactly), memo caches, and the algorithm-level counters.  A
kill loses only the in-flight level/walk, and the resume replays that
portion in full from the identical restored state, so both the discovered
metadata and the counter totals for the resumed portion match an
undisturbed run.  The kill-at-every-boundary matrix in
``tests/harness/test_checkpoint.py`` enforces this differentially.

Nested traversal state is composed with a *context-provider stack*: a
profiler (MUDS, HolisticFun, baseline) registers a provider for its own
phase progress, and every boundary saved by an inner algorithm (a FUN
level, a DUCC walk) embeds the providers' current states alongside its
own, so one file always holds a complete, consistent snapshot.  Each
envelope contains *only* the currently active contexts plus the leaf
stage — stale stages from earlier phases never linger.

Checkpoint files are written and read through :mod:`repro.durable`
under the transient-fault :class:`~repro.harness.retry.RetryPolicy`, and
trip the ``checkpoint.save`` / ``checkpoint.load`` fault points, so the
injection campaign exercises the failed-write paths.  The names the
algorithms themselves touch (the :data:`~repro.checkpointing.ACTIVE`
session handle, :class:`~repro.checkpointing.SimulatedCrash`, the JSON
state helpers) live in the import-order-neutral
:mod:`repro.checkpointing` — the same layering as :mod:`repro.guard` /
:mod:`repro.harness`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from .. import trace as _trace
from ..checkpointing import SimulatedCrash
from ..durable import read_json, write_atomic
from ..faults import CHECKPOINT_LOAD, CHECKPOINT_SAVE
from .result_cache import cell_key
from .retry import RetryPolicy

__all__ = [
    "CheckpointSession",
    "CheckpointStore",
    "DEFAULT_MERGE_STRIDE",
    "SimulatedCrash",
]

#: Envelope schema version; bump to invalidate every existing checkpoint.
CHECKPOINT_FORMAT_VERSION = 1

#: SPIDER saves a merge-cursor boundary every this-many heap steps; level
#: and phase boundaries elsewhere are structural and need no stride.
DEFAULT_MERGE_STRIDE = 4096

#: Retry policy for checkpoint I/O when the session was not given one.
DEFAULT_RETRY = RetryPolicy()


class CheckpointSession:
    """One execution's checkpoint file: load, boundary saves, completion.

    ``kill_after=N`` raises :class:`SimulatedCrash` right after the N-th
    boundary write of this session completes (the differential kill
    matrix); ``None`` disables it.  ``merge_stride`` is consulted by
    SPIDER for its step-count boundaries.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        kill_after: int | None = None,
        merge_stride: int = DEFAULT_MERGE_STRIDE,
        retry: RetryPolicy | None = None,
    ):
        self.path = Path(path)
        self.kill_after = kill_after
        self.merge_stride = merge_stride
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.boundaries = 0
        self.restored = False
        self._envelope: dict[str, Any] | None = None
        self._providers: list[tuple[str, Callable[[], dict[str, Any]]]] = []

    # -- restore ------------------------------------------------------------

    def load(self) -> bool:
        """Read the checkpoint file; True when prior state was restored.

        A missing, corrupt, unreadable, or version-mismatched file is
        treated as *absent* — a checkpoint must never turn disk state into
        an error (the run simply starts fresh).  The read runs under the
        retry policy and trips the ``checkpoint.load`` fault point even
        when no file exists, so the injection campaign always reaches it.
        """
        try:
            envelope = read_json(self.path, retry=self.retry, fault=CHECKPOINT_LOAD)
        except ValueError:
            envelope = None
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != CHECKPOINT_FORMAT_VERSION
            or not isinstance(envelope.get("stages"), dict)
        ):
            return False
        self._envelope = envelope
        self.restored = True
        _trace.count("checkpoint.loads")
        _trace.event(
            "checkpoint.load",
            stage=envelope.get("stage", ""),
            boundary=envelope.get("boundary", 0),
        )
        return True

    def resume(self, stage: str) -> Any | None:
        """Deep copy of ``stage``'s saved state, or ``None``.

        Non-consuming (a JSON round-trip copy), so restoring the same
        context at two nesting levels is harmless, and reading never
        aliases mutable state into the envelope.
        """
        if self._envelope is None:
            return None
        state = self._envelope["stages"].get(stage)
        if state is None:
            return None
        return json.loads(json.dumps(state))

    # -- nested-state composition -------------------------------------------

    @contextmanager
    def context(
        self, stage: str, provider: Callable[[], dict[str, Any]]
    ) -> Iterator[None]:
        """Register ``provider`` as enclosing traversal state.

        While active, every boundary saved by inner stages embeds
        ``provider()`` under ``stage``, so the file always snapshots the
        full nesting (e.g. MUDS phase progress around a DUCC walk).
        """
        self._providers.append((stage, provider))
        try:
            yield
        finally:
            self._providers.pop()

    # -- save ---------------------------------------------------------------

    def boundary(self, stage: str, state: dict[str, Any]) -> None:
        """Durably save one completed boundary of ``stage``.

        The envelope holds the active context providers' states plus
        ``state`` as the leaf (the leaf wins on a stage-name collision,
        e.g. a context re-saving its own phase edge).  The write is
        atomic (:func:`repro.durable.write_atomic`), retried, and trips
        the ``checkpoint.save`` fault point; a persistent failure raises
        :class:`OSError`.  With ``kill_after`` set,
        raises :class:`SimulatedCrash` once enough boundaries have been
        written — *after* the write, so the crash always leaves a
        durable, restorable file.
        """
        stages: dict[str, Any] = {}
        for context_stage, provider in self._providers:
            stages[context_stage] = provider()
        stages[stage] = state
        envelope = {
            "version": CHECKPOINT_FORMAT_VERSION,
            "stage": stage,
            "boundary": self.boundaries + 1,
            "stages": stages,
        }
        payload = json.dumps(envelope)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(self.path, payload, retry=self.retry, fault=CHECKPOINT_SAVE)
        self._envelope = envelope
        self.boundaries += 1
        _trace.count("checkpoint.saves")
        _trace.event(
            "checkpoint.save",
            stage=stage,
            boundary=self.boundaries,
            bytes=len(payload),
        )
        if self.kill_after is not None and self.boundaries >= self.kill_after:
            raise SimulatedCrash(stage, self.boundaries)

    # -- teardown -----------------------------------------------------------

    def complete(self) -> None:
        """The execution finished ok: delete the checkpoint file.

        TL/ML/ERR/interrupted executions keep their file on purpose —
        that is what a later resume continues from.
        """
        try:
            os.unlink(self.path)
        except OSError:
            pass
        self._envelope = None
        _trace.event("checkpoint.complete", boundaries=self.boundaries)

    def discard(self) -> None:
        """Forget (and delete) any prior state without tracing: the
        caller asked for a fresh run (``resume=False``)."""
        try:
            os.unlink(self.path)
        except OSError:
            pass
        self._envelope = None
        self.restored = False

    def __repr__(self) -> str:
        return (
            f"CheckpointSession({str(self.path)!r}, restored={self.restored}, "
            f"boundaries={self.boundaries})"
        )


# -- the store --------------------------------------------------------------


class CheckpointStore:
    """Directory of checkpoint files keyed like the result cache.

    ``(fingerprint, algorithm, config)`` addresses one file — the same
    cell identity as :class:`~repro.harness.result_cache.ResultCache`, so
    a resume only ever restores state produced by an identical
    computation.  ``kill_after`` / ``merge_stride`` / ``retry`` defaults
    are inherited by every session the store opens.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        kill_after: int | None = None,
        merge_stride: int = DEFAULT_MERGE_STRIDE,
        retry: RetryPolicy | None = None,
    ):
        self.root = Path(root)
        self.kill_after = kill_after
        self.merge_stride = merge_stride
        self.retry = retry
        self.last_session: CheckpointSession | None = None

    def path_for(
        self,
        fingerprint: str,
        algorithm: str,
        config: Mapping[str, Any] | str | None = None,
    ) -> Path:
        """On-disk location of one execution's checkpoint (exists or not)."""
        tail = cell_key(fingerprint, algorithm, config)
        return (
            self.root
            / fingerprint[:2]
            / f"{fingerprint[2:18]}-{algorithm}-{tail}.ckpt.json"
        )

    def session(
        self,
        fingerprint: str,
        algorithm: str,
        config: Mapping[str, Any] | str | None = None,
    ) -> CheckpointSession:
        """Open (without loading) the session for one execution cell."""
        session = CheckpointSession(
            self.path_for(fingerprint, algorithm, config),
            kill_after=self.kill_after,
            merge_stride=self.merge_stride,
            retry=self.retry,
        )
        self.last_session = session
        return session

    def __repr__(self) -> str:
        return f"CheckpointStore({str(self.root)!r})"
