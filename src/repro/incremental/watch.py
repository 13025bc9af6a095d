"""Continuous profiling: a directory of CSVs as one growing relation.

``repro watch DIR`` points this driver at a directory.  CSV files are
consumed in sorted name order — the first becomes the base relation and
is profiled from scratch; every later file is an append batch folded in
by :meth:`IncrementalProfiler.maintain`.  Files arriving while the
watcher polls are picked up on the next scan, so a producer can keep
dropping batches (``0001.csv``, ``0002.csv``, ...) and the profile stays
current at delta cost instead of re-profile cost.

Each update emits an ``incremental.watch_update`` trace event and invokes
the ``on_update`` callback; ``once=True`` processes what is present and
returns (the testing and scripting mode), ``max_batches`` bounds a
continuous run.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable

from .. import trace as _trace
from ..metadata.results import ProfilingResult
from ..relation.csv_io import read_csv
from ..relation.relation import Relation
from .profiler import IncrementalProfiler

__all__ = ["watch_directory"]


def watch_directory(
    directory: str,
    algorithm: str = "auto",
    seed: int = 0,
    delimiter: str = ",",
    has_header: bool = True,
    interval: float = 0.5,
    once: bool = False,
    max_batches: int | None = None,
    on_update: Callable[[Path, Relation, ProfilingResult], Any] | None = None,
    storage: str = "encoded",
) -> list[tuple[str, ProfilingResult]]:
    """Profile ``directory``'s CSVs as one relation growing by appends.

    Returns the ``(path, result)`` history, one entry per consumed file.
    Every file after the first must carry the base file's schema (same
    column names under ``has_header``, same width otherwise).  With
    neither ``once`` nor ``max_batches`` the watcher polls forever every
    ``interval`` seconds; interrupt handling is the caller's concern
    (the CLI runs it under ``graceful_shutdown``).  Files are read in
    the ``storage`` mode (:func:`~repro.relation.csv_io.read_csv`), so
    the base relation's columns, and the rows appended to them, keep
    their codes there.
    """
    root = Path(directory)
    if not root.is_dir():
        raise OSError(f"not a directory: {directory}")
    profiler = IncrementalProfiler(algorithm=algorithm, seed=seed)
    processed: set[str] = set()
    relation: Relation | None = None
    result: ProfilingResult | None = None
    history: list[tuple[str, ProfilingResult]] = []
    while True:
        arrived = sorted(
            path
            for path in root.glob("*.csv")
            if path.name not in processed
        )
        for path in arrived:
            processed.add(path.name)
            batch = read_csv(
                str(path),
                delimiter=delimiter,
                has_header=has_header,
                storage=storage,
            )
            if relation is None:
                relation = batch
                result = profiler.profile_base(relation)
            else:
                if batch.column_names != relation.column_names:
                    raise ValueError(
                        f"{path.name} columns {batch.column_names} do not "
                        f"match the base schema {relation.column_names}"
                    )
                result = profiler.maintain(
                    relation, list(batch.iter_rows()), result
                )
            _trace.event(
                "incremental.watch_update",
                file=path.name,
                rows=relation.n_rows,
                inds=len(result.inds),
                uccs=len(result.uccs),
                fds=len(result.fds),
            )
            if on_update is not None:
                on_update(path, relation, result)
            history.append((str(path), result))
            if max_batches is not None and len(history) >= max_batches:
                return history
        if once:
            return history
        time.sleep(interval)
