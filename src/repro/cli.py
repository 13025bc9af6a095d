"""Command-line interface: profile a CSV file (or built-in dataset).

Examples::

    python -m repro data.csv
    python -m repro data.csv --algorithm muds --json result.json
    python -m repro --dataset bridges --stats
    python -m repro data.csv --delimiter ';' --no-header --max-rows 5000
    python -m repro data.csv --algorithm baseline
    python -m repro data.csv --pli-backend numpy
    python -m repro big.csv --storage mmap
    python -m repro data.csv --no-result-cache
    python -m repro --dataset bridges --trace out.jsonl
    python -m repro profile-schema tables/ --jobs 4 --json catalog.json

``profile-schema DIR`` switches to the multi-table mode: every ``*.csv``
under DIR is profiled as one schema job (per-table FDs/UCCs/INDs,
content-identical tables deduplicated by fingerprint, one cross-table
SPIDER merge, ranked foreign-key candidates); see
``repro profile-schema --help``.

Completed profiles are cached under a content address of the input
(``Relation.fingerprint()``); re-profiling an identical file answers
from ``benchmarks/results/cache/`` (override with ``--result-cache`` /
``$REPRO_RESULT_CACHE_DIR``, disable with ``--no-result-cache``).

``--trace PATH`` (or ``REPRO_TRACE=PATH`` in the environment) records a
structured per-phase trace of the run — spans per algorithm phase and
lattice level with candidate/pruning counters — as JSONL, one event per
line (schema: ``docs/trace_schema.json``), and prints the per-phase
summary table after the profile.

``--checkpoint-dir DIR`` (or ``$REPRO_CHECKPOINT_DIR``) makes the run
restartable: the traversal snapshots its state at level/phase boundaries
into DIR, SIGTERM/SIGINT stop the run cleanly with exit code 4 (the
snapshot survives), and re-running the same command resumes from the last
completed boundary with bit-identical results.  A budget-stopped run
(exit code 3) keeps its snapshot too, so re-running without the budget
continues instead of starting over.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Sequence

from . import trace as _trace
from .checkpointing import active_session
from .core.profiler import ALGORITHMS, choose_algorithm, profile
from .core.statistics import profile_statistics
from .durable import write_atomic
from .guard import Budget, BudgetExceeded, guarded
from .harness.checkpoint import CheckpointStore
from .harness.framework import Execution, Framework
from .harness.result_cache import DEFAULT_CACHE_DIR, ResultCache
from .harness.signals import EXIT_INTERRUPTED, Interrupted, graceful_shutdown
from .metadata.results import ProfilingResult
from .metadata.serialize import dumps
from .pli import backend as _pli_backend
from .relation.csv_io import read_csv
from .relation.encoded import STORAGE_MODES, encode_column
from .relation.relation import Relation

__all__ = [
    "main",
    "build_parser",
    "build_schema_parser",
    "schema_main",
    "build_watch_parser",
    "watch_main",
    "build_cache_parser",
    "cache_main",
]


# -- option groups -----------------------------------------------------------
#
# Every option is defined once, in the group that owns it; each parser
# picks the groups it takes.

#: Smallest accepted value of each numeric option (by ``dest``).
#: :func:`_parse` rejects anything below it before any input is read.
_MINIMUM = {
    "jobs": 1,
    "max_rows": 0,
    "deadline": 0,
    "max_intersections": 0,
    "max_cluster_bytes": 0,
    "max_fk": 0,
    "interval": 0,
    "max_batches": 1,
}


def _input_options(
    parser: argparse.ArgumentParser, directory: str | None = None
) -> None:
    """CSV dialect, plus the ``directory`` positional when it has help."""
    if directory is not None:
        parser.add_argument("directory", help=directory)
    parser.add_argument("--delimiter", default=",", help="CSV field separator")
    parser.add_argument(
        "--no-header",
        action="store_true",
        help="CSV input has no header row (columns become column_0..n)",
    )


def _algorithm_options(parser: argparse.ArgumentParser, algorithm: str) -> None:
    """Algorithm choice and walk seed."""
    parser.add_argument(
        "--algorithm", choices=ALGORITHMS, default="auto", help=algorithm
    )
    parser.add_argument("--seed", type=int, default=0, help="random-walk seed")


def _budget_options(parser: argparse.ArgumentParser) -> None:
    """Execution budget (per execution); see :func:`_budget`."""
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry the partial results discovered "
        "so far are reported as TL and the exit code is 3",
    )
    parser.add_argument(
        "--max-intersections",
        type=int,
        default=None,
        metavar="N",
        help="PLI-intersection work budget; exceeded counts as TL",
    )
    parser.add_argument(
        "--max-cluster-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="estimated PLI cluster-memory budget; exceeded counts as ML",
    )


def _substrate_options(parser: argparse.ArgumentParser) -> None:
    """PLI kernel backend (armed by :func:`_parse`) and column-storage
    mode (passed to the CSV read)."""
    parser.add_argument(
        "--pli-backend",
        choices=("python", "numpy"),
        default=None,
        help="PLI kernel backend: 'python' (zero-dependency, the default) "
        "or 'numpy' (vectorized; needs numpy installed). Results are "
        "bit-identical either way. Defaults to $REPRO_PLI_BACKEND, or "
        "'python' when unset",
    )
    parser.add_argument(
        "--storage",
        choices=STORAGE_MODES,
        default=None,
        help="column-storage mode for the PLI substrate: 'encoded' "
        "(dictionary-encoded int32 code arrays in memory, the default) or "
        "'mmap' (the codes spilled to memory-mapped files under "
        "$REPRO_SPILL_DIR so relations larger than RAM profile within a "
        "bounded footprint). Results are bit-identical in both modes",
    )


def _checkpoint_option(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None, help=help)


def _result_cache_options(
    parser: argparse.ArgumentParser, switch: bool = True
) -> None:
    """Result-cache directory, plus ``--no-result-cache`` when ``switch``."""
    parser.add_argument(
        "--result-cache",
        metavar="DIR",
        default=None,
        help="content-addressed result cache directory (default: "
        f"$REPRO_RESULT_CACHE_DIR or {DEFAULT_CACHE_DIR}); "
        "already-profiled inputs are answered from disk instead of "
        "recomputed",
    )
    if switch:
        parser.add_argument(
            "--no-result-cache",
            action="store_true",
            help="always recompute; neither read nor write the result cache",
        )


def _output_options(parser: argparse.ArgumentParser, json: str) -> None:
    """Trace file and JSON document."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a structured trace of the run and write it as JSONL "
        "to PATH (one event per line; see docs/trace_schema.json). "
        "Defaults to $REPRO_TRACE when that holds a path; tracing is off "
        "otherwise",
    )
    parser.add_argument("--json", metavar="PATH", help=json)


# -- plumbing shared by the subcommands --------------------------------------


def _parse(
    parser: argparse.ArgumentParser, argv: Sequence[str]
) -> argparse.Namespace | None:
    """Parse ``argv`` and settle what must hold before any input is read.

    Rejects a numeric option below its :data:`_MINIMUM` and arms the
    requested PLI kernel backend process-wide, so an unusable request
    fails the run up front instead of silently profiling on another
    kernel.  A failure prints an ``error:`` line and returns ``None``:
    the caller exits with status 2.
    """
    args = parser.parse_args(argv)
    try:
        for dest, minimum in _MINIMUM.items():
            value = getattr(args, dest, None)
            if value is not None and value < minimum:
                flag = "--" + dest.replace("_", "-")
                raise ValueError(f"{flag} must be >= {minimum}, got {value}")
        if getattr(args, "pli_backend", None) is not None:
            _pli_backend.set_backend(args.pli_backend)
    except (ValueError, _pli_backend.BackendUnavailable) as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    return args


def _budget(args: argparse.Namespace) -> Budget | None:
    """The run's :class:`Budget`, or ``None`` when no budget flag is set."""
    if (
        args.deadline is None
        and args.max_intersections is None
        and args.max_cluster_bytes is None
    ):
        return None
    return Budget(
        deadline_seconds=args.deadline,
        max_intersections=args.max_intersections,
        max_cluster_bytes=args.max_cluster_bytes,
    )


def _cache_root(args: argparse.Namespace) -> str:
    return (
        args.result_cache
        or os.environ.get("REPRO_RESULT_CACHE_DIR")
        or DEFAULT_CACHE_DIR
    )


def _checkpoint_dir(args: argparse.Namespace) -> str | None:
    """``--checkpoint-dir``, else ``$REPRO_CHECKPOINT_DIR``; ``None``: off."""
    return args.checkpoint_dir or os.environ.get("REPRO_CHECKPOINT_DIR")


def _start_trace(args: argparse.Namespace):
    """``(tracer, path)`` of this run, brought up before any work so the
    trace covers all of it.  ``$REPRO_TRACE`` already enabled the tracer
    at import time; ``--trace`` enables it (freshly) and fixes the path.
    """
    path = args.trace or _trace.env_trace_path()
    return (_trace.enable() if args.trace else _trace.ACTIVE), path


def _write_trace(tracer, path: str | None, summary: bool = False) -> None:
    """Write the trace as JSONL; with ``summary`` print the per-phase table.

    Counts made outside every span (the CSV read and its encoding run
    before the profile opens one) are written as counter events, one per
    name, so the file holds them too.
    """
    if tracer is None or path is None:
        return
    for name, value in sorted(tracer.counters.items()):
        tracer.counter(name, value)
    try:
        written = _trace.write_jsonl(tracer.events, path)
    except OSError as error:
        print(f"warning: trace write failed: {error}", file=sys.stderr)
        return
    print(f"trace written to {path} ({written} events)", file=sys.stderr)
    phases = _trace.trace_summary(tracer.events) if summary else {}
    if phases:
        print("\nper-phase trace summary:")
        print(f"  {'phase':32s} {'count':>6s} {'seconds':>10s} {'self':>10s}")
        for phase, entry in sorted(
            phases.items(), key=lambda item: -item[1]["self_seconds"]
        ):
            print(
                f"  {phase:32s} {entry['count']:6d} "
                f"{entry['seconds']:10.4f} {entry['self_seconds']:10.4f}"
            )


def _write_json(path: str, payload: str, noun: str | None = None) -> None:
    """Write a JSON document to ``path`` (``-``: stdout).

    The file is replaced atomically (:func:`repro.durable.write_atomic`),
    so a reader polling ``path`` (``repro watch`` rewrites it after every
    update) sees the previous document or the new one, never an empty or
    partial one.  With ``noun``, say where the document went.
    """
    if path == "-":
        print(payload)
        return
    write_atomic(path, payload + "\n")
    if noun is not None:
        print(f"{noun} written to {path}")


def _interrupted(error: Interrupted, kept: str | None = None) -> int:
    """Report a graceful shutdown and return its exit status.

    The journal/checkpoint ``finally`` blocks have already flushed;
    ``kept`` says what survives for the next run.
    """
    print(f"{error}; stopping cleanly", file=sys.stderr)
    if kept:
        print(kept, file=sys.stderr)
    return EXIT_INTERRUPTED


# -- repro CSV / --dataset ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Holistic data profiling: discover unary INDs, minimal UCCs, "
            "and minimal FDs of a relation in one pass (EDBT 2016 "
            "reproduction)."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("csv", nargs="?", help="path to a CSV file")
    source.add_argument(
        "--dataset",
        help="profile a built-in dataset instead (e.g. bridges, iris)",
    )
    _input_options(parser)
    parser.add_argument(
        "--max-rows", type=int, default=None, help="profile only the first N rows"
    )
    parser.add_argument(
        "--keep-duplicates",
        action="store_true",
        help="skip the duplicate-row preprocessing step (§3)",
    )
    _algorithm_options(
        parser, "profiling algorithm (default: the paper's §6.5 heuristic)"
    )
    parser.add_argument(
        "--as-published",
        action="store_true",
        help="run MUDS exactly as published (skip the completeness walk)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="also print per-column statistics",
    )
    _budget_options(parser)
    _substrate_options(parser)
    _result_cache_options(parser)
    _checkpoint_option(
        parser,
        "snapshot the traversal state at level/phase boundaries into DIR "
        "and resume from the last completed boundary when an earlier run "
        "of the same input/configuration was killed, interrupted, or "
        "budget-stopped (default: $REPRO_CHECKPOINT_DIR; checkpointing is "
        "off when neither is set). Results are bit-identical to an "
        "undisturbed run",
    )
    parser.add_argument(
        "--append",
        action="append",
        default=None,
        metavar="BATCH_CSV",
        help="after profiling (or cache-hitting) the base input, append "
        "the rows of BATCH_CSV and incrementally maintain the result "
        "instead of re-profiling from scratch; repeatable — batches are "
        "applied in order, and each maintained result is cached under the "
        "grown relation's fingerprint with a parent_fingerprint link back "
        "to the pre-append entry (see 'repro cache ls')",
    )
    _output_options(parser, "write the result as JSON (use '-' for stdout)")
    return parser


def _load(args: argparse.Namespace) -> Relation:
    storage = args.storage or "encoded"
    if args.dataset:
        from .datasets.registry import load

        relation = load(args.dataset, n_rows=args.max_rows, seed=args.seed)
    else:
        relation = read_csv(
            args.csv,
            delimiter=args.delimiter,
            has_header=not args.no_header,
            storage=storage,
            max_rows=args.max_rows,
        )
    if not args.keep_duplicates:
        relation = relation.deduplicated()
    return _encoded_in(relation, storage) if args.dataset else relation


def _encoded_in(relation: Relation, storage: str) -> Relation:
    """A built-in dataset (which holds values) with every column encoded
    in ``storage``, so the profile reads its codes from where
    ``--storage`` put them.  A CSV read encodes there itself, and
    ``deduplicated()`` keeps that encoding."""
    return Relation(
        relation.column_names,
        [
            encode_column(relation.column(i), storage=storage)
            for i in range(relation.n_columns)
        ],
        name=relation.name,
    )


def _print_text_report(result, stats_lines: list[str]) -> None:
    print(result.summary())
    print("\nunary inclusion dependencies:")
    for ind in result.inds:
        print(f"  {ind}")
    if not result.inds:
        print("  (none)")
    print("\nminimal unique column combinations:")
    for ucc in result.uccs:
        print(f"  {ucc}")
    if not result.uccs:
        print("  (none — the relation has duplicate rows?)")
    print("\nminimal functional dependencies:")
    for fd in result.fds:
        print(f"  {fd}")
    if not result.fds:
        print("  (none)")
    print("\nphase seconds:")
    for phase, seconds in result.phase_seconds.items():
        print(f"  {phase:28s} {seconds:10.4f}")
    for line in stats_lines:
        print(line)


class _Profiler:
    """The profiler :func:`main` registers in its :class:`Framework`.

    It runs :func:`profile`; under ``--append`` it runs the incremental
    profiler's base profile instead, whose PLI store then stays warm:
    the maintenance phase delta-merges into the very substrate the base
    profile built instead of rebuilding it.
    """

    def __init__(self, args: argparse.Namespace, algorithm: str, incremental):
        self.args = args
        self.algorithm = algorithm
        self.incremental = incremental

    def profile(self, relation: Relation) -> ProfilingResult:
        if self.incremental is not None:
            return self.incremental.profile_base(relation)
        return profile(
            relation,
            algorithm=self.algorithm,
            seed=self.args.seed,
            verify_completeness=not self.args.as_published,
        )


def _apply_appends(
    args: argparse.Namespace,
    profiler,
    relation: Relation,
    result: ProfilingResult,
    algorithm: str,
    budget: Budget | None,
    cache: ResultCache | None,
    cache_config: dict,
    checkpoint_dir: str | None,
) -> tuple[ProfilingResult, int]:
    """Fold each ``--append`` batch into the profiled relation in order;
    returns the latest result and the exit status (3 when the budget ran
    out, with the result of the last finished batch).

    Every batch advances the fingerprint chain: the maintained result is
    cached — as the execution record :meth:`Framework.run` stores —
    under the grown relation's fingerprint with a ``parent_fingerprint``
    link to the pre-append entry, so a later plain run over the combined
    data answers from cache, and ``repro cache ls`` can render the chain.
    Checkpoint sessions are keyed per batch by ``(parent fingerprint,
    "incremental", config + batch fingerprint)`` — a maintenance run
    killed mid-re-validation resumes exactly.

    Unless ``--keep-duplicates`` is given, a batch row equal to a row
    already in the relation or earlier in the batches is dropped, as the
    base's duplicates were: the grown relation is the deduplicated
    concatenation, fingerprint included.
    """
    seen = None if args.keep_duplicates else set(relation.iter_rows())
    try:
        with guarded(budget):
            for batch_path in args.append:
                batch = read_csv(
                    batch_path,
                    delimiter=args.delimiter,
                    has_header=not args.no_header,
                )
                if batch.column_names != relation.column_names:
                    raise ValueError(
                        f"append batch {batch_path} columns "
                        f"{batch.column_names} do not match the base schema "
                        f"{relation.column_names}"
                    )
                rows = list(batch.iter_rows())
                if seen is not None:
                    rows = [row for row in dict.fromkeys(rows) if row not in seen]
                    seen.update(rows)
                parent = relation.fingerprint()
                session = None
                if checkpoint_dir:
                    session = CheckpointStore(checkpoint_dir).session(
                        parent,
                        "incremental",
                        {**cache_config, "batch": batch.fingerprint()},
                    )
                    if session.load():
                        print(
                            f"resuming incremental maintenance of {batch_path} "
                            f"from checkpoint in {checkpoint_dir}",
                            file=sys.stderr,
                        )
                started = time.perf_counter()
                with active_session(session):
                    result = profiler.maintain(relation, rows, result)
                seconds = time.perf_counter() - started
                if session is not None:
                    session.complete()
                grown = relation.fingerprint()
                if cache is not None and grown != parent:
                    record = Execution(
                        algorithm=algorithm,
                        dataset=relation.name,
                        n_columns=relation.n_columns,
                        n_rows=relation.n_rows,
                        seconds=seconds,
                        result=result,
                    ).to_record()
                    try:
                        cache.put(
                            grown,
                            algorithm,
                            record,
                            cache_config,
                            parent_fingerprint=parent,
                        )
                    except OSError as error:
                        print(
                            f"warning: result cache write failed: {error}",
                            file=sys.stderr,
                        )
                print(
                    f"appended {batch_path} ({len(rows)} rows): fingerprint "
                    f"{parent[:12]}... -> {grown[:12]}...",
                    file=sys.stderr,
                )
    except BudgetExceeded as error:
        marker = "ML" if error.reason == "memory" else "TL"
        print(
            f"warning [{marker}]: budget exhausted during incremental "
            f"maintenance ({error}); results below predate the unfinished "
            "batch",
            file=sys.stderr,
        )
        return result, 3
    return result, 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    # Subcommands are dispatched before the single-relation parser: the
    # legacy CLI keeps its subcommand-free grammar (a bare CSV positional).
    subcommands = {
        "profile-schema": schema_main,
        "watch": watch_main,
        "cache": cache_main,
    }
    if arguments and arguments[0] in subcommands:
        return subcommands[arguments[0]](arguments[1:])
    args = _parse(build_parser(), arguments)
    if args is None:
        return 2
    tracer, trace_path = _start_trace(args)
    try:
        relation = _load(args)
    except (OSError, KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    budget = _budget(args)
    # Resolve "auto" up front so the cache is keyed by the algorithm that
    # actually runs (the §6.5 heuristic depends only on the column count,
    # which the fingerprint covers).
    algorithm = args.algorithm
    if algorithm == "auto":
        algorithm = choose_algorithm(relation)
    # Budgeted runs bypass the cache: a TL/ML partial is a property of the
    # budget, not the input, and must never be served — or stored — as the
    # input's profile.  That holds for --append batches too.
    cache = (
        None
        if args.no_result_cache or budget is not None
        else ResultCache(_cache_root(args))
    )
    # ``pli_backend`` and ``storage`` are part of the key for counter
    # transparency only — discovered metadata is exact (thus identical)
    # in all modes.
    cache_config = {
        "seed": args.seed,
        "as_published": args.as_published,
        "pli_backend": _pli_backend.ACTIVE.name,
        "storage": args.storage or "encoded",
    }
    checkpoint_dir = _checkpoint_dir(args)
    incremental = None
    if args.append:
        from .incremental import IncrementalProfiler

        incremental = IncrementalProfiler(
            algorithm=algorithm,
            seed=args.seed,
            verify_completeness=not args.as_published,
        )
    framework = Framework()
    framework.register(algorithm, lambda: _Profiler(args, algorithm, incremental))
    try:
        with graceful_shutdown():
            # The checkpoint session is keyed exactly like the result
            # cache, so a resume only restores state produced by an
            # identical (input, algorithm, config) run.
            execution = framework.run(
                algorithm,
                relation,
                budget=budget,
                cache=cache,
                cache_config=cache_config,
                checkpoints=(
                    CheckpointStore(checkpoint_dir) if checkpoint_dir else None
                ),
            )
    except Interrupted as error:
        return _interrupted(
            error,
            checkpoint_dir
            and "checkpoint kept; re-running the same command resumes from "
            "the last completed boundary",
        )
    if execution.cached:
        print(
            f"result cache hit for {algorithm} "
            f"(fingerprint {relation.fingerprint()[:12]}...)",
            file=sys.stderr,
        )
    if execution.resumed:
        print(
            f"resuming {algorithm} from checkpoint in {checkpoint_dir}",
            file=sys.stderr,
        )
    if execution.status == "error":
        print(f"error: {execution.error}", file=sys.stderr)
        return 1
    exit_code = 0
    if not execution.ok:
        # Graceful degradation (Metanome's TL/ML cells): report whatever
        # the stopped algorithm had discovered, but exit non-zero so
        # scripts can tell a partial profile from a complete one.
        print(
            f"warning [{execution.marker}]: budget exhausted "
            f"({execution.error}); results below are partial",
            file=sys.stderr,
        )
        if checkpoint_dir:
            # The snapshot survives: re-running without the budget resumes
            # from the last completed boundary.
            print(
                f"checkpoint kept; re-run with --checkpoint-dir "
                f"{checkpoint_dir} to continue",
                file=sys.stderr,
            )
        exit_code = 3
    elif cache is not None and not execution.cached and not cache.puts:
        print("warning: result cache write failed", file=sys.stderr)
    result = execution.result

    if incremental is not None and exit_code == 0:
        try:
            with graceful_shutdown():
                result, exit_code = _apply_appends(
                    args,
                    incremental,
                    relation,
                    result,
                    algorithm,
                    budget,
                    cache,
                    cache_config,
                    checkpoint_dir,
                )
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except Interrupted as error:
            return _interrupted(
                error,
                checkpoint_dir
                and "checkpoint kept; re-running the same command resumes "
                "the unfinished batch from the last completed phase",
            )

    stats_lines: list[str] = []
    if args.stats:
        stats_lines.append("\nper-column statistics:")
        for stat in profile_statistics(relation):
            stats_lines.append(
                f"  {stat.name:24s} distinct={stat.distinct_count:<8d} "
                f"nulls={stat.null_count:<6d} unique={str(stat.is_unique):5s} "
                f"top={stat.top_value!r} x{stat.top_frequency}"
            )
    if args.json:
        _write_json(args.json, dumps(result), "result")
        for line in stats_lines:
            print(line)
    else:
        _print_text_report(result, stats_lines)
    _write_trace(tracer, trace_path, summary=True)
    return exit_code


# -- repro profile-schema DIR --------------------------------------------------


def build_schema_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile-schema",
        description=(
            "Profile a directory of CSV tables as one schema job: "
            "per-table FDs/UCCs/unary INDs, fingerprint dedup of "
            "content-identical tables, cross-table INDs via one SPIDER "
            "merge over the union of all columns (the sampling engine's "
            "value probes prefilter it), and ranked foreign-key "
            "candidates.  Budgets bound each table's execution and the "
            "cross-table merge; budget-stopped phases become TL/ML "
            "entries in the catalog."
        ),
    )
    _input_options(parser, "schema root; every *.csv below it is one table")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the per-table profiling sweep "
        "(default: 1, serial)",
    )
    _algorithm_options(
        parser, "per-table algorithm (default: the §6.5 heuristic per table)"
    )
    _budget_options(parser)
    _checkpoint_option(
        parser,
        "journal every finished table and snapshot traversal/merge state "
        "into DIR; re-running the same command after a kill resumes at "
        "table granularity with a bit-identical catalog (default: "
        "$REPRO_CHECKPOINT_DIR; off when neither is set)",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore (and discard) earlier journal/checkpoint state",
    )
    parser.add_argument(
        "--max-fk",
        type=int,
        default=None,
        metavar="N",
        help="report only the top-N foreign-key candidates",
    )
    _output_options(parser, "write the catalog as JSON (use '-' for stdout)")
    return parser


def _print_catalog_report(catalog) -> None:
    print(catalog.summary())
    print("\ntables:")
    for table in catalog.tables:
        if table.duplicate_of is not None:
            detail = f"duplicate of {table.duplicate_of}"
        elif table.result is not None:
            inds, uccs, fds = (
                len(table.result.inds),
                len(table.result.uccs),
                len(table.result.fds),
            )
            detail = (
                f"{table.n_columns} cols x {table.n_rows} rows via "
                f"{table.algorithm}: {inds} INDs, {uccs} UCCs, {fds} FDs"
            )
        else:
            detail = table.error or table.status
        marker = f" [{table.status}]" if table.status != "ok" else ""
        print(f"  {table.name:28s} {detail}{marker}")
    print("\ncross-table inclusion dependencies:")
    for ind in catalog.cross_inds:
        print(f"  {ind}")
    if not catalog.cross_inds:
        print("  (none)")
    print("\nforeign-key candidates (best first):")
    for candidate in catalog.fk_candidates:
        print(f"  {candidate}")
    if not catalog.fk_candidates:
        print("  (none)")


def schema_main(argv: Sequence[str]) -> int:
    """``repro profile-schema`` entry point; returns a process exit code."""
    from .metadata.serialize import catalog_dumps
    from .schema import profile_schema

    args = _parse(build_schema_parser(), argv)
    if args is None:
        return 2
    checkpoint_dir = _checkpoint_dir(args)
    tracer, trace_path = _start_trace(args)
    try:
        with graceful_shutdown():
            catalog = profile_schema(
                args.directory,
                jobs=args.jobs,
                algorithm=args.algorithm,
                seed=args.seed,
                budget=_budget(args),
                checkpoints=(
                    CheckpointStore(checkpoint_dir) if checkpoint_dir else None
                ),
                resume=not args.no_resume,
                delimiter=args.delimiter,
                has_header=not args.no_header,
                max_fk_candidates=args.max_fk,
            )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Interrupted as error:
        return _interrupted(
            error,
            checkpoint_dir
            and "journal and checkpoints kept; re-running the same command "
            "resumes at table granularity",
        )

    if args.json:
        _write_json(args.json, catalog_dumps(catalog), "catalog")
    else:
        _print_catalog_report(catalog)
    _write_trace(tracer, trace_path)

    statuses = {table.status for table in catalog.tables} | {catalog.status}
    if statuses & {"timeout", "memory"}:
        print(
            "warning: budget-stopped entries in the catalog (TL/ML)",
            file=sys.stderr,
        )
        return 3
    if statuses != {"ok"}:
        print("warning: failed entries in the catalog", file=sys.stderr)
        return 1
    return 0


# -- repro watch DIR ------------------------------------------------------------


def build_watch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro watch",
        description=(
            "Continuous profiling: consume the CSV files of a directory "
            "in sorted name order as one growing relation — the first "
            "file is profiled from scratch, every later file is appended "
            "and the profile is incrementally maintained at delta cost."
        ),
    )
    _input_options(parser, "watched directory; every *.csv in it is a batch")
    _algorithm_options(
        parser, "profiling algorithm for the base profile (default: auto)"
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll interval between directory scans (default: 2.0)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="process the files currently present, then exit instead of "
        "polling forever",
    )
    parser.add_argument(
        "--max-batches",
        type=int,
        default=None,
        metavar="N",
        help="stop after N files have been consumed",
    )
    _substrate_options(parser)
    _output_options(
        parser, "rewrite PATH with the latest result after every update"
    )
    return parser


def watch_main(argv: Sequence[str]) -> int:
    """``repro watch`` entry point; returns a process exit code."""
    from .incremental import watch_directory

    args = _parse(build_watch_parser(), argv)
    if args is None:
        return 2
    tracer, trace_path = _start_trace(args)

    def on_update(path, relation, result) -> None:
        print(f"{path.name}: {result.summary()}")
        if args.json:
            _write_json(args.json, dumps(result))

    exit_code = 0
    try:
        with graceful_shutdown():
            watch_directory(
                args.directory,
                algorithm=args.algorithm,
                seed=args.seed,
                delimiter=args.delimiter,
                has_header=not args.no_header,
                interval=args.interval,
                once=args.once,
                max_batches=args.max_batches,
                on_update=on_update,
                storage=args.storage or "encoded",
            )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Interrupted as error:
        exit_code = _interrupted(error)
    _write_trace(tracer, trace_path)
    return exit_code


# -- repro cache ls -------------------------------------------------------------


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description=(
            "Inspect the content-addressed result cache.  'ls' lists "
            "every entry with its fingerprint chain: incrementally "
            "maintained results carry a parent_fingerprint link to the "
            "pre-append entry they were derived from."
        ),
    )
    parser.add_argument("action", choices=("ls",), help="cache operation")
    _result_cache_options(parser, switch=False)
    return parser


def cache_main(argv: Sequence[str]) -> int:
    """``repro cache`` entry point; returns a process exit code."""
    args = _parse(build_cache_parser(), argv)
    if args is None:
        return 2
    root = _cache_root(args)
    entries = ResultCache(root).entries()
    if not entries:
        print(f"result cache at {root}: no entries")
        return 0
    known = {entry["fingerprint"] for entry in entries}
    print(f"result cache at {root}: {len(entries)} entries")
    for entry in entries:
        parent = entry.get("parent_fingerprint")
        if parent is None:
            chain = ""
        elif parent in known:
            # A resolvable chain link: this entry was maintained from the
            # listed parent by an incremental append.
            chain = f"  <- {parent[:12]}..."
        else:
            # The parent entry is gone or unreadable — provenance display
            # degrades, lookups of this entry are unaffected.
            chain = "  <- (missing)"
        config = entry.get("config", "")
        suffix = f"  {config}" if config else ""
        print(
            f"  {entry['fingerprint'][:12]}...  "
            f"{entry['algorithm']}{suffix}{chain}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
