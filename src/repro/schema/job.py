"""Schema-wide profiling: one job over a directory of CSV tables.

The paper profiles one relation at a time; real datasets arrive as a
*schema* — a directory of tables with foreign keys between them.  A
:class:`SchemaJob` turns the whole directory into one profiling job:

1. **Load** every CSV through the encoded-columnar path (per-table
   content fingerprints fall out of the streaming read), containing
   per-table load failures as catalog entries instead of aborting.
2. **Deduplicate** content-identical tables by fingerprint — the exported
   copy of a dimension table profiles once; the duplicate's catalog entry
   points at the representative.
3. **Profile** each unique table (FDs/UCCs/unary INDs, §6.5 algorithm
   selection) through :meth:`ExperimentRunner.sweep
   <repro.harness.runner.ExperimentRunner.sweep>` — which is what buys
   the whole harness stack for free: ``jobs=N`` process fan-out, crash
   containment, budget cells, the result cache, intra-execution
   checkpoints, and a per-table JSONL journal so a killed sweep resumes
   at table granularity.
4. **Merge cross-table INDs**: one SPIDER merge over the union of every
   unique table's columns (:func:`~repro.algorithms.spider.spider_across`),
   reusing the sampling value-probe prefilter across table boundaries and
   checkpointing its merge cursor under the schema fingerprint.
5. **Rank FK candidates** over the cross-table INDs
   (:mod:`repro.schema.fk`): coverage × key-likeness × name similarity.

Everything merges into a :class:`~repro.schema.catalog.SchemaCatalog`
(JSON face in :mod:`repro.metadata.serialize`).  The catalog is
bit-identical across ``jobs=1`` vs ``jobs=N`` and matches brute-force
oracles — the schema differential suite in ``tests/schema/`` enforces
that, the same contract the single-relation paths carry.  Tables are
read with their column codes in memory (the ``encoded`` storage mode).
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING, Any, Mapping

from .. import trace as _trace
from ..algorithms.spider import spider_across
from ..algorithms.values import canonical_value
from ..checkpointing import active_session
from ..core.profiler import ALGORITHMS, choose_algorithm
from ..faults import FAULTS, SCHEMA_LOAD
from ..guard import Budget, BudgetExceeded, guarded
from ..harness.framework import Framework
from ..harness.parallel import FrameworkSpec, WorkloadSpec
from ..harness.result_cache import config_key
from ..harness.runner import ExperimentRunner, SweepJournal
from ..relation.csv_io import read_csv
from ..relation.relation import Relation
from .catalog import CrossTableInd, SchemaCatalog, TableProfile, schema_fingerprint
from .fk import ColumnFacts, rank_fk_candidates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..harness.checkpoint import CheckpointStore
    from ..harness.result_cache import ResultCache

__all__ = [
    "SchemaJob",
    "profile_schema",
    "discover_tables",
    "table_name",
    "load_table",
    "schema_framework",
]


def discover_tables(root: str | Path) -> list[str]:
    """Root-relative POSIX paths of every ``*.csv`` under ``root``, sorted.

    The sorted relative path doubles as the table's sweep label, so the
    point set — and with it the journal keys — is independent of
    filesystem enumeration order.
    """
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"schema root is not a directory: {root}")
    labels = sorted(
        path.relative_to(root).as_posix() for path in root.rglob("*.csv")
    )
    if not labels:
        raise FileNotFoundError(f"no *.csv tables under schema root {root}")
    return labels


def table_name(label: str) -> str:
    """Table name of a sweep label: the relative path minus its suffix."""
    return PurePosixPath(label).with_suffix("").as_posix()


def load_table(
    label: str,
    root: str,
    delimiter: str = ",",
    has_header: bool = True,
) -> Relation:
    """Workload builder: read one schema table (module-level, so a
    :class:`~repro.harness.parallel.WorkloadSpec` can ship it to pool
    workers; each worker re-reads its table from disk — row data never
    crosses the process boundary)."""
    return read_csv(
        Path(root) / label,
        delimiter=delimiter,
        has_header=has_header,
        name=table_name(label),
    )


def schema_framework(seed: int = 0, algorithm: str = "auto") -> Framework:
    """Framework with the single ``"schema"`` profiler registered: the
    :func:`repro.core.profiler.profile` facade (§6.5 auto-selection by
    default, or one pinned algorithm for every table).

    Module-level so a :class:`~repro.harness.parallel.FrameworkSpec` can
    rebuild it inside pool workers.
    """
    from ..core.profiler import profile as _profile

    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}"
        )

    class _SchemaProfiler:
        def profile(self, relation: Relation):
            return _profile(relation, algorithm=algorithm, seed=seed)

    framework = Framework()
    framework.register("schema", _SchemaProfiler)
    return framework


def _column_facts(relation: Relation) -> dict[str, ColumnFacts]:
    """Distinct/non-NULL counts per column (canonicalized like SPIDER),
    read from the column encodings in the parent for FK scoring."""
    facts: dict[str, ColumnFacts] = {}
    for index, name in enumerate(relation.column_names):
        encoding = relation.encoding(index)
        dictionary = encoding.dictionary
        values = {
            canonical_value(value) for value in dictionary if value is not None
        }
        # Count the one NULL code directly: ``encoding.count`` would build
        # and keep a value -> code map of the whole dictionary.
        nulls = (
            operator.countOf(encoding.codes, dictionary.index(None))
            if None in dictionary
            else 0
        )
        facts[name] = ColumnFacts(
            distinct=len(values), non_null=relation.n_rows - nulls
        )
    return facts


@dataclass(slots=True)
class SchemaJob:
    """One multi-table profiling job over a directory of CSVs.

    ``algorithm``/``seed`` configure every table's profiler
    uniformly; ``jobs`` fans the per-table executions out to a process
    pool; ``budget`` bounds each table's execution *and* the cross-table
    merge (TL/ML cells in the catalog, never an exception);
    ``checkpoints`` adds the full durability stack — per-table journal,
    intra-execution snapshots, and a cross-phase merge cursor — so a
    killed sweep re-run with ``resume=True`` (default) redoes only the
    unfinished work and produces the identical catalog.
    """

    root: str | Path
    name: str | None = None
    delimiter: str = ","
    has_header: bool = True
    algorithm: str = "auto"
    seed: int = 0
    jobs: int | None = None
    budget: Budget | None = None
    checkpoints: "CheckpointStore | None" = None
    resume: bool = True
    result_cache: "ResultCache | None" = None
    #: Keep only the top-N FK candidates (``None`` keeps all).
    max_fk_candidates: int | None = None
    #: Last journal path used (``None`` until run with ``checkpoints``).
    journal_path: Path | None = field(default=None, init=False)

    def run(self) -> SchemaCatalog:
        """Execute the full job; returns the merged catalog."""
        root = Path(self.root)
        labels = discover_tables(root)
        catalog_name = self.name if self.name is not None else root.name
        with _trace.span(
            "schema.job", schema=catalog_name, tables=len(labels)
        ):
            entries, relations, facts = self._load(root, labels)
            representatives = self._deduplicate(entries)
            schema_fp = schema_fingerprint(
                [
                    (entry.name, entry.fingerprint)
                    for entry in entries
                    if entry.fingerprint is not None
                ]
            )
            self._profile_tables(root, entries, representatives, schema_fp)
            cross, status, error = self._cross_phase(
                relations, representatives, schema_fp
            )
            candidates = self._rank(cross, facts)
            catalog = SchemaCatalog(
                name=catalog_name,
                tables=entries,
                cross_inds=cross,
                fk_candidates=candidates,
                status=status,
                error=error,
            )
            catalog.counters = self._counters(catalog)
            for counter in (
                "schema.tables",
                "schema.dedup_hits",
                "schema.inds_across",
                "schema.fk_candidates",
            ):
                if catalog.counters[counter]:
                    _trace.count(counter, catalog.counters[counter])
        return catalog

    # -- phases -------------------------------------------------------------

    def _load(
        self, root: Path, labels: list[str]
    ) -> tuple[
        list[TableProfile],
        dict[str, Relation],
        dict[tuple[str, str], ColumnFacts],
    ]:
        """Load every table in the parent, containing per-table failures.

        The ``schema.load`` fault point trips here (once per table) and
        only here — workers re-reading their table are not a *schema*
        load, so the fault campaign behaves identically at every ``jobs``
        setting.
        """
        entries: list[TableProfile] = []
        relations: dict[str, Relation] = {}
        facts: dict[tuple[str, str], ColumnFacts] = {}
        with _trace.span("schema.load", tables=len(labels)):
            for label in labels:
                entry = TableProfile(name=table_name(label), path=label)
                try:
                    if FAULTS.armed:
                        FAULTS.trip(SCHEMA_LOAD)
                    relation = load_table(
                        label,
                        root=str(root),
                        delimiter=self.delimiter,
                        has_header=self.has_header,
                    )
                except Exception as error:
                    entry.status = "error"
                    entry.error = (
                        f"load failed: {type(error).__name__}: {error}"
                    )
                    _trace.event(
                        "schema.load_failed", table=entry.name, error=entry.error
                    )
                else:
                    entry.fingerprint = relation.fingerprint()
                    entry.n_columns = relation.n_columns
                    entry.n_rows = relation.n_rows
                    entry.algorithm = (
                        self.algorithm
                        if self.algorithm != "auto"
                        else choose_algorithm(relation)
                    )
                    relations[entry.name] = relation
                    for column, column_facts in _column_facts(relation).items():
                        facts[(entry.name, column)] = column_facts
                entries.append(entry)
        return entries, relations, facts

    @staticmethod
    def _deduplicate(entries: list[TableProfile]) -> list[TableProfile]:
        """Mark content-identical tables as duplicates of the first-named
        representative; returns the representatives (sorted-name order)."""
        representative_of: dict[str, TableProfile] = {}
        representatives: list[TableProfile] = []
        for entry in entries:  # entries arrive in sorted-name order
            if entry.fingerprint is None:
                continue
            known = representative_of.get(entry.fingerprint)
            if known is None:
                representative_of[entry.fingerprint] = entry
                representatives.append(entry)
            else:
                entry.duplicate_of = known.name
                _trace.event(
                    "schema.dedup", table=entry.name, duplicate_of=known.name
                )
        return representatives

    def _cache_config(self) -> Mapping[str, Any]:
        """The execution configuration keying result-cache and checkpoint
        cells: everything besides the input that can change a table's
        profile (or the work plan a resume must match)."""
        return {"schema": 1, "algorithm": self.algorithm, "seed": self.seed}

    def _profile_tables(
        self,
        root: Path,
        entries: list[TableProfile],
        representatives: list[TableProfile],
        schema_fp: str,
    ) -> None:
        """Profile every unique table through the sweep harness and merge
        the executions back into the catalog entries."""
        if not representatives:
            return
        cache_config = self._cache_config()
        workload = WorkloadSpec(
            builder=load_table,
            kwargs={
                "root": str(root),
                "delimiter": self.delimiter,
                "has_header": self.has_header,
            },
        )
        framework_kwargs = {"seed": self.seed, "algorithm": self.algorithm}
        runner = ExperimentRunner(
            schema_framework(**framework_kwargs), algorithms=("schema",)
        )
        journal = None
        if self.checkpoints is not None:
            config_hash = hashlib.sha256(
                config_key(cache_config).encode("utf-8")
            ).hexdigest()[:8]
            self.journal_path = Path(self.checkpoints.root) / (
                f"schema-{schema_fp[:16]}-{config_hash}.journal.jsonl"
            )
            journal = SweepJournal(self.journal_path)
        labels = [entry.path for entry in representatives]
        with _trace.span("schema.profile", tables=len(labels)):
            points = runner.sweep(
                labels,
                workload,
                check_agreement=False,
                budget=self.budget,
                journal=journal,
                resume=self.resume,
                jobs=self.jobs,
                framework_spec=FrameworkSpec(
                    factory=schema_framework, kwargs=framework_kwargs
                ),
                result_cache=self.result_cache,
                cache_config=cache_config,
                checkpoints=self.checkpoints,
            )
        for entry, point in zip(representatives, points):
            if point.error is not None or not point.executions:
                entry.status = "error"
                entry.error = point.error or "no execution recorded"
                continue
            execution = point.executions[0]
            entry.status = execution.status
            entry.error = execution.error
            entry.seconds = execution.seconds
            entry.cached = execution.cached
            entry.resumed = execution.resumed
            entry.result = execution.result

    def _cross_phase(
        self,
        relations: dict[str, Relation],
        representatives: list[TableProfile],
        schema_fp: str,
    ) -> tuple[list[CrossTableInd], str, str | None]:
        """One SPIDER merge over the union of the unique tables' columns.

        Budget stops and crashes are contained as the catalog-level
        status (the per-table entries keep theirs); the merge cursor
        checkpoints under the *schema* fingerprint so a killed merge
        resumes mid-heap with the prefilter's effect already embedded in
        the restored refs.
        """
        ordered = [
            relations[entry.name]
            for entry in representatives
            if entry.name in relations
        ]
        names = [
            entry.name for entry in representatives if entry.name in relations
        ]
        status, error = "ok", None
        pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
        with _trace.span("schema.cross_inds", tables=len(ordered)) as span:
            if ordered:
                session = None
                if self.checkpoints is not None:
                    session = self.checkpoints.session(
                        schema_fp, "schema.cross_inds", self._cache_config()
                    )
                    if self.resume:
                        session.load()
                    else:
                        session.discard()
                try:
                    with guarded(self.budget), active_session(session):
                        pairs = spider_across(
                            ordered, checkpoint_stage="schema.cross"
                        )
                except BudgetExceeded as stop:
                    status, error = stop.reason, str(stop)
                except Exception as crash:  # contained, like a TL/ML cell
                    status = "error"
                    error = f"{type(crash).__name__}: {crash}"
                else:
                    if session is not None:
                        session.complete()
            cross = [
                CrossTableInd(
                    dependent_table=names[dep_rel],
                    dependent_column=ordered[dep_rel].column_names[dep_col],
                    referenced_table=names[ref_rel],
                    referenced_column=ordered[ref_rel].column_names[ref_col],
                )
                for (dep_rel, dep_col), (ref_rel, ref_col) in pairs
                if dep_rel != ref_rel  # intra-table INDs live in the
                # table's own single-relation result
            ]
            span.set(inds=len(cross), status=status)
        return sorted(cross), status, error

    def _rank(
        self,
        cross: list[CrossTableInd],
        facts: dict[tuple[str, str], ColumnFacts],
    ):
        with _trace.span("schema.rank_fks", inds=len(cross)) as span:
            candidates = rank_fk_candidates(
                cross, facts, limit=self.max_fk_candidates
            )
            span.set(candidates=len(candidates))
        return candidates

    @staticmethod
    def _counters(catalog: SchemaCatalog) -> dict[str, int]:
        """Deterministic schema-level counters, derived from the catalog
        content itself so journal-restored and freshly-computed runs
        agree exactly."""
        return {
            "schema.tables": len(catalog.tables),
            "schema.unique_tables": sum(
                1
                for entry in catalog.tables
                if entry.fingerprint is not None and entry.duplicate_of is None
            ),
            "schema.dedup_hits": sum(
                1 for entry in catalog.tables if entry.duplicate_of is not None
            ),
            "schema.load_failures": sum(
                1 for entry in catalog.tables if entry.fingerprint is None
            ),
            "schema.inds_across": len(catalog.cross_inds),
            "schema.fk_candidates": len(catalog.fk_candidates),
        }


def profile_schema(
    root: str | Path,
    jobs: int | None = None,
    algorithm: str = "auto",
    seed: int = 0,
    budget: Budget | None = None,
    checkpoints: "CheckpointStore | None" = None,
    resume: bool = True,
    result_cache: "ResultCache | None" = None,
    name: str | None = None,
    delimiter: str = ",",
    has_header: bool = True,
    max_fk_candidates: int | None = None,
) -> SchemaCatalog:
    """Profile a directory of CSV tables as one schema job (facade over
    :class:`SchemaJob`; see its docstring for the phase walk-through)."""
    return SchemaJob(
        root=root,
        name=name,
        delimiter=delimiter,
        has_header=has_header,
        algorithm=algorithm,
        seed=seed,
        jobs=jobs,
        budget=budget,
        checkpoints=checkpoints,
        resume=resume,
        result_cache=result_cache,
        max_fk_candidates=max_fk_candidates,
    ).run()
