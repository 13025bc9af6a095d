"""JSON (de)serialization of profiling results.

Metanome persists algorithm results so downstream tools can consume them
without re-profiling; this module provides the equivalent for
:class:`~repro.metadata.results.ProfilingResult` — a stable, versioned
JSON document with lossless round-tripping.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any

from .fd import FD
from .ind import IND
from .results import ProfilingResult
from .ucc import UCC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..schema.catalog import SchemaCatalog

__all__ = [
    "result_to_dict",
    "result_from_dict",
    "dumps",
    "loads",
    "canonical_metadata_dumps",
    "catalog_to_dict",
    "catalog_from_dict",
    "catalog_dumps",
    "catalog_loads",
    "canonical_catalog_dumps",
    "catalog_signature",
]

FORMAT_VERSION = 1

#: Version of the schema-catalog document, independent of the
#: single-relation :data:`FORMAT_VERSION` it embeds per table.
CATALOG_FORMAT_VERSION = 1


def result_to_dict(result: ProfilingResult) -> dict[str, Any]:
    """Plain-dict form of a result (JSON-ready)."""
    return {
        "format_version": FORMAT_VERSION,
        "relation": result.relation_name,
        "columns": list(result.column_names),
        "inds": [
            {"dependent": ind.dependent, "referenced": ind.referenced}
            for ind in result.inds
        ],
        "uccs": [list(ucc.columns) for ucc in result.uccs],
        "fds": [{"lhs": list(fd.lhs), "rhs": fd.rhs} for fd in result.fds],
        "phase_seconds": dict(result.phase_seconds),
        "counters": dict(result.counters),
    }


def result_from_dict(document: dict[str, Any]) -> ProfilingResult:
    """Rebuild a result from its dict form (validating the schema)."""
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    columns = tuple(document["columns"])
    known = set(columns)
    inds = []
    for entry in document["inds"]:
        if entry["dependent"] not in known or entry["referenced"] not in known:
            raise ValueError(f"IND references unknown column: {entry}")
        inds.append(IND(entry["dependent"], entry["referenced"]))
    uccs = []
    for entry in document["uccs"]:
        if not set(entry) <= known:
            raise ValueError(f"UCC references unknown column: {entry}")
        uccs.append(UCC(tuple(entry)))
    fds = []
    for entry in document["fds"]:
        if not set(entry["lhs"]) <= known or entry["rhs"] not in known:
            raise ValueError(f"FD references unknown column: {entry}")
        fds.append(FD(tuple(entry["lhs"]), entry["rhs"]))
    return ProfilingResult(
        relation_name=document["relation"],
        column_names=columns,
        inds=sorted(inds),
        uccs=sorted(uccs),
        fds=sorted(fds),
        phase_seconds=dict(document.get("phase_seconds", {})),
        counters=dict(document.get("counters", {})),
    )


def dumps(result: ProfilingResult, indent: int | None = 2) -> str:
    """Serialize a result to a JSON string."""
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)


def loads(text: str) -> ProfilingResult:
    """Parse a result from a JSON string."""
    return result_from_dict(json.loads(text))


def canonical_metadata_dumps(result: ProfilingResult) -> str:
    """Canonical JSON of the *discovered metadata only* (no timings).

    Two results describing the same INDs, UCCs, and FDs over the same
    schema serialize to byte-identical strings regardless of internal
    list ordering, phase timings, or counters — the form the determinism
    checks (parallel sweep vs. serial sweep) compare.
    """
    document = {
        "columns": list(result.column_names),
        "inds": sorted(str(ind) for ind in result.inds),
        "uccs": sorted(
            "{" + ",".join(sorted(ucc.columns)) + "}" for ucc in result.uccs
        ),
        "fds": sorted(
            "{" + ",".join(sorted(fd.lhs)) + "}->" + fd.rhs for fd in result.fds
        ),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


# -- schema catalogs ----------------------------------------------------------
#
# The schema classes import this module's building blocks transitively
# through the harness, so they are imported lazily inside the functions
# here (module level would close an import cycle with
# repro.harness.framework).


def catalog_to_dict(catalog: "SchemaCatalog") -> dict[str, Any]:
    """Plain-dict form of a schema catalog (JSON-ready, lossless)."""
    return {
        "catalog_format_version": CATALOG_FORMAT_VERSION,
        "name": catalog.name,
        "status": catalog.status,
        "error": catalog.error,
        "counters": dict(catalog.counters),
        "tables": [
            {
                "name": table.name,
                "path": table.path,
                "fingerprint": table.fingerprint,
                "n_columns": table.n_columns,
                "n_rows": table.n_rows,
                "algorithm": table.algorithm,
                "status": table.status,
                "error": table.error,
                "seconds": table.seconds,
                "cached": table.cached,
                "resumed": table.resumed,
                "duplicate_of": table.duplicate_of,
                "result": (
                    result_to_dict(table.result)
                    if table.result is not None
                    else None
                ),
            }
            for table in catalog.tables
        ],
        "cross_inds": [
            {
                "dependent_table": ind.dependent_table,
                "dependent_column": ind.dependent_column,
                "referenced_table": ind.referenced_table,
                "referenced_column": ind.referenced_column,
            }
            for ind in catalog.cross_inds
        ],
        "fk_candidates": [
            {
                "dependent_table": candidate.ind.dependent_table,
                "dependent_column": candidate.ind.dependent_column,
                "referenced_table": candidate.ind.referenced_table,
                "referenced_column": candidate.ind.referenced_column,
                "coverage": candidate.coverage,
                "cardinality_ratio": candidate.cardinality_ratio,
                "name_similarity": candidate.name_similarity,
                "score": candidate.score,
            }
            for candidate in catalog.fk_candidates
        ],
    }


def catalog_from_dict(document: dict[str, Any]) -> "SchemaCatalog":
    """Rebuild a schema catalog from its dict form (validating version
    and cross-references)."""
    from ..schema.catalog import CrossTableInd, SchemaCatalog, TableProfile
    from ..schema.fk import ForeignKeyCandidate

    version = document.get("catalog_format_version")
    if version != CATALOG_FORMAT_VERSION:
        raise ValueError(
            f"unsupported catalog format version {version!r} "
            f"(expected {CATALOG_FORMAT_VERSION})"
        )
    tables = []
    for entry in document["tables"]:
        tables.append(
            TableProfile(
                name=entry["name"],
                path=entry.get("path"),
                fingerprint=entry.get("fingerprint"),
                n_columns=entry.get("n_columns", 0),
                n_rows=entry.get("n_rows", 0),
                algorithm=entry.get("algorithm"),
                status=entry.get("status", "ok"),
                error=entry.get("error"),
                seconds=entry.get("seconds", 0.0),
                cached=entry.get("cached", False),
                resumed=entry.get("resumed", False),
                duplicate_of=entry.get("duplicate_of"),
                result=(
                    result_from_dict(entry["result"])
                    if entry.get("result") is not None
                    else None
                ),
            )
        )
    names = {table.name for table in tables}
    cross_inds = []
    for entry in document.get("cross_inds", []):
        if (
            entry["dependent_table"] not in names
            or entry["referenced_table"] not in names
        ):
            raise ValueError(f"cross IND references unknown table: {entry}")
        cross_inds.append(
            CrossTableInd(
                dependent_table=entry["dependent_table"],
                dependent_column=entry["dependent_column"],
                referenced_table=entry["referenced_table"],
                referenced_column=entry["referenced_column"],
            )
        )
    fk_candidates = []
    for entry in document.get("fk_candidates", []):
        if (
            entry["dependent_table"] not in names
            or entry["referenced_table"] not in names
        ):
            raise ValueError(f"FK candidate references unknown table: {entry}")
        fk_candidates.append(
            ForeignKeyCandidate(
                ind=CrossTableInd(
                    dependent_table=entry["dependent_table"],
                    dependent_column=entry["dependent_column"],
                    referenced_table=entry["referenced_table"],
                    referenced_column=entry["referenced_column"],
                ),
                coverage=entry["coverage"],
                cardinality_ratio=entry["cardinality_ratio"],
                name_similarity=entry["name_similarity"],
                score=entry["score"],
            )
        )
    return SchemaCatalog(
        name=document["name"],
        tables=tables,
        cross_inds=cross_inds,
        fk_candidates=fk_candidates,
        counters=dict(document.get("counters", {})),
        status=document.get("status", "ok"),
        error=document.get("error"),
    )


def catalog_dumps(catalog: "SchemaCatalog", indent: int | None = 2) -> str:
    """Serialize a schema catalog to a JSON string."""
    return json.dumps(catalog_to_dict(catalog), indent=indent, sort_keys=True)


def catalog_loads(text: str) -> "SchemaCatalog":
    """Parse a schema catalog from a JSON string."""
    return catalog_from_dict(json.loads(text))


def canonical_catalog_dumps(catalog: "SchemaCatalog") -> str:
    """Canonical JSON of a catalog's *discovered content only*.

    Excludes everything a re-run legitimately changes — wall-clock
    ``seconds``, ``cached``/``resumed`` provenance, per-table phase
    timings and work counters, and error prose — and keeps everything
    that must not: table identities and fingerprints, dedup structure,
    statuses, the per-table metadata (via
    :func:`canonical_metadata_dumps`), the cross-table INDs, the FK
    ranking with its exact scores, and the deterministic catalog-level
    counters.  Two schema sweeps of the same directory serialize to
    byte-identical strings regardless of ``jobs``, storage mode, or
    whether a run resumed from a kill — the form the schema
    differential suite compares.
    """
    document = {
        "name": catalog.name,
        "status": catalog.status,
        "counters": dict(catalog.counters),
        "tables": [
            {
                "name": table.name,
                "path": table.path,
                "fingerprint": table.fingerprint,
                "n_columns": table.n_columns,
                "n_rows": table.n_rows,
                "algorithm": table.algorithm,
                "status": table.status,
                "duplicate_of": table.duplicate_of,
                "metadata": (
                    canonical_metadata_dumps(table.result)
                    if table.result is not None
                    else None
                ),
            }
            for table in catalog.tables
        ],
        "cross_inds": [str(ind) for ind in catalog.cross_inds],
        "fk_candidates": [
            {
                "ind": str(candidate.ind),
                "coverage": candidate.coverage,
                "cardinality_ratio": candidate.cardinality_ratio,
                "name_similarity": candidate.name_similarity,
                "score": candidate.score,
            }
            for candidate in catalog.fk_candidates
        ],
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def catalog_signature(catalog: "SchemaCatalog") -> str:
    """Hex SHA-256 of :func:`canonical_catalog_dumps` — a compact
    identity of a schema sweep's discovered content."""
    return hashlib.sha256(
        canonical_catalog_dumps(catalog).encode("utf-8")
    ).hexdigest()
