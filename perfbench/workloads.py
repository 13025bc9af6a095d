"""The benchmark's workloads: input generation and the timed operations.

Run as a script, this file is the benchmark's child process: it reads one
JSON job from ``argv[1]`` (a set-up or an operation), does it, and prints
one JSON line with what it measured.  Every operation runs in a fresh
child so no warm state survives between repeats, as with a real
``repro profile`` run.  The parent (``run.py``) never imports ``repro``.

Inputs.  Each workload's dependency geometry is fixed: its relations come
from ``repro.datasets`` (or a seeded star schema) with a constant dataset
seed.  The benchmark seed then picks the concrete input bytes through two
metadata-preserving transformations: one global bijection of value
strings (shuffled within classes of equal length, so file sizes do not
change) and a shuffle of row order.  INDs, UCCs and FDs are invariant
under both, so every seed has the same expected metadata, checked by
digest, while run-to-run spread measures the program rather than which
dependencies one random draw happened to contain.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NAMES = ("tall", "wide", "append", "schema")

#: Constant generator seed: the dependency geometry every run profiles.
DATA_SEED = 0

#: Input sizes.  ``refreshes`` is how many follow-up operations one child
#: times after the cold profile (cache-hit reruns, or append batches).
SIZES = {
    "tall": {
        "full": {"rows": 25_000, "refreshes": 1},
        "quick": {"rows": 1_500, "refreshes": 1},
    },
    "wide": {
        "full": {"columns": 18, "refreshes": 8},
        "quick": {"columns": 12, "refreshes": 1},
    },
    "append": {
        "full": {"rows": 25_000, "batch": 250, "refreshes": 5},
        "quick": {"rows": 1_500, "batch": 30, "refreshes": 2},
    },
    "schema": {
        "full": {"tables": 10, "rows": 2_000, "duplicates": 2, "refreshes": 2},
        "quick": {"tables": 4, "rows": 150, "duplicates": 1, "refreshes": 1},
    },
}

# -- input generation ----------------------------------------------------


def _as_strings(relation) -> list[list[str]]:
    """Rows as CSV strings, NULL as the empty string (what write_csv does)."""
    return [
        ["" if value is None else str(value) for value in row]
        for row in relation.iter_rows()
    ]


def _star_schema(n_tables: int, n_rows: int) -> dict[str, tuple[list[str], list[list[str]]]]:
    """A star schema: a ``customers`` parent and child tables whose first
    column is usually a genuine foreign key into it."""
    rng = random.Random(DATA_SEED)
    parent_ids = [f"C{i:05d}" for i in range(max(n_rows // 4, 8))]
    tables = {
        "customers": (
            ["id", "region", "tier"],
            [[pid, rng.choice("nsew"), str(rng.randint(1, 3))] for pid in parent_ids],
        )
    }
    for index in range(1, n_tables):
        key = "customer_id" if rng.random() < 0.6 else f"t{index}_key"
        header = [key, f"t{index}_a", f"t{index}_b", f"t{index}_c"]
        rows = [
            [
                rng.choice(parent_ids) if key == "customer_id" else f"K{row}",
                str(rng.randint(0, 40)),
                rng.choice("xyzuvw"),
                "" if rng.random() < 0.05 else str(rng.randint(0, 9)),
            ]
            for row in range(n_rows)
        ]
        tables[f"table_{index:02d}"] = (header, rows)
    return tables


def _relabel(parts: list[list[list[str]]], rng: random.Random) -> None:
    """Apply one seeded bijection of non-NULL value strings to every row
    of every part, in place.  Values only trade places with values of
    the same length (and the same need for CSV quoting), so the bytes
    on disk keep their size."""
    distinct: set[str] = set()
    for rows in parts:
        for row in rows:
            distinct.update(row)
    distinct.discard("")
    classes: dict[tuple[int, bool], list[str]] = {}
    for value in sorted(distinct):
        quoted = any(char in value for char in ',"\r\n')
        classes.setdefault((len(value), quoted), []).append(value)
    mapping = {"": ""}
    for values in classes.values():
        shuffled = list(values)
        rng.shuffle(shuffled)
        mapping.update(zip(values, shuffled))
    for rows in parts:
        for row in rows:
            row[:] = [mapping[value] for value in row]


def _write(path: Path, header: list[str], rows: list[list[str]]) -> None:
    from repro import Relation, write_csv

    columns = [list(column) for column in zip(*rows)] if rows else [[] for _ in header]
    relation = Relation(
        header,
        [[None if value == "" else value for value in column] for column in columns],
        name=path.stem,
    )
    write_csv(relation, path)


def build_inputs(workload: str, size: dict, seed: int, directory: Path) -> int:
    """Write the workload's CSV files into ``directory``; returns the
    number of input rows one cold operation reads."""
    from repro.datasets import ionosphere_like, uniprot_like

    rng = random.Random(seed)
    if workload == "schema":
        tables = _star_schema(size["tables"], size["rows"])
        _relabel([rows for _, rows in tables.values()], rng)
        root = directory / "schema"
        root.mkdir()
        for name, (header, rows) in tables.items():
            rng.shuffle(rows)
            _write(root / f"{name}.csv", header, rows)
        children = sorted(name for name in tables if name != "customers")
        for copy in range(size["duplicates"]):
            name = children[copy]
            shutil.copyfile(root / f"{name}.csv", root / f"zz_copy_{copy}_{name}.csv")
        total = sum(len(rows) for _, rows in tables.values())
        return total + sum(len(tables[children[c]][1]) for c in range(size["duplicates"]))

    if workload == "wide":
        relation = ionosphere_like(size["columns"], n_rows=351, seed=DATA_SEED)
    elif workload == "tall":
        relation = uniprot_like(size["rows"], n_columns=10, seed=DATA_SEED)
    else:
        total = size["rows"] + size["batch"] * size["refreshes"]
        relation = uniprot_like(total, n_columns=10, seed=DATA_SEED)
    header = list(relation.column_names)
    rows = _as_strings(relation)
    if workload != "append":
        _relabel([rows], rng)
        rng.shuffle(rows)
        _write(directory / "input.csv", header, rows)
        return len(rows)

    # Rows are shuffled only within the base and within each batch, so
    # every prefix the append chain profiles holds the same row set at
    # every seed.
    cut = size["rows"]
    parts = [rows[:cut]] + [
        rows[cut + i * size["batch"]: cut + (i + 1) * size["batch"]]
        for i in range(size["refreshes"])
    ]
    _relabel(parts, rng)
    for part in parts:
        rng.shuffle(part)
    _write(directory / "base.csv", header, parts[0])
    for index, part in enumerate(parts[1:]):
        _write(directory / f"batch_{index:02d}.csv", header, part)
    return cut


def file_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every input file, by path relative to ``directory``."""
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*.csv"))
    }


# -- digests of results ---------------------------------------------------


def metadata_digest(result) -> str:
    from repro.metadata.serialize import canonical_metadata_dumps

    return hashlib.sha256(canonical_metadata_dumps(result).encode()).hexdigest()


def catalog_digest(catalog, drop: tuple[str, ...] = ("fingerprint",)) -> str:
    """Digest of the canonical catalog without per-table content
    fingerprints, which change with the seed by design (they hash the
    relabelled bytes); ``drop`` may also name ``algorithm`` to compare
    catalogs produced by different algorithms."""
    from repro.metadata.serialize import canonical_catalog_dumps

    document = json.loads(canonical_catalog_dumps(catalog))
    for table in document["tables"]:
        for key in drop:
            table.pop(key, None)
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def chain_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


# -- benchmark-side spans --------------------------------------------------


def _install_spans(trace) -> dict:
    """Wrap the public I/O entry points in benchmark-side spans, in this
    process only.  Returns the wrapped ``read_csv`` and its byte counter."""
    import repro
    import repro.schema.job as schema_job
    from repro.harness.checkpoint import CheckpointSession
    from repro.harness.result_cache import ResultCache
    from repro.harness.runner import SweepJournal

    stats = {"read_bytes": 0}

    def wrap(function, name, on_result=None):
        def wrapper(*args, **kwargs):
            with trace.span(name) as span:
                result = function(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, result)
            return result

        return wrapper

    def count_bytes(span, args, result):
        stats["read_bytes"] += os.path.getsize(args[0])

    def count_hit(span, args, result):
        span.count("harness.result_cache_hits", int(result is not None))

    read_csv = wrap(repro.read_csv, "relation.read_csv", count_bytes)
    schema_job.read_csv = read_csv
    ResultCache.get = wrap(ResultCache.get, "harness.result_cache_get", count_hit)
    ResultCache.put = wrap(ResultCache.put, "harness.result_cache_put")
    CheckpointSession.boundary = wrap(CheckpointSession.boundary, "harness.checkpoint_boundary")
    CheckpointSession.complete = wrap(CheckpointSession.complete, "harness.checkpoint_complete")
    SweepJournal.append = wrap(SweepJournal.append, "harness.journal_append")
    os.fsync = wrap(os.fsync, "harness.fsync")
    os.replace = wrap(os.replace, "harness.replace")
    # Sweeps move each point's events out of the tracer into the point
    # record; keep them in the buffer so the schema job's per-table work
    # is attributed to its layers instead of to the enclosing span.
    capture = trace.capture
    trace.capture = lambda drain=False: capture(drain=False)
    return read_csv, stats


def _trace_report(trace, tracer, kernel_before, result_counters, stats) -> dict:
    """Compact per-op trace facts for the parent: span rows, rolled-up
    counters, kernel counter deltas and program-reported counters."""
    from repro.pli.pli import KERNEL_STATS

    summary = trace.trace_summary(tracer.events)
    span_names = {event["name"] for event in tracer.events if event["type"] == "end"}
    spans = {
        key: {
            "count": row["count"],
            "seconds": row["seconds"],
            "self_seconds": row["self_seconds"],
        }
        for key, row in summary.items()
        if key.split("[")[0] in span_names
    }
    counters: dict[str, float] = dict(tracer.counters)
    for event in tracer.events:
        if event["type"] == "end" and event["name"].startswith("bench."):
            for name, value in event["counters"].items():
                counters[name] = counters.get(name, 0) + value
    checkpoint_bytes = sum(
        event["attrs"].get("bytes", 0)
        for event in tracer.events
        if event["type"] == "event" and event["name"] == "checkpoint.save"
    )
    kernel = {
        name: value
        for name, value in KERNEL_STATS.delta(kernel_before).items()
        if isinstance(value, int)
    }
    return {
        "spans": spans,
        "counters": counters,
        "kernel": kernel,
        "results": result_counters,
        "checkpoint_bytes": checkpoint_bytes,
        "read_bytes": stats["read_bytes"],
    }


def _sum_counters(results) -> dict[str, int]:
    total: dict[str, int] = {}
    for result in results:
        for name, value in result.counters.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[name] = total.get(name, 0) + value
    return total


# -- the timed operations ---------------------------------------------------


def _profile_op(job: dict, read_csv, trace) -> tuple[dict, list]:
    """tall, wide: ``read_csv`` + ``profile()``, storing the result in a
    fresh result cache as the CLI does by default; each refresh re-reads
    the file and is served from that cache."""
    from repro import choose_algorithm, profile
    from repro.harness.result_cache import ResultCache
    from repro.metadata.serialize import result_from_dict, result_to_dict

    cache = ResultCache(Path(job["scratch"]) / "cache")
    config = {"workload": job["workload"]}
    path = Path(job["dir"]) / "input.csv"
    out: dict = {"refresh_s": [], "refresh_digests": []}
    started = time.perf_counter()
    with trace.span("bench.cold"):
        relation = read_csv(path)
        algorithm = choose_algorithm(relation)
        if cache.get(relation.fingerprint(), algorithm, config) is not None:
            raise RuntimeError("cold operation hit a fresh result cache")
        result = profile(relation, algorithm=algorithm)
        cache.put(relation.fingerprint(), algorithm, result_to_dict(result), config)
    out["profile_s"] = time.perf_counter() - started
    out["digest"] = metadata_digest(result)
    for _ in range(job["refreshes"]):
        started = time.perf_counter()
        with trace.span("bench.refresh"):
            again = read_csv(path)
            document = cache.get(again.fingerprint(), algorithm, config)
            if document is None:
                raise RuntimeError("refresh missed the result cache")
            cached = result_from_dict(document)
        out["refresh_s"].append(time.perf_counter() - started)
        out["refresh_digests"].append(metadata_digest(cached))
    if job["validate"]:
        reference = profile(read_csv(path), algorithm="holistic_fun")
        out["reference_digest"] = metadata_digest(reference)
    return out, [result]


def _append_op(job: dict, read_csv, trace) -> tuple[dict, list]:
    """append: ``read_csv`` + ``IncrementalProfiler.profile_base`` on the
    base rows; each refresh reads one batch, ``maintain``s the profile and
    caches it under the grown fingerprint with a parent link, as
    ``repro --append`` does."""
    from repro import profile
    from repro.harness.result_cache import ResultCache
    from repro.incremental import IncrementalProfiler
    from repro.metadata.serialize import result_to_dict

    directory = Path(job["dir"])
    cache = ResultCache(Path(job["scratch"]) / "cache")
    config = {"workload": "append"}
    profiler = IncrementalProfiler()
    out: dict = {"refresh_s": [], "refresh_digests": []}
    started = time.perf_counter()
    with trace.span("bench.cold"):
        relation = read_csv(directory / "base.csv")
        if cache.get(relation.fingerprint(), "auto", config) is not None:
            raise RuntimeError("cold operation hit a fresh result cache")
        result = profiler.profile_base(relation)
        cache.put(relation.fingerprint(), "auto", result_to_dict(result), config)
    out["profile_s"] = time.perf_counter() - started
    base = result
    digests = [metadata_digest(result)]
    references = []
    if job["validate"]:
        reference = profile(read_csv(directory / "base.csv"), algorithm="holistic_fun")
        references.append(metadata_digest(reference))
    for index in range(job["refreshes"]):
        started = time.perf_counter()
        with trace.span("bench.refresh"):
            batch = read_csv(directory / f"batch_{index:02d}.csv")
            parent = relation.fingerprint()
            result = profiler.maintain(relation, list(batch.iter_rows()), result)
            cache.put(
                relation.fingerprint(), "auto", result_to_dict(result), config,
                parent_fingerprint=parent,
            )
        out["refresh_s"].append(time.perf_counter() - started)
        digests.append(metadata_digest(result))
        if job["validate"]:
            grown = read_csv(directory / "base.csv")
            for previous in range(index + 1):
                grown.append_rows(read_csv(directory / f"batch_{previous:02d}.csv").iter_rows())
            reference = profile(grown)
            if not reference.same_metadata(result):
                raise RuntimeError(f"maintained profile differs after batch {index}")
            references.append(metadata_digest(reference))
    out["digest"] = chain_digest(digests)
    if job["validate"]:
        out["reference_digest"] = chain_digest(references)
    return out, [base]


def _schema_op(job: dict, read_csv, trace) -> tuple[dict, list]:
    """schema: a cold ``profile_schema`` with a fresh checkpoint store and
    result cache; each refresh reruns the job warm against that cache."""
    from repro.harness.checkpoint import CheckpointStore
    from repro.harness.result_cache import ResultCache
    from repro.schema import profile_schema

    scratch = Path(job["scratch"])
    schema = Path(job["dir"]) / "schema"
    cache = ResultCache(scratch / "cache")
    # The pool's workers inherit this single-CPU affinity: on a two-vCPU
    # host whose second CPU is shared with other tenants, a free-running
    # pool made whole runs up to 1.7x apart.  Pinned, the job still forks,
    # dispatches and ships results through the pool.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def run(label: str, cache: ResultCache, algorithm: str = "auto", jobs: int = job["jobs"]):
        return profile_schema(
            schema,
            jobs=jobs,
            algorithm=algorithm,
            checkpoints=CheckpointStore(scratch / f"checkpoints-{label}"),
            result_cache=cache,
            name="star",
        )

    out: dict = {"refresh_s": [], "refresh_digests": []}
    started = time.perf_counter()
    with trace.span("bench.cold"):
        catalog = run("cold", cache)
    out["profile_s"] = time.perf_counter() - started
    if not catalog.ok:
        raise RuntimeError(f"schema job status {catalog.status}: {catalog.error}")
    out["digest"] = catalog_digest(catalog)
    for index in range(job["refreshes"]):
        started = time.perf_counter()
        with trace.span("bench.refresh"):
            warm = run(f"warm{index}", cache)
        out["refresh_s"].append(time.perf_counter() - started)
        if not all(table.cached for table in warm.tables if table.duplicate_of is None):
            raise RuntimeError("warm schema rerun missed the result cache")
        out["refresh_digests"].append(catalog_digest(warm))
    if job["validate"]:
        reference = run("validate", ResultCache(scratch / "cache-validate"), "muds", jobs=1)
        out["reference_digest"] = catalog_digest(reference, drop=("fingerprint", "algorithm"))
        out["digest_without_algorithm"] = catalog_digest(catalog, drop=("fingerprint", "algorithm"))
    return out, [table.result for table in catalog.tables if table.result is not None]


OPERATIONS = {"tall": _profile_op, "wide": _profile_op, "append": _append_op, "schema": _schema_op}


def run_op(job: dict) -> dict:
    """One operation of ``job["workload"]``: a cold profile, then
    ``job["refreshes"]`` follow-ups, traced when ``job["trace"]``."""
    import repro
    from repro import trace
    from repro.pli.pli import KERNEL_STATS

    read_csv, stats = repro.read_csv, {"read_bytes": 0}
    if job["trace"]:
        read_csv, stats = _install_spans(trace)
        tracer = trace.enable()
    kernel_before = KERNEL_STATS.snapshot()
    out, cold_results = OPERATIONS[job["workload"]](job, read_csv, trace)
    if job["trace"]:
        trace.disable()
        out["trace"] = _trace_report(
            trace, tracer, kernel_before, _sum_counters(cold_results), stats
        )
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["rss_mb"] = max(self_rss, pool_rss) / 1024.0
    return out


def run_setup(job: dict) -> dict:
    """Import the program and build this workload's input files."""
    started = time.perf_counter()
    import repro  # noqa: F401  (import cost is part of set-up)

    directory = Path(job["dir"])
    directory.mkdir(parents=True)
    rows = build_inputs(job["workload"], job["size"], job["seed"], directory)
    seconds = time.perf_counter() - started
    return {"setup_s": seconds, "rows": rows, "files": file_digests(directory)}


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if job["mode"] == "setup":
            out = run_setup(job)
        else:
            out = run_op(job)
    except Exception as error:  # reported to the parent as a failed op
        import traceback

        traceback.print_exc()
        out = {"error": f"{type(error).__name__}: {error}"}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
