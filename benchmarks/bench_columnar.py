"""Columnar-storage benchmark: dictionary-encoded codes vs boxed objects.

Two experiments, each cell isolated in a **subprocess** so peak RSS
(``resource.getrusage``) is attributable to exactly one configuration:

* **end-to-end cells** — a 1M-row ``uniprot_like`` CSV is ingested once
  per configuration (read + streamed fingerprint), then every
  non-trivial column pair is one *cell*: build both single-column PLIs
  and intersect them, cold each repeat.  The ``encoded`` and ``mmap``
  storage modes build the PLIs from the codes the storage holds.  The
  ``objects`` baseline is the seed's object-column path, kept here only:
  it decodes each column to a tuple of values once after the read and
  groups the two value tuples of a cell with
  :func:`~repro.pli.pli.pli_from_column`.  Cells whose baseline time is
  above the median are the **intersect-heavy** cells; the acceptance bar
  (median end-to-end speedup ≥ 2x vs the object-column baseline, on the
  numpy backend) is held on exactly those.  Cluster checksums pin
  bit-identical results across all three configurations; ingest wall
  time and peak RSS per configuration are disclosed.
* **out-of-core 10M-row workload** — a categorical CSV too large to
  profile as boxed objects is streamed to disk, then profiled under
  ``--storage mmap``: single-pass read spills code arrays to
  memory-mapped files, the index is built over a duplicate-heavy
  projection, and two intersections run.  The run must complete under a
  **fixed memory bound** (asserted here and re-asserted by the committed-
  results test); the in-memory ``encoded`` mode runs the same workload
  for the RSS comparison.

Standalone on purpose (no pytest-benchmark): the numbers of record are
medians over deterministic cells, and subprocess isolation does not fit
a fixture-driven harness.

Usage::

    PYTHONPATH=src python benchmarks/bench_columnar.py
    PYTHONPATH=src python benchmarks/bench_columnar.py --smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.pli import numpy_available  # noqa: E402

DEFAULT_OUTPUT = Path("benchmarks/results/BENCH_columnar.json")
WORKDIR = Path("benchmarks/results/cache/columnar")

N_COLUMNS = 8
CELL_ROWS = 1_000_000
SMOKE_CELL_ROWS = 20_000
OOC_ROWS = 10_000_000
SMOKE_OOC_ROWS = 100_000
REPEATS = 2

#: Fixed memory bound (bytes) the 10M-row mmap run must stay under — the
#: acceptance number committed to BENCH_columnar.json and re-asserted by
#: tests/test_bench_columnar.py.  The boxed-object representation of the
#: same relation (60M boxed values plus row tuples) is estimated far
#: above it.
MMAP_RSS_BOUND = 3 * 1024**3


# -- workload synthesis ------------------------------------------------------


def uniprot_csv(rows: int) -> Path:
    """The 1M-row experiment's CSV, generated once and cached."""
    path = WORKDIR / f"uniprot_{rows}x{N_COLUMNS}.csv"
    if path.exists():
        return path
    from repro.datasets.generators import uniprot_like

    WORKDIR.mkdir(parents=True, exist_ok=True)
    relation = uniprot_like(rows, n_columns=N_COLUMNS, seed=0)
    columns = [relation.column(i) for i in range(relation.n_columns)]
    with open(path, "w") as handle:
        handle.write(",".join(relation.column_names) + "\n")
        for row in range(rows):
            handle.write(
                ",".join(
                    "" if column[row] is None else str(column[row])
                    for column in columns
                )
                + "\n"
            )
    return path


def categorical_csv(rows: int) -> Path:
    """The out-of-core experiment's CSV: 6 columns with small
    dictionaries (every code array is row-sized, every dictionary is
    not), streamed straight to disk — the relation never exists as
    boxed objects on this side either."""
    path = WORKDIR / f"categorical_{rows}.csv"
    if path.exists():
        return path
    WORKDIR.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        handle.write("part,family,genus,batch,site,flag\n")
        for i in range(rows):
            family = (i * 7) % 83
            handle.write(
                f"p{i % 997},f{family},g{family % 13},"
                f"b{(i // 1000) % 503},s{i % 29},x{(i + family) % 31}\n"
            )
    return path


# -- subprocess cells --------------------------------------------------------


def _peak_rss_bytes() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def child_cells(spec: dict) -> dict:
    """Child body: ingest a CSV under one configuration, then run every
    non-trivial column pair as a cold storage→PLIs→intersection cell.

    Mode ``objects`` is the object-column baseline: the read is the
    usual encoded one, each column is decoded to a tuple once (counted
    as ingest), and cells group value tuples with ``pli_from_column``."""
    from repro.pli import RelationIndex, use_backend
    from repro.pli.pli import pli_from_column
    from repro.relation import read_csv

    baseline = spec["mode"] == "objects"
    storage_mode = "encoded" if baseline else spec["mode"]
    with use_backend(spec["backend"]):
        started = time.perf_counter()
        relation = read_csv(spec["csv"], storage=storage_mode)
        fingerprint = relation.fingerprint()
        if baseline:
            values = [tuple(relation.column(c)) for c in range(relation.n_columns)]
        ingest_seconds = time.perf_counter() - started

        probe = RelationIndex(relation)
        uniques = {
            c
            for c in range(relation.n_columns)
            if probe.column_pli(c).is_unique
        }
        del probe

        cells = []
        for left in range(relation.n_columns):
            for right in range(left + 1, relation.n_columns):
                if left in uniques or right in uniques:
                    continue
                best, checksum = None, None
                for _ in range(spec["repeats"]):
                    if baseline:
                        cell_start = time.perf_counter()
                        joint = pli_from_column(values[left]).intersect(
                            pli_from_column(values[right])
                        )
                    else:
                        pair = relation.project([left, right])
                        cell_start = time.perf_counter()
                        index = RelationIndex(pair)
                        joint = index.column_pli(0).intersect(index.column_pli(1))
                    seconds = time.perf_counter() - cell_start
                    # Int-tuple hashing is process-stable: a cross-mode
                    # parity checksum that never ships the clusters.
                    checksum = [
                        len(joint.clusters),
                        joint.n_clustered_rows,
                        hash(joint.clusters),
                    ]
                    if best is None or seconds < best:
                        best = seconds
                cells.append(
                    {"pair": [left, right], "seconds": best, "checksum": checksum}
                )
    return {
        "mode": spec["mode"],
        "fingerprint": fingerprint,
        "ingest_seconds": round(ingest_seconds, 4),
        "cells": cells,
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def child_out_of_core(spec: dict) -> dict:
    """Child body: single-pass ingest of the categorical CSV, index over
    its duplicate-heavy projection, two intersections.

    Each composite is checksummed and released as soon as it is
    produced (streaming discipline — retaining every composite is the
    ``PliCache`` byte budget's job, not a workload requirement); on a
    10M-row relation one retained composite is hundreds of MiB of boxed
    cluster tuples."""
    from repro.pli import RelationIndex, use_backend
    from repro.relation import read_csv

    with use_backend(spec["backend"]):
        started = time.perf_counter()
        relation = read_csv(spec["csv"], storage=spec["mode"])
        fingerprint = relation.fingerprint()
        ingest_seconds = time.perf_counter() - started

        worked = time.perf_counter()
        # family → genus is an FD by construction; site/flag are dense.
        index = RelationIndex(relation.project(["family", "genus", "flag"]))
        checksums = []
        for rhs in (1, 2):
            joint = index.column_pli(0).intersect(index.column_pli(rhs))
            checksums.append(
                [len(joint.clusters), joint.n_clustered_rows, hash(joint.clusters)]
            )
            del joint
        profile_seconds = time.perf_counter() - worked
    return {
        "mode": spec["mode"],
        "rows": relation.n_rows,
        "fingerprint": fingerprint,
        "ingest_seconds": round(ingest_seconds, 4),
        "profile_seconds": round(profile_seconds, 4),
        "checksums": checksums,
        "peak_rss_bytes": _peak_rss_bytes(),
    }


def run_child(kind: str, spec: dict) -> dict:
    """Execute one cell in a fresh interpreter; its RSS is its own."""
    command = [sys.executable, __file__, "--child", kind]
    completed = subprocess.run(
        command,
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"child {kind}/{spec.get('mode')} failed:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.splitlines()[-1])


# -- experiments -------------------------------------------------------------


def end_to_end_cells(rows: int, backend: str, repeats: int) -> dict:
    csv_path = uniprot_csv(rows)
    spec = {
        "csv": str(csv_path),
        "backend": backend,
        "repeats": repeats,
    }
    by_mode = {
        mode: run_child("cells", {**spec, "mode": mode})
        for mode in ("objects", "encoded", "mmap")
    }

    fingerprints = {report["fingerprint"] for report in by_mode.values()}
    if len(fingerprints) != 1:
        raise AssertionError("configurations disagree on the fingerprint")
    baseline = {tuple(c["pair"]): c for c in by_mode["objects"]["cells"]}
    cells = []
    for cell in by_mode["encoded"]["cells"]:
        pair = tuple(cell["pair"])
        reference = baseline[pair]
        mmap_cell = next(
            c for c in by_mode["mmap"]["cells"] if tuple(c["pair"]) == pair
        )
        if not (
            reference["checksum"] == cell["checksum"] == mmap_cell["checksum"]
        ):
            raise AssertionError(
                f"cluster checksum diverged across configurations on {pair}"
            )
        cells.append(
            {
                "pair": list(pair),
                "objects_s": round(reference["seconds"], 6),
                "encoded_s": round(cell["seconds"], 6),
                "mmap_s": round(mmap_cell["seconds"], 6),
                "speedup": round(reference["seconds"] / cell["seconds"], 3),
            }
        )
    cutoff = statistics.median(c["objects_s"] for c in cells)
    for cell in cells:
        cell["intersect_heavy"] = cell["objects_s"] >= cutoff
    heavy = [c["speedup"] for c in cells if c["intersect_heavy"]]
    return {
        "rows": rows,
        "backend": backend,
        "repeats": repeats,
        "modes": {
            mode: {
                "ingest_seconds": report["ingest_seconds"],
                "pipeline_peak_rss_bytes": report["peak_rss_bytes"],
            }
            for mode, report in by_mode.items()
        },
        "cells": cells,
        "heavy_cell_median_speedup": round(statistics.median(heavy), 3),
        "results_agree": True,
    }


def out_of_core(rows: int, backend: str) -> dict:
    csv_path = categorical_csv(rows)
    spec = {"csv": str(csv_path), "backend": backend}
    mmap_report = run_child("ooc", {**spec, "mode": "mmap"})
    encoded_report = run_child("ooc", {**spec, "mode": "encoded"})
    if (
        mmap_report["fingerprint"] != encoded_report["fingerprint"]
        or mmap_report["checksums"] != encoded_report["checksums"]
    ):
        raise AssertionError("mmap and encoded out-of-core runs diverged")
    return {
        "rows": rows,
        "backend": backend,
        "memory_bound_bytes": MMAP_RSS_BOUND,
        "mmap": {
            "ingest_seconds": mmap_report["ingest_seconds"],
            "profile_seconds": mmap_report["profile_seconds"],
            "peak_rss_bytes": mmap_report["peak_rss_bytes"],
        },
        "encoded": {
            "ingest_seconds": encoded_report["ingest_seconds"],
            "profile_seconds": encoded_report["profile_seconds"],
            "peak_rss_bytes": encoded_report["peak_rss_bytes"],
        },
        "within_bound": mmap_report["peak_rss_bytes"] <= MMAP_RSS_BOUND,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small row counts, CI gate: parity + completion, no speed bar",
    )
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument(
        "--output", type=Path, default=None, help=f"default {DEFAULT_OUTPUT}"
    )
    parser.add_argument("--child", choices=("cells", "ooc"), default=None)
    args = parser.parse_args(argv)

    if args.child:
        report = (child_cells if args.child == "cells" else child_out_of_core)(
            json.loads(sys.stdin.read())
        )
        print(json.dumps(report))
        return 0

    backend = "numpy" if numpy_available() else "python"
    cell_rows = SMOKE_CELL_ROWS if args.smoke else CELL_ROWS
    ooc_rows = SMOKE_OOC_ROWS if args.smoke else OOC_ROWS

    cells = end_to_end_cells(cell_rows, backend, args.repeats)
    print(
        f"end-to-end cells ({cell_rows} rows, {backend} backend): "
        f"median heavy speedup {cells['heavy_cell_median_speedup']:.2f}x"
    )
    for cell in cells["cells"]:
        print(
            f"  pair {tuple(cell['pair'])}  objects {cell['objects_s']:8.4f}s"
            f"  encoded {cell['encoded_s']:8.4f}s  x{cell['speedup']:5.2f}"
            f"{'  HEAVY' if cell['intersect_heavy'] else ''}"
        )
    for mode, stats in cells["modes"].items():
        print(
            f"  {mode}: ingest {stats['ingest_seconds']:.2f}s, "
            f"pipeline peak RSS "
            f"{stats['pipeline_peak_rss_bytes'] / 1024**2:.0f} MiB"
        )

    ooc = out_of_core(ooc_rows, backend)
    print(
        f"out-of-core ({ooc_rows} rows): mmap peak RSS "
        f"{ooc['mmap']['peak_rss_bytes'] / 1024**2:.0f} MiB "
        f"(bound {MMAP_RSS_BOUND / 1024**2:.0f} MiB), encoded peak RSS "
        f"{ooc['encoded']['peak_rss_bytes'] / 1024**2:.0f} MiB"
    )

    document = {
        "benchmark": "columnar",
        "profile": "smoke" if args.smoke else "full",
        "end_to_end": cells,
        "out_of_core": ooc,
    }
    output = args.output or DEFAULT_OUTPUT
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"written to {output}")

    if not args.smoke:
        if cells["heavy_cell_median_speedup"] < 2.0:
            print("FAIL: heavy-cell median speedup below the 2x bar")
            return 1
        if not ooc["within_bound"]:
            print("FAIL: mmap out-of-core run exceeded the memory bound")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
