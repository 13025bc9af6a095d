"""PLI kernel micro-benchmark — legacy cluster-set path vs probe-vector path.

Replays the intersection traffic of the Fig. 6 row-scalability workloads
(``uniprot_like``, 10 columns) against both kernels:

* ``legacy_intersect`` — the seed implementation: a probe dict is rebuilt
  from the right operand on every call;
* ``PLI.intersect`` — the array-backed kernel: each PLI lazily memoizes a
  flat cluster-id probe vector, so repeated intersections against the same
  operand reuse one vector, and rows are grouped through a bucket table
  indexed by cluster id instead of a per-call dict.

The traffic mirrors what lattice algorithms generate: every column pair
(single-column PLIs intersected repeatedly — the dominant pattern) plus a
chained multi-column intersection (lattice descent).  Results are checked
for equality between paths and written to
``benchmarks/results/BENCH_pli_kernel.json``; the acceptance bar is a
median speedup of at least 2x.
"""

import json
import statistics
import time

from repro.algorithms.naive import legacy_intersect
from repro.datasets import uniprot_like
from repro.pli import PLI, RelationIndex

from .conftest import RESULTS_DIR, once

N_COLUMNS = 10
REPEATS = 3


def _column_plis(rows: int) -> list[PLI]:
    relation = uniprot_like(int(rows), n_columns=N_COLUMNS, seed=0)
    index = RelationIndex(relation)
    return [index.column_pli(c) for c in range(relation.n_columns)]


def _fresh(plis: list[PLI]) -> list[PLI]:
    """Re-wrap the PLIs so memoized probe vectors do not leak between
    timed runs — every repeat pays its own probe builds."""
    return [PLI(p.clusters, p.n_rows) for p in plis]


def _traffic(plis, intersect):
    """The replayed intersection workload; returns all produced PLIs."""
    produced = []
    n = len(plis)
    for i in range(n):
        for j in range(i + 1, n):
            produced.append(intersect(plis[i], plis[j]))
    joint = plis[0]
    for pli in plis[1:]:
        joint = intersect(joint, pli)
        produced.append(joint)
    return produced


def _time_path(plis, intersect):
    """Best-of-REPEATS wall time plus the produced PLIs (for agreement)."""
    timings = []
    produced = None
    for _ in range(REPEATS):
        operands = _fresh(plis)
        started = time.perf_counter()
        produced = _traffic(operands, intersect)
        timings.append(time.perf_counter() - started)
    return min(timings), produced


def test_pli_kernel_speedup(benchmark, bench_profile, report_sink):
    rows_sweep = bench_profile["fig6_rows"]

    def experiment():
        points = []
        for rows in rows_sweep:
            plis = _column_plis(rows)
            legacy_s, legacy_out = _time_path(
                plis, lambda a, b: legacy_intersect(a, b)
            )
            kernel_s, kernel_out = _time_path(plis, lambda a, b: a.intersect(b))
            points.append(
                {
                    "rows": int(rows),
                    "legacy_s": round(legacy_s, 6),
                    "kernel_s": round(kernel_s, 6),
                    "speedup": round(legacy_s / kernel_s, 3),
                    "results_agree": legacy_out == kernel_out,
                }
            )
        return points

    points = once(benchmark, experiment)
    median_speedup = statistics.median(p["speedup"] for p in points)
    payload = {
        "workload": "fig6_rows (uniprot_like, 10 columns)",
        "profile": bench_profile["name"],
        "repeats": REPEATS,
        "points": points,
        "median_speedup": round(median_speedup, 3),
        "results_agree": all(p["results_agree"] for p in points),
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_pli_kernel.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    lines = [
        "PLI kernel — legacy cluster-set path vs array-backed probe-vector path",
        "",
        f"{'rows':>8}  {'legacy[s]':>10}  {'kernel[s]':>10}  {'speedup':>8}",
    ]
    lines += [
        f"{p['rows']:>8}  {p['legacy_s']:>10.4f}  {p['kernel_s']:>10.4f}"
        f"  {p['speedup']:>7.2f}x"
        for p in points
    ]
    lines += ["", f"median speedup: {median_speedup:.2f}x",
              f"[json written to {json_path}]"]
    report_sink("pli_kernel", "\n".join(lines))

    assert payload["results_agree"], "kernel paths diverged"
    if not bench_profile["smoke"]:
        # A single smoke point is too noisy to hold the bar to; the full
        # quick/paper sweeps must clear it.
        assert median_speedup >= 2.0, (
            f"median speedup {median_speedup:.2f}x is below the 2x acceptance bar"
        )
